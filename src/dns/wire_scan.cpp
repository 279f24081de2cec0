#include "dns/wire_scan.hpp"

#include <cctype>
#include <cstdint>
#include <optional>

namespace dnh::dns {
namespace {

// Bounds mirrored from name.cpp / message.cpp — the scanner must agree
// with the full codec on every accept/reject decision.
constexpr std::size_t kMaxLabelLength = 63;
constexpr std::size_t kMaxNameLength = 253;   // presentation characters
constexpr int kMaxPointerJumps = 64;          // loop guard
constexpr std::size_t kMaxRecordsPerSection = 4096;  // corrupt-count guard

MessageParseError project(NameParseError e) {
  switch (e) {
    case NameParseError::kNone: return MessageParseError::kNone;
    case NameParseError::kTruncated: return MessageParseError::kTruncated;
    case NameParseError::kPointerLoop:
      return MessageParseError::kPointerLoop;
    case NameParseError::kPointerOutOfRange:
      return MessageParseError::kPointerOutOfRange;
    case NameParseError::kBadLabel: return MessageParseError::kBadName;
  }
  return MessageParseError::kBadName;
}

// Mirrors DnsName::decode step for step. When `out` is non-null the
// lowercased presentation form (labels joined by '.') is written there and
// `*out_len` set; when null the name is validated and skipped only.
// dnh-analyze: hot
bool scan_name(net::ByteReader& r, NameParseError& error, char* out,
               std::size_t* out_len) {
  error = NameParseError::kNone;
  std::size_t total = 0;
  std::size_t written = 0;
  int jumps = 0;
  // Position to restore after the first pointer: a compressed name occupies
  // only the bytes up to and including the first pointer.
  std::optional<std::size_t> resume;

  while (true) {
    const std::uint8_t len = r.read_u8();
    if (!r.ok()) {
      error = NameParseError::kTruncated;
      return false;
    }
    if (len == 0) break;
    if ((len & 0xc0) == 0xc0) {
      const std::uint8_t low = r.read_u8();
      if (!r.ok()) {
        error = NameParseError::kTruncated;
        return false;
      }
      if (++jumps > kMaxPointerJumps) {
        error = NameParseError::kPointerLoop;
        return false;
      }
      if (!resume) resume = r.position();
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | low;
      if (target >= r.buffer().size()) {
        error = NameParseError::kPointerOutOfRange;
        return false;
      }
      r.seek(target);
      continue;
    }
    if ((len & 0xc0) != 0) {
      error = NameParseError::kBadLabel;  // 0x40/0x80: reserved
      return false;
    }
    if (len > kMaxLabelLength) {
      error = NameParseError::kBadLabel;
      return false;
    }
    const net::BytesView label = r.read_bytes(len);
    if (!r.ok()) {
      error = NameParseError::kTruncated;
      return false;
    }
    total += label.size() + 1;
    if (total > kMaxNameLength + 1) {
      error = NameParseError::kBadLabel;
      return false;
    }
    if (out) {
      // total <= 254 guarantees written stays <= 253 < sizeof scratch.
      if (written != 0) out[written++] = '.';
      for (const std::uint8_t b : label)
        out[written++] = static_cast<char>(
            std::tolower(static_cast<unsigned char>(b)));
    }
  }
  if (resume) r.seek(*resume);
  if (out_len) *out_len = written;
  return true;
}

// Mirrors decode_rdata. For answer-section A records (`collect` non-null)
// the address is appended; everything else is validated and skipped.
// dnh-analyze: hot
bool scan_rdata(RecordType type, net::ByteReader& r, std::size_t rdlength,
                std::vector<net::Ipv4Address>* collect,
                MessageParseError& error) {
  const std::size_t end = r.position() + rdlength;
  if (end > r.buffer().size()) {
    error = MessageParseError::kTruncated;
    return false;
  }

  auto finish = [&] {
    if (!r.ok() || r.position() > end) {
      error = MessageParseError::kTruncated;
      return false;
    }
    r.seek(end);
    return true;
  };
  auto name_failed = [&](NameParseError e) {
    error = project(e);
    return false;
  };
  NameParseError ne = NameParseError::kNone;

  switch (type) {
    case RecordType::kA: {
      if (rdlength != 4) {
        error = MessageParseError::kTruncated;
        return false;
      }
      const net::Ipv4Address addr = r.read_ipv4();
      if (!finish()) return false;
      if (collect) collect->push_back(addr);
      return true;
    }
    case RecordType::kAaaa: {
      if (rdlength != 16) {
        error = MessageParseError::kTruncated;
        return false;
      }
      r.skip(16);
      return finish();
    }
    case RecordType::kCname:
    case RecordType::kNs:
    case RecordType::kPtr: {
      if (!scan_name(r, ne, nullptr, nullptr)) return name_failed(ne);
      return finish();
    }
    case RecordType::kMx: {
      r.skip(2);  // preference
      if (!scan_name(r, ne, nullptr, nullptr)) return name_failed(ne);
      return finish();
    }
    case RecordType::kSrv: {
      r.skip(6);  // priority, weight, port
      if (!scan_name(r, ne, nullptr, nullptr)) return name_failed(ne);
      return finish();
    }
    case RecordType::kSoa: {
      if (!scan_name(r, ne, nullptr, nullptr)) return name_failed(ne);
      if (!scan_name(r, ne, nullptr, nullptr)) return name_failed(ne);
      r.skip(20);  // serial, refresh, retry, expire, minimum
      return finish();
    }
    case RecordType::kTxt: {
      while (r.ok() && r.position() < end) {
        const std::uint8_t len = r.read_u8();
        if (r.position() + len > end) {
          error = MessageParseError::kTruncated;
          return false;
        }
        r.skip(len);
      }
      return finish();
    }
  }
  // Unknown type: skip the raw bytes.
  r.skip(rdlength);
  if (!r.ok()) {
    error = MessageParseError::kTruncated;
    return false;
  }
  return true;
}

// Mirrors decode_rr. `collect` is non-null only for the answer section.
// dnh-analyze: hot
bool scan_rr(net::ByteReader& r, std::vector<net::Ipv4Address>* collect,
             MessageParseError& error) {
  NameParseError ne = NameParseError::kNone;
  if (!scan_name(r, ne, nullptr, nullptr)) {
    error = project(ne);
    return false;
  }
  const auto type = static_cast<RecordType>(r.read_u16());
  r.skip(2);  // class
  r.skip(4);  // ttl
  const std::uint16_t rdlength = r.read_u16();
  if (!r.ok()) {
    error = MessageParseError::kTruncated;
    return false;
  }
  return scan_rdata(type, r, rdlength, collect, error);
}

}  // namespace

// dnh-analyze: hot
bool scan_response(net::BytesView wire, ResponseScratch& out,
                   MessageParseError& error) {
  error = MessageParseError::kNone;
  out.is_response = false;
  out.name_len = 0;
  out.addresses.clear();

  net::ByteReader r{wire};
  r.skip(2);  // id
  const std::uint16_t flags = r.read_u16();
  const std::uint16_t qd = r.read_u16();
  const std::uint16_t an = r.read_u16();
  const std::uint16_t ns = r.read_u16();
  const std::uint16_t ar = r.read_u16();
  if (!r.ok()) {
    error = MessageParseError::kTruncated;
    return false;
  }
  if (std::size_t{qd} + an + ns + ar > kMaxRecordsPerSection) {
    error = MessageParseError::kCountLie;
    return false;
  }
  out.is_response = (flags & 0x8000) != 0;

  for (std::uint16_t i = 0; i < qd; ++i) {
    NameParseError ne = NameParseError::kNone;
    // Only the first question is the canonical query name; the rest are
    // validated and skipped, as decode stores but the sniffer ignores them.
    char* name_out = i == 0 ? out.name.data() : nullptr;
    std::size_t* len_out = i == 0 ? &out.name_len : nullptr;
    if (!scan_name(r, ne, name_out, len_out)) {
      error = project(ne);
      return false;
    }
    r.skip(2);  // qtype
    r.skip(2);  // qclass
    if (!r.ok()) {
      error = MessageParseError::kTruncated;
      return false;
    }
  }
  const std::uint16_t counts[3] = {an, ns, ar};
  for (int s = 0; s < 3; ++s) {
    std::vector<net::Ipv4Address>* collect = s == 0 ? &out.addresses : nullptr;
    for (std::uint16_t i = 0; i < counts[s]; ++i) {
      if (!scan_rr(r, collect, error)) return false;
    }
  }
  return true;
}

}  // namespace dnh::dns
