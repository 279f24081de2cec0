#include "pcap/pcap.hpp"

#include <cstring>

namespace dnh::pcap {
namespace {

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;

std::uint32_t bswap32(std::uint32_t v) noexcept {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

std::uint16_t bswap16(std::uint16_t v) noexcept {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

struct GlobalHeader {
  std::uint32_t magic;
  std::uint16_t version_major;
  std::uint16_t version_minor;
  std::int32_t thiszone;
  std::uint32_t sigfigs;
  std::uint32_t snaplen;
  std::uint32_t network;
};
static_assert(sizeof(GlobalHeader) == 24);

struct RecordHeader {
  std::uint32_t ts_sec;
  std::uint32_t ts_frac;
  std::uint32_t incl_len;
  std::uint32_t orig_len;
};
static_assert(sizeof(RecordHeader) == 16);

static_assert(kReadBlockBytes >= sizeof(RecordHeader) + kMaxRecordBytes,
              "a read block must hold any whole record");

/// Resync scans accept a candidate only if its timestamp lands within this
/// window of the last good record — random garbage almost never does.
constexpr std::uint32_t kResyncTsWindowSeconds = 366 * 86400;

}  // namespace

std::optional<Reader> Reader::open(const std::string& path, Mode mode,
                                   BlockSource* blocks) {
  std::FILE* raw = std::fopen(path.c_str(), "rb");
  if (!raw) return std::nullopt;
  Reader reader;
  reader.file_.reset(raw);
  reader.mode_ = mode;

  GlobalHeader gh{};
  if (std::fread(&gh, sizeof gh, 1, raw) != 1) return std::nullopt;

  switch (gh.magic) {
    case kMagicMicros:
      break;
    case kMagicNanos:
      reader.nanos_ = true;
      break;
    case 0xd4c3b2a1:  // swapped micros
      reader.swapped_ = true;
      break;
    case 0x4d3cb2a1:  // swapped nanos
      reader.swapped_ = true;
      reader.nanos_ = true;
      break;
    default:
      return std::nullopt;
  }
  const std::uint16_t major =
      reader.swapped_ ? bswap16(gh.version_major) : gh.version_major;
  if (major != 2) return std::nullopt;
  reader.snaplen_ = reader.swapped_ ? bswap32(gh.snaplen) : gh.snaplen;
  reader.link_type_ = reader.swapped_ ? bswap32(gh.network) : gh.network;
  reader.block_ = decltype(reader.block_){nullptr, BlockReturn{blocks}};
  if (!blocks)
    reader.block_.reset(
        std::make_unique_for_overwrite<unsigned char[]>(kReadBlockBytes)
            .release());
  reader.block_offset_ = static_cast<long>(sizeof gh);
  return reader;
}

bool Reader::plausible_header(std::uint32_t ts_sec, std::uint32_t ts_frac,
                              std::uint32_t incl_len, std::uint32_t orig_len,
                              bool have_ref,
                              std::uint32_t ref_sec) const noexcept {
  if (incl_len == 0 || incl_len > kMaxRecordBytes) return false;
  if (orig_len < incl_len || orig_len > kMaxRecordBytes) return false;
  if (ts_frac >= (nanos_ ? 1'000'000'000u : 1'000'000u)) return false;
  if (have_ref) {
    const std::uint32_t lo = ref_sec > kResyncTsWindowSeconds
                                 ? ref_sec - kResyncTsWindowSeconds
                                 : 0;
    if (ts_sec < lo || ts_sec > ref_sec + kResyncTsWindowSeconds)
      return false;
  }
  return true;
}

bool Reader::plausible_candidate(std::uint32_t ts_sec, std::uint32_t ts_frac,
                                 std::uint32_t incl_len,
                                 std::uint32_t orig_len) const noexcept {
  return plausible_header(ts_sec, ts_frac, incl_len, orig_len,
                          have_last_ts_, last_ts_sec_);
}

bool Reader::chain_ok(long found, std::uint32_t ts_sec,
                      std::uint32_t incl_len, long file_size) {
  // A lone plausible header inside packet bytes is still possible (e.g.
  // small integers lining up as lengths); demand that the record it
  // describes ends exactly at EOF or at another plausible header.
  const long body_end =
      found + static_cast<long>(sizeof(RecordHeader)) +
      static_cast<long>(incl_len);
  if (body_end > file_size) return false;   // claimed body overruns EOF
  if (body_end == file_size) return true;   // perfect final record
  if (body_end + static_cast<long>(sizeof(RecordHeader)) > file_size)
    return false;  // would leave a partial trailing header: not credible
  RecordHeader next{};
  std::fseek(file_.get(), body_end, SEEK_SET);
  if (std::fread(&next, 1, sizeof next, file_.get()) != sizeof next)
    return false;
  if (swapped_) {
    next.ts_sec = bswap32(next.ts_sec);
    next.ts_frac = bswap32(next.ts_frac);
    next.incl_len = bswap32(next.incl_len);
    next.orig_len = bswap32(next.orig_len);
  }
  return plausible_header(next.ts_sec, next.ts_frac, next.incl_len,
                          next.orig_len, true, ts_sec);
}

bool Reader::try_resync(long record_start) {
  // Scan forward, one byte at a time, for the next plausible record
  // header. Overlapping 64 KiB chunks keep this O(n) over the damage.
  //
  // A candidate is *verified* when its record is followed by EOF or by
  // another plausible header (chain_ok); that kills byte-alignment false
  // positives. But a genuine record whose successor is itself damaged
  // fails that check, so the first plausible-but-unverified candidate is
  // kept as a fallback: it wins over a later verified candidate provided
  // its claimed body does not overlap it (an overlapping claim is the
  // signature of a false positive straddling the real header).
  constexpr std::size_t kChunk = 64 * 1024;
  std::vector<unsigned char> buf(kChunk + sizeof(RecordHeader));
  std::fseek(file_.get(), 0, SEEK_END);
  const long file_size = std::ftell(file_.get());
  long fallback = -1, fallback_end = -1;
  const auto accept = [&](long at) {
    corruption_.bytes_skipped +=
        static_cast<std::uint64_t>(at - record_start);
    ++corruption_.resyncs;
    std::fseek(file_.get(), at, SEEK_SET);
    return true;
  };
  long scan_pos = record_start + 1;
  while (true) {
    std::fseek(file_.get(), scan_pos, SEEK_SET);
    const std::size_t got =
        std::fread(buf.data(), 1, buf.size(), file_.get());
    if (got >= sizeof(RecordHeader)) {
      for (std::size_t i = 0; i + sizeof(RecordHeader) <= got; ++i) {
        RecordHeader cand{};
        std::memcpy(&cand, buf.data() + i, sizeof cand);
        if (swapped_) {
          cand.ts_sec = bswap32(cand.ts_sec);
          cand.ts_frac = bswap32(cand.ts_frac);
          cand.incl_len = bswap32(cand.incl_len);
          cand.orig_len = bswap32(cand.orig_len);
        }
        if (!plausible_candidate(cand.ts_sec, cand.ts_frac, cand.incl_len,
                                 cand.orig_len))
          continue;
        const long found = scan_pos + static_cast<long>(i);
        const long body_end =
            found + static_cast<long>(sizeof(RecordHeader)) +
            static_cast<long>(cand.incl_len);
        if (chain_ok(found, cand.ts_sec, cand.incl_len, file_size)) {
          if (fallback >= 0 && fallback_end <= found)
            return accept(fallback);
          return accept(found);
        }
        if (fallback < 0 && body_end <= file_size) {
          fallback = found;
          fallback_end = body_end;
        }
      }
    }
    if (got < buf.size()) break;  // reached EOF without a candidate
    scan_pos += static_cast<long>(got - (sizeof(RecordHeader) - 1));
  }
  if (fallback >= 0) return accept(fallback);
  // Nothing recoverable remains: account the tail as skipped and stop.
  corruption_.bytes_skipped +=
      static_cast<std::uint64_t>(file_size - record_start);
  std::fseek(file_.get(), 0, SEEK_END);
  ++corruption_.truncated_tail;
  return false;
}

bool Reader::fill(std::size_t n) {
  if (end_ - pos_ >= n) return true;
  if (!block_ || pos_ + n > kReadBlockBytes) {
    // Too little room behind pos_: carry the unread tail (a partial
    // record) to the front of a block. With a source that is a fresh
    // block, so views into the old one stay intact; without one the tail
    // moves down inside the only block.
    const std::size_t tail = end_ - pos_;
    BlockSource* source = block_.get_deleter().source;
    if (source) {
      decltype(block_) fresh{source->acquire(), BlockReturn{source}};
      if (tail != 0) std::memcpy(fresh.get(), block_.get() + pos_, tail);
      block_ = std::move(fresh);  // releases the old block
    } else {
      std::memmove(block_.get(), block_.get() + pos_, tail);
    }
    block_offset_ += static_cast<long>(pos_);
    end_ = tail;
    pos_ = 0;
  }
  // Top the block up with one fread; a short read means the file ended.
  while (end_ - pos_ < n) {
    const std::size_t got = std::fread(block_.get() + end_, 1,
                                       kReadBlockBytes - end_, file_.get());
    if (got == 0) return false;
    end_ += got;
  }
  return true;
}

// dnh-analyze: hot
bool Reader::next(FrameView& out) {
  if (!file_ || !error_.empty()) return false;

  while (true) {
    if (!fill(sizeof(RecordHeader))) {
      const std::size_t got = end_ - pos_;
      pos_ = end_;
      if (got == 0) return false;  // clean EOF
      if (mode_ == Mode::kResync) {
        corruption_.bytes_skipped += got;
        ++corruption_.truncated_tail;
        return false;
      }
      error_ = "truncated record header";
      return false;
    }
    RecordHeader rh{};
    std::memcpy(&rh, block_.get() + pos_, sizeof rh);
    if (swapped_) {
      rh.ts_sec = bswap32(rh.ts_sec);
      rh.ts_frac = bswap32(rh.ts_frac);
      rh.incl_len = bswap32(rh.incl_len);
      rh.orig_len = bswap32(rh.orig_len);
    }
    // Sanity bound: a record longer than any plausible snaplen means a
    // corrupt stream; never allocate gigabytes. Resync mode applies the
    // full candidate test so length/timestamp lies are caught here too.
    const bool bad_header =
        mode_ == Mode::kResync
            ? !plausible_candidate(rh.ts_sec, rh.ts_frac, rh.incl_len,
                                   rh.orig_len) &&
                  rh.incl_len != 0  // empty records are legal, if odd
            : rh.incl_len > kMaxRecordBytes;
    if (bad_header) {
      if (mode_ == Mode::kResync) {
        // The scan works on the file, not the block: put the file at the
        // record's logical start, drop the block, and refill from
        // wherever the scan lands. A pooled block goes back to its source
        // (views into it may still be alive) and the refill takes a
        // fresh one.
        const long record_start = block_offset_ + static_cast<long>(pos_);
        std::fseek(file_.get(), record_start, SEEK_SET);
        pos_ = end_ = 0;
        if (block_.get_deleter().source) block_.reset();
        const bool found = try_resync(record_start);
        block_offset_ = std::ftell(file_.get());
        if (found) continue;
        return false;
      }
      error_ = "implausible record length";
      return false;
    }

    const std::size_t record = sizeof rh + rh.incl_len;
    if (!fill(record)) {
      const std::size_t got = end_ - pos_;
      pos_ = end_;
      if (mode_ == Mode::kResync) {
        // The file ends inside this record: unrecoverable tail.
        corruption_.bytes_skipped += got;
        ++corruption_.truncated_tail;
        return false;
      }
      error_ = "truncated record body";
      return false;
    }
    out.data = net::BytesView{block_.get() + pos_ + sizeof rh, rh.incl_len};
    pos_ += record;
    const std::int64_t us =
        static_cast<std::int64_t>(rh.ts_sec) * 1'000'000 +
        (nanos_ ? rh.ts_frac / 1000 : rh.ts_frac);
    out.timestamp = util::Timestamp::from_micros(us);
    out.original_length = rh.orig_len;
    have_last_ts_ = true;
    last_ts_sec_ = rh.ts_sec;
    ++frames_read_;
    return true;
  }
}

bool Reader::next(Frame& out) {
  FrameView view;
  if (!next(view)) return false;
  out.assign(view);
  return true;
}

std::optional<Writer> Writer::create(const std::string& path,
                                     std::uint32_t snaplen,
                                     std::uint32_t link_type) {
  std::FILE* raw = std::fopen(path.c_str(), "wb");
  if (!raw) return std::nullopt;
  Writer writer;
  writer.file_.reset(raw);

  const GlobalHeader gh{kMagicMicros, 2, 4, 0, 0, snaplen, link_type};
  if (std::fwrite(&gh, sizeof gh, 1, raw) != 1) return std::nullopt;
  return writer;
}

void Writer::write(const Frame& frame) {
  if (!file_) return;
  const std::int64_t us = frame.timestamp.micros_since_epoch();
  RecordHeader rh{};
  rh.ts_sec = static_cast<std::uint32_t>(us / 1'000'000);
  rh.ts_frac = static_cast<std::uint32_t>(us % 1'000'000);
  rh.incl_len = static_cast<std::uint32_t>(frame.data.size());
  rh.orig_len = frame.original_length != 0
                    ? frame.original_length
                    : static_cast<std::uint32_t>(frame.data.size());
  std::fwrite(&rh, sizeof rh, 1, file_.get());
  if (!frame.data.empty())
    std::fwrite(frame.data.data(), 1, frame.data.size(), file_.get());
  ++frames_written_;
}

void Writer::flush() {
  if (file_) std::fflush(file_.get());
}

}  // namespace dnh::pcap
