#include "pcap/pcapng.hpp"

#include <cstring>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dnh::pcap {
namespace {

constexpr std::uint32_t kSectionHeaderBlock = 0x0a0d0d0a;
constexpr std::uint32_t kInterfaceBlock = 0x00000001;
constexpr std::uint32_t kSimplePacketBlock = 0x00000003;
constexpr std::uint32_t kEnhancedPacketBlock = 0x00000006;
constexpr std::uint32_t kByteOrderMagic = 0x1a2b3c4d;
constexpr std::uint32_t kMaxBlockLength = 16 * 1024 * 1024;

std::uint32_t bswap32(std::uint32_t v) noexcept {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

std::uint16_t bswap16(std::uint16_t v) noexcept {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

}  // namespace

std::uint32_t NgReader::to_host(std::uint32_t v) const noexcept {
  return swapped_ ? bswap32(v) : v;
}

std::uint16_t NgReader::to_host(std::uint16_t v) const noexcept {
  return swapped_ ? bswap16(v) : v;
}

bool NgReader::read_exact(void* buffer, std::size_t n) {
  return std::fread(buffer, 1, n, file_.get()) == n;
}

std::optional<NgReader> NgReader::open(const std::string& path) {
  std::FILE* raw = std::fopen(path.c_str(), "rb");
  if (!raw) return std::nullopt;
  NgReader reader;
  reader.file_.reset(raw);

  std::uint32_t type = 0, total_length = 0, magic = 0;
  if (!reader.read_exact(&type, 4) || type != kSectionHeaderBlock)
    return std::nullopt;
  if (!reader.read_exact(&total_length, 4) || !reader.read_exact(&magic, 4))
    return std::nullopt;
  if (magic == kByteOrderMagic) {
    reader.swapped_ = false;
  } else if (bswap32(magic) == kByteOrderMagic) {
    reader.swapped_ = true;
  } else {
    return std::nullopt;
  }
  // Skip the rest of the SHB: version (4) + section length (8) + options.
  const std::uint32_t length = reader.to_host(total_length);
  if (length < 28 || length > kMaxBlockLength || length % 4 != 0)
    return std::nullopt;
  std::fseek(raw, static_cast<long>(length - 12), SEEK_CUR);
  return reader;
}

void NgReader::parse_interface_block(const std::vector<std::uint8_t>& body) {
  Interface iface;
  if (body.size() >= 2) {
    std::uint16_t link = 0;
    std::memcpy(&link, body.data(), 2);
    iface.link_type = to_host(link);
  }
  // Walk options for if_tsresol (code 9, 1 byte).
  std::size_t pos = 8;  // linktype(2) + reserved(2) + snaplen(4)
  while (pos + 4 <= body.size()) {
    std::uint16_t code = 0, opt_len = 0;
    std::memcpy(&code, body.data() + pos, 2);
    std::memcpy(&opt_len, body.data() + pos + 2, 2);
    code = to_host(code);
    opt_len = to_host(opt_len);
    pos += 4;
    if (code == 0) break;  // opt_endofopt
    if (pos + opt_len > body.size()) break;
    if (code == 9 && opt_len >= 1) {
      const std::uint8_t resol = body[pos];
      if (resol & 0x80) {
        iface.ticks_per_second = 1ull << (resol & 0x7f);
      } else {
        iface.ticks_per_second = 1;
        for (int i = 0; i < (resol & 0x7f); ++i)
          iface.ticks_per_second *= 10;
      }
    }
    pos += (opt_len + 3u) & ~3u;  // options are padded to 32 bits
  }
  if (iface.ticks_per_second == 0) iface.ticks_per_second = 1'000'000;
  interfaces_.push_back(iface);
}

bool NgReader::next(FrameView& out) {
  if (!file_ || !error_.empty()) return false;
  while (true) {
    std::uint32_t raw_type = 0, raw_length = 0;
    const std::size_t got = std::fread(&raw_type, 1, 4, file_.get());
    if (got == 0) return false;  // clean EOF
    if (got != 4 || !read_exact(&raw_length, 4)) {
      error_ = "truncated block header";
      return false;
    }
    const std::uint32_t type = to_host(raw_type);
    const std::uint32_t total_length = to_host(raw_length);
    if (total_length < 12 || total_length > kMaxBlockLength ||
        total_length % 4 != 0) {
      error_ = "implausible block length";
      return false;
    }
    body_.resize(total_length - 12);
    const std::vector<std::uint8_t>& body = body_;
    if (!read_exact(body_.data(), body_.size())) {
      error_ = "truncated block body";
      return false;
    }
    std::uint32_t trailer = 0;
    if (!read_exact(&trailer, 4) || to_host(trailer) != total_length) {
      error_ = "block trailer mismatch";
      return false;
    }

    if (type == kInterfaceBlock) {
      parse_interface_block(body);
      continue;
    }
    if (type == kEnhancedPacketBlock) {
      if (body.size() < 20) {
        error_ = "short enhanced packet block";
        return false;
      }
      std::uint32_t iface_id, ts_high, ts_low, captured, original;
      std::memcpy(&iface_id, body.data(), 4);
      std::memcpy(&ts_high, body.data() + 4, 4);
      std::memcpy(&ts_low, body.data() + 8, 4);
      std::memcpy(&captured, body.data() + 12, 4);
      std::memcpy(&original, body.data() + 16, 4);
      iface_id = to_host(iface_id);
      captured = to_host(captured);
      if (20 + captured > body.size()) {
        error_ = "enhanced packet data exceeds block";
        return false;
      }
      const std::uint64_t ticks =
          (std::uint64_t{to_host(ts_high)} << 32) | to_host(ts_low);
      const std::uint64_t ticks_per_second =
          iface_id < interfaces_.size()
              ? interfaces_[iface_id].ticks_per_second
              : 1'000'000;
      out.timestamp = util::Timestamp::from_micros(static_cast<std::int64_t>(
          ticks * 1'000'000 / ticks_per_second));
      out.original_length = to_host(original);
      out.data = net::BytesView{body.data() + 20, captured};
      ++frames_read_;
      return true;
    }
    if (type == kSimplePacketBlock) {
      if (body.size() < 4) {
        error_ = "short simple packet block";
        return false;
      }
      std::uint32_t original = 0;
      std::memcpy(&original, body.data(), 4);
      out.timestamp = util::Timestamp{};
      out.original_length = to_host(original);
      out.data = net::BytesView{body.data() + 4, body.size() - 4};
      ++frames_read_;
      return true;
    }
    // Unknown/unsupported block (NRB, ISB, custom, new SHB): skip.
  }
}

bool NgReader::next(Frame& out) {
  FrameView view;
  if (!next(view)) return false;
  out.assign(view);
  return true;
}

bool read_any_capture(const std::string& path,
                      const std::function<void(const Frame&)>& sink,
                      std::string& error) {
  CaptureReadReport report;
  const bool ok = read_any_capture(path, sink, CaptureReadOptions{}, report);
  error = std::move(report.error);
  return ok;
}

namespace {

// Capture-read instrumentation (docs/observability.md). Handles resolve
// once per process; the per-frame cost is two thread-local relaxed
// increments plus a 1-in-64 sampled read-latency span.
struct ReadMetrics {
  obs::Counter frames =
      obs::Registry::global().counter("dnh_pcap_frames_total");
  obs::Counter bytes =
      obs::Registry::global().counter("dnh_pcap_bytes_total");
  obs::Counter resyncs =
      obs::Registry::global().counter("dnh_pcap_resyncs_total");
  obs::Counter bytes_skipped =
      obs::Registry::global().counter("dnh_pcap_bytes_skipped_total");
  obs::Counter truncated_tails =
      obs::Registry::global().counter("dnh_pcap_truncated_tails_total");
  obs::Histogram read_ns =
      obs::Registry::global().histogram("dnh_stage_pcap_read_ns");
};

ReadMetrics& read_metrics() {
  static ReadMetrics metrics;
  return metrics;
}

}  // namespace

bool read_capture_views(const std::string& path,
                        const std::function<void(const FrameView&)>& sink,
                        const CaptureReadOptions& options,
                        CaptureReadReport& report, BlockSource* blocks) {
  ReadMetrics& metrics = read_metrics();
  obs::SampleGate gate{64};
  FrameView frame;
  const auto pump = [&](auto& reader) {
    while (true) {
      if (options.stop && options.stop()) {
        report.stopped = true;
        break;
      }
      bool got;
      {
        obs::SpanTimer span{metrics.read_ns, gate};
        got = reader.next(frame);
      }
      if (!got) break;
      metrics.frames.inc();
      metrics.bytes.add(frame.data.size());
      sink(frame);
      ++report.frames;
    }
    report.error = reader.error();
  };
  const auto mode =
      options.resync ? Reader::Mode::kResync : Reader::Mode::kStrict;
  if (auto classic = Reader::open(path, mode, blocks)) {
    pump(*classic);
    report.corruption = classic->corruption();
    metrics.resyncs.add(report.corruption.resyncs);
    metrics.bytes_skipped.add(report.corruption.bytes_skipped);
    metrics.truncated_tails.add(report.corruption.truncated_tail);
    return report.error.empty();
  }
  if (auto ng = NgReader::open(path)) {
    pump(*ng);
    return report.error.empty();
  }
  report.error = "not a pcap or pcapng capture: " + path;
  return false;
}

bool read_any_capture(const std::string& path,
                      const std::function<void(const Frame&)>& sink,
                      const CaptureReadOptions& options,
                      CaptureReadReport& report) {
  // One Frame for the whole stream: its buffer is recycled, so
  // steady-state reading allocates nothing.
  Frame frame;
  return read_capture_views(
      path,
      [&](const FrameView& view) {
        frame.assign(view);
        sink(frame);
      },
      options, report);
}

}  // namespace dnh::pcap
