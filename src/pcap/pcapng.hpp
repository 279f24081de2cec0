// pcapng (next-generation capture) reader.
//
// Modern tcpdump/wireshark default to this container; supporting it means
// users can feed their captures without converting. Scope: Section Header,
// Interface Description, Enhanced Packet and (legacy) Simple Packet
// blocks, both byte orders, per-interface timestamp resolution. Unknown
// block types are skipped, as the spec requires.
#pragma once

#include <cstdint>
#include <functional>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pcap/pcap.hpp"

namespace dnh::pcap {

/// Streaming reader for a pcapng file; yields the same Frame type as the
/// classic Reader so the sniffer is format-agnostic.
class NgReader {
 public:
  /// Opens `path`; nullopt unless it starts with a valid Section Header
  /// Block.
  static std::optional<NgReader> open(const std::string& path);

  /// Reads the next packet frame in place; the view is valid until the
  /// next read. False at end of stream (check error()).
  bool next(FrameView& out);

  /// Reads the next packet frame into `out`, reusing its buffer; false at
  /// end of stream (check error()).
  bool next(Frame& out);

  const std::string& error() const noexcept { return error_; }
  std::uint64_t frames_read() const noexcept { return frames_read_; }

  /// Link type of the first interface (all we emit/consume is Ethernet).
  std::uint32_t link_type() const noexcept {
    return interfaces_.empty() ? kLinktypeEthernet
                               : interfaces_.front().link_type;
  }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
      if (f) std::fclose(f);
    }
  };
  struct Interface {
    std::uint32_t link_type = kLinktypeEthernet;
    /// Timestamp units per second (default 1e6; set by if_tsresol).
    std::uint64_t ticks_per_second = 1'000'000;
  };

  NgReader() = default;
  bool read_block_header(std::uint32_t& type, std::uint32_t& length);
  bool read_exact(void* buffer, std::size_t n);
  std::uint32_t to_host(std::uint32_t v) const noexcept;
  std::uint16_t to_host(std::uint16_t v) const noexcept;
  void parse_interface_block(const std::vector<std::uint8_t>& body);

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::vector<std::uint8_t> body_;  ///< current block body, reused
  bool swapped_ = false;
  std::vector<Interface> interfaces_;
  std::uint64_t frames_read_ = 0;
  std::string error_;
};

/// Opens `path` as classic pcap or pcapng (sniffed from the magic) and
/// streams frames through `sink`. Returns false on open/parse errors with
/// a message in `error`.
bool read_any_capture(const std::string& path,
                      const std::function<void(const Frame&)>& sink,
                      std::string& error);

struct CaptureReadOptions {
  /// Skip-and-resync over corrupt records instead of aborting. Applies to
  /// classic pcap; pcapng always reads strictly (its per-block redundant
  /// lengths make silent resync unreliable).
  bool resync = false;
  /// Cooperative abort, polled between frames: when set and returning
  /// true the read stops cleanly (no error, report.stopped set). Used by
  /// the pipeline's graceful drain so SIGINT does not have to wait out a
  /// multi-gigabyte capture.
  std::function<bool()> stop;
};

struct CaptureReadReport {
  std::string error;           ///< non-empty when the stream aborted
  std::uint64_t frames = 0;    ///< frames delivered to the sink
  bool stopped = false;        ///< options.stop ended the read early
  CorruptionStats corruption;  ///< damage survived (classic resync mode)
};

/// As above, with degraded-mode control and a detailed report. Returns
/// false when the capture could not be opened or the stream aborted with
/// an error; resynced corruption alone does not fail the read. Copies
/// each frame into one recycled Frame; read_capture_views does not copy.
bool read_any_capture(const std::string& path,
                      const std::function<void(const Frame&)>& sink,
                      const CaptureReadOptions& options,
                      CaptureReadReport& report);

/// The reading loop behind read_any_capture, handing the sink each frame
/// in place. A view is valid until the next frame is read; for a classic
/// capture read with `blocks`, until that source hands its block out
/// again (pcapng has no block path and always reads into one buffer).
bool read_capture_views(const std::string& path,
                        const std::function<void(const FrameView&)>& sink,
                        const CaptureReadOptions& options,
                        CaptureReadReport& report,
                        BlockSource* blocks = nullptr);

}  // namespace dnh::pcap
