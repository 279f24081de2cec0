// Classic libpcap savefile codec (no external pcap dependency).
//
// Supports microsecond (0xa1b2c3d4) and nanosecond (0xa1b23c4d) magic in
// both byte orders, link type EN10MB. This is the capture substrate: the
// trace generator writes real .pcap files and the sniffer re-reads them,
// exercising the identical code path a live deployment would.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "net/bytes.hpp"
#include "util/time.hpp"

namespace dnh::pcap {

/// Link-layer header type; we only emit/consume Ethernet.
inline constexpr std::uint32_t kLinktypeEthernet = 1;

/// Hard cap on a record body; anything larger is corruption, not capture.
inline constexpr std::uint32_t kMaxRecordBytes = 256 * 1024;

/// Read-block size of the classic Reader. It holds any whole record, so a
/// block never has to grow.
inline constexpr std::size_t kReadBlockBytes = 1 << 20;

/// A frame read in place: `data` points into the reader's read block.
/// Without a BlockSource the view is valid until the next read; with one,
/// until the source hands the block out again.
struct FrameView {
  util::Timestamp timestamp;
  std::uint32_t original_length = 0;  ///< wire length (>= data.size())
  net::BytesView data;                ///< captured bytes, in the read block
};

/// One captured frame: capture timestamp plus the raw link-layer bytes.
/// Readers fill a caller-owned Frame, so a stream that reuses one Frame
/// recycles its buffer capacity instead of allocating per record.
struct Frame {
  util::Timestamp timestamp;
  std::uint32_t original_length = 0;  ///< wire length (>= data.size())
  net::Bytes data;                    ///< captured bytes

  /// Copies `view` in, reusing this frame's buffer.
  void assign(const FrameView& view) {
    timestamp = view.timestamp;
    original_length = view.original_length;
    data.assign(view.data.begin(), view.data.end());
  }
};

/// Supplies a Reader's kReadBlockBytes read blocks, so frame views can
/// outlive the next read (the sharded dispatcher hands them to worker
/// threads). The reader acquires a block whenever it needs fresh space
/// and releases each block it has moved past — and its last one when it
/// is destroyed. Views into a released block must stay readable until
/// they are dead; tracking that is the source's job.
class BlockSource {
 public:
  /// A kReadBlockBytes block the reader may fill.
  virtual unsigned char* acquire() = 0;
  /// Hands back a block from acquire(); the reader never touches it again.
  virtual void release(unsigned char* block) = 0;

 protected:
  ~BlockSource() = default;  ///< readers never own their source
};

/// Damage encountered (and survived) while reading a corrupt savefile in
/// resync mode. `events()` is the number of discrete corruption incidents,
/// comparable against a fault injector's report.
struct CorruptionStats {
  std::uint64_t resyncs = 0;         ///< scans that found a next record
  std::uint64_t bytes_skipped = 0;   ///< bytes discarded by scans
  std::uint64_t truncated_tail = 0;  ///< unrecoverable truncated file tail

  std::uint64_t events() const noexcept { return resyncs + truncated_tail; }
};

/// Streaming reader for a pcap savefile.
///
/// Fails fast on a bad global header. Per-record behaviour depends on the
/// mode:
///  - kStrict (default): any malformed record terminates the stream with a
///    message in `error()` — EOF and corruption stay distinguishable.
///  - kResync: a malformed record header triggers a forward scan for the
///    next plausible record header (bounded lengths, sane sub-second
///    field, timestamp near the last good record). Damage is tallied in
///    `corruption()` and reading continues; `error()` stays empty. This is
///    the degraded mode a months-long deployment runs in: one bad ring
///    page must not kill the capture.
///
/// The savefile is read in kReadBlockBytes blocks, one fread per block,
/// and records are parsed in place. A record that straddles a block
/// boundary is carried to the front of the next block: a fresh one from
/// the BlockSource when there is one (views into the old block stay
/// intact), otherwise the same block.
class Reader {
 public:
  enum class Mode { kStrict, kResync };

  /// Opens `path`; returns nullopt if the file is missing or the global
  /// header is not a recognizable pcap header. With `blocks` set, read
  /// blocks come from (and go back to) that source, which must outlive
  /// the reader; otherwise the reader owns one block.
  static std::optional<Reader> open(const std::string& path,
                                    Mode mode = Mode::kStrict,
                                    BlockSource* blocks = nullptr);

  /// Reads the next frame in place; false at end of stream (or on error),
  /// with `out` unspecified. No copy: see FrameView for how long the
  /// bytes stay valid.
  bool next(FrameView& out);

  /// Reads the next frame into `out`, reusing its buffer; false at end of
  /// stream (or on error), with `out` unspecified.
  bool next(Frame& out);

  /// Non-empty if the stream ended due to corruption rather than EOF
  /// (strict mode only; resync mode reports through `corruption()`).
  const std::string& error() const noexcept { return error_; }

  /// Damage survived so far (resync mode; all-zero in strict mode).
  const CorruptionStats& corruption() const noexcept { return corruption_; }

  std::uint32_t link_type() const noexcept { return link_type_; }
  std::uint64_t frames_read() const noexcept { return frames_read_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
      if (f) std::fclose(f);
    }
  };
  Reader() = default;

  bool plausible_header(std::uint32_t ts_sec, std::uint32_t ts_frac,
                        std::uint32_t incl_len, std::uint32_t orig_len,
                        bool have_ref, std::uint32_t ref_sec) const noexcept;
  bool plausible_candidate(std::uint32_t ts_sec, std::uint32_t ts_frac,
                           std::uint32_t incl_len,
                           std::uint32_t orig_len) const noexcept;
  bool chain_ok(long found, std::uint32_t ts_sec, std::uint32_t incl_len,
                long file_size);
  bool try_resync(long record_start);
  /// Makes at least `n` unread bytes available in the block, refilling
  /// from the file; false when the file ends first.
  bool fill(std::size_t n);

  /// Gives a block back to its source, or frees the reader's own block.
  /// (No default member initializer: value-initialization nulls `source`,
  /// and the initializer would keep unique_ptr from default-constructing
  /// it inside the still-incomplete Reader.)
  struct BlockReturn {
    BlockSource* source;
    void operator()(unsigned char* block) const noexcept {
      if (source)
        source->release(block);
      else
        delete[] block;
    }
  };

  std::unique_ptr<std::FILE, FileCloser> file_;
  /// kReadBlockBytes, allocated but not zero-filled: pages are touched
  /// only as reads fill them. Null until the first fill with a source.
  std::unique_ptr<unsigned char[], BlockReturn> block_;
  std::size_t pos_ = 0;     ///< next unread byte in block_
  std::size_t end_ = 0;     ///< one past the last valid byte in block_
  long block_offset_ = 0;   ///< file offset of block_[0]
  Mode mode_ = Mode::kStrict;
  bool swapped_ = false;
  bool nanos_ = false;
  std::uint32_t snaplen_ = 0;
  std::uint32_t link_type_ = 0;
  std::uint64_t frames_read_ = 0;
  bool have_last_ts_ = false;
  std::uint32_t last_ts_sec_ = 0;
  CorruptionStats corruption_;
  std::string error_;
};

/// Streaming writer producing a microsecond-magic, native-order pcap file.
class Writer {
 public:
  /// Creates/truncates `path` and writes the global header; nullopt if the
  /// file cannot be created.
  static std::optional<Writer> create(const std::string& path,
                                      std::uint32_t snaplen = 65535,
                                      std::uint32_t link_type = kLinktypeEthernet);

  /// Appends one frame. Frames must be passed in non-decreasing timestamp
  /// order by convention (not enforced; readers tolerate disorder).
  void write(const Frame& frame);

  std::uint64_t frames_written() const noexcept { return frames_written_; }

  /// Flushes buffered output (also happens on destruction).
  void flush();

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
      if (f) std::fclose(f);
    }
  };
  Writer() = default;

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::uint64_t frames_written_ = 0;
};

}  // namespace dnh::pcap
