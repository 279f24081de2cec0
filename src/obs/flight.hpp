// Always-on flight recorder: fixed-capacity per-thread rings of compact
// binary trace events, recording what happened — in what order, to which
// window — across every pipeline thread (docs/observability.md, "Flight
// recorder & tracing").
//
// The metrics layer (metrics.hpp) answers "how much / how fast"; this
// layer answers "what happened to window W" when a watchdog stall or a
// crash leaves no other history. Recording must therefore be cheap enough
// to leave on unconditionally: one ring slot write per event (four
// relaxed atomic word stores plus a release head bump), no locks, no
// allocation, no branches beyond an enabled check. Each thread owns its
// ring exclusively for writing; dump/excerpt readers tolerate concurrent
// writers by detecting and discarding slots the writer may have lapped.
//
// Every event is 32 bytes: steady timestamp (ns since the recorder
// epoch), a free u64 argument, the window sequence number (the causal
// WindowTraceId stamped at dispatch and carried through seal, spill,
// merge, and emit), and a packed word holding stage, kind, and shard.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace dnh::obs {

/// Which pipeline role recorded the event. Stages mirror the heartbeat
/// board plus the non-heartbeat roles (source reader, CLI, watchdog).
enum class TraceStage : std::uint8_t {
  kCli = 0,    ///< tool/front-end thread (argument handling, dump paths)
  kSource,     ///< capture/flow-source reader
  kDispatch,   ///< dispatcher (frame routing + window rotation)
  kShard,      ///< per-shard sniffer worker
  kSpill,      ///< spill segment writer (runs on the sealing worker)
  kMerge,      ///< merge thread
  kExport,     ///< flow-export datagram reader
  kWatchdog,   ///< supervisor watchdog
};
inline constexpr std::size_t kTraceStageCount = 8;

/// Catalog name ("dispatch", "shard", ...). Stable: dump formats and the
/// docs/observability.md catalog use these strings.
std::string_view trace_stage_name(TraceStage stage) noexcept;

/// Event kinds. Every kind recorded anywhere in the tree must appear in
/// the docs/observability.md trace-event catalog — dnh-analyze's
/// trace-catalog rule enforces the pairing, exactly like metric names.
enum class TraceKind : std::uint8_t {
  kThreadStart = 0,    ///< a recorded thread entered its loop
  kWindowDispatched,   ///< dispatcher broadcast a rotation (window sealed soon)
  kWindowSealed,       ///< a shard canonicalized its slice of the window
  kWindowSpilled,      ///< the sealed slice became durable in a segment
  kWindowJournaled,    ///< merge journaled the seal into the manifest
  kMergeIngested,      ///< merge took a shard window off the inbox
  kWindowEmitted,      ///< merged window delivered to the sink
  kWindowRecovered,    ///< a spilled window was replayed during --resume
  kFrameBatch,         ///< dispatcher progress marker (every ~512 frames/shard)
  kSniffProgress,      ///< sniffer progress marker (every 4096 frames)
  kBackpressureWait,   ///< dispatcher blocked on a full shard ring
  kSourceOpen,         ///< a capture file / export stream was opened
  kSourceDone,         ///< a capture file / export stream was exhausted
  kExportDatagram,     ///< flow-export datagram consumed
  kDrainRequested,     ///< graceful-drain flag observed by the dispatcher
  kStallDeclared,      ///< watchdog declared a pipeline stall
  kStallInjected,      ///< faultinject parked this thread on purpose
  kPipelineFinish,     ///< dispatcher entered the shutdown/merge-join path
};
inline constexpr std::size_t kTraceKindCount = 18;

/// Catalog name ("thread-start", "window-sealed", ...).
std::string_view trace_kind_name(TraceKind kind) noexcept;

/// Shard value for events not tied to any shard.
inline constexpr unsigned kNoShard = 0xff;
/// Window sequence for events not tied to any window.
inline constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

/// Decoded event, as returned by snapshots and dump readers. The in-ring
/// representation is four u64 words; see TraceRing.
struct TraceEvent {
  std::uint64_t ts_ns = 0;  ///< steady ns since the recorder's epoch
  std::uint64_t arg = 0;    ///< kind-specific payload (bytes, counts, ...)
  std::uint64_t seq = kNoSeq;  ///< window sequence (WindowTraceId)
  TraceStage stage = TraceStage::kCli;
  TraceKind kind = TraceKind::kThreadStart;
  unsigned shard = kNoShard;

  /// Packs stage/kind/shard into the ring's fourth word.
  static std::uint64_t pack(TraceStage stage, TraceKind kind,
                            unsigned shard) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::uint8_t>(stage)) |
           (static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) << 8) |
           (static_cast<std::uint64_t>(shard & 0xff) << 16);
  }
  static TraceStage unpack_stage(std::uint64_t word) noexcept {
    return static_cast<TraceStage>(word & 0xff);
  }
  static TraceKind unpack_kind(std::uint64_t word) noexcept {
    return static_cast<TraceKind>((word >> 8) & 0xff);
  }
  static unsigned unpack_shard(std::uint64_t word) noexcept {
    return static_cast<unsigned>((word >> 16) & 0xff);
  }
};

/// One thread's fixed-capacity event ring. Written by exactly one thread;
/// read concurrently by dump/excerpt code.
///
/// Concurrency contract: slots are arrays of relaxed atomics, so a reader
/// racing the writer never tears a word and is race-free under TSan. The
/// writer publishes an event by storing its four words relaxed and then
/// bumping `head` with release; a reader acquires `head`, walks the live
/// range, re-acquires `head`, and discards any slot the writer could have
/// started overwriting in between (index + capacity <= new head). What a
/// reader keeps is therefore always a fully-published, untorn event.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two, minimum 8.
  explicit TraceRing(std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Owner-thread only: records one event. Lock-free, allocation-free.
  /// Seqlock-style write protocol: begin_ is bumped before the slot
  /// stores (ordered by the release fence), head_ after. A reader that
  /// observed any word of the new event is therefore guaranteed to also
  /// observe the begin_ bump and discard the slot as possibly torn.
  void record(std::uint64_t ts_ns, TraceStage stage, TraceKind kind,
              std::uint64_t seq, unsigned shard, std::uint64_t arg) noexcept {
    const std::uint64_t idx = head_.load(std::memory_order_relaxed);
    begin_.store(idx + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    std::atomic<std::uint64_t>* slot = &words_[(idx & mask_) * kWordsPerEvent];
    slot[0].store(ts_ns, std::memory_order_relaxed);
    slot[1].store(arg, std::memory_order_relaxed);
    slot[2].store(seq, std::memory_order_relaxed);
    slot[3].store(TraceEvent::pack(stage, kind, shard),
                  std::memory_order_relaxed);
    head_.store(idx + 1, std::memory_order_release);
  }

  /// Any thread: decodes the currently-live events, oldest first. Safe
  /// against the concurrently-writing owner; lapped slots are dropped.
  std::vector<TraceEvent> snapshot() const;

  std::size_t capacity() const noexcept { return mask_ + 1; }
  /// Total events ever recorded (not the live count).
  std::uint64_t total() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Raw access for the async-signal-safe dump path (traceio.cpp): plain
  /// atomic loads only, no member functions that could allocate.
  const std::atomic<std::uint64_t>* words() const noexcept {
    return words_.get();
  }

  static constexpr std::size_t kWordsPerEvent = 4;
  static constexpr std::size_t kEventBytes = 32;

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  /// Index one past the newest event whose slot stores have *begun*.
  /// head_ <= begin_ always; they differ only while record() is between
  /// its begin_ bump and its head_ bump.
  std::atomic<std::uint64_t> begin_{0};
};

/// One registered thread's decoded trace.
struct ThreadTrace {
  std::uint32_t ring_id = 0;  ///< dense id, assigned at registration
  std::string label;          ///< "dispatch", "shard-3", "merge", ...
  std::uint64_t total = 0;    ///< events ever recorded by this thread
  std::vector<TraceEvent> events;  ///< live window, oldest first
};

/// Process-wide recorder: owns one TraceRing per thread that ever
/// recorded, registered lazily on first event and kept after thread exit
/// so post-mortem dumps still see every thread's history.
class FlightRecorder {
 public:
  /// Default per-thread ring capacity (events). 4096 × 32 B = 128 KiB per
  /// thread — hours of window-lifecycle history at production rotation
  /// rates, minutes of dispatcher progress markers.
  static constexpr std::size_t kDefaultRingCapacity = 4096;
  /// Hard cap on registered threads (fixed table so the fatal-signal dump
  /// can walk it without locks).
  static constexpr std::size_t kMaxRings = 256;

  explicit FlightRecorder(std::size_t ring_capacity = kDefaultRingCapacity);

  /// The process-wide instance (leaked; usable during static teardown).
  static FlightRecorder& global();

  /// Hot path: records one event into the calling thread's ring,
  /// registering the ring on first use. noexcept and allocation-free
  /// after registration; a no-op while disabled or if kMaxRings threads
  /// already registered.
  void record(TraceStage stage, TraceKind kind, std::uint64_t seq = kNoSeq,
              unsigned shard = kNoShard, std::uint64_t arg = 0) noexcept;

  /// Names the calling thread's ring in dumps ("shard-2", "merge", ...).
  /// Registers the ring if needed. Labels longer than 31 bytes truncate.
  void set_thread_label(std::string_view label);

  /// Recording gate (dump paths stay live while disabled). Used by the
  /// traced-vs-untraced bench A/B and by the fatal-signal dump to quiesce
  /// writers.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Steady-clock ns since this recorder's construction epoch.
  std::uint64_t now_ns() const noexcept;

  /// Decodes every registered ring (including rings of exited threads).
  std::vector<ThreadTrace> snapshot() const DNH_EXCLUDES(mu_);

  /// Human-readable "last `per_stage` events per stage" excerpt for
  /// StallDiagnostic / crash reports.
  std::string excerpt(std::size_t per_stage) const DNH_EXCLUDES(mu_);

  /// Lock-free view of one registered ring for the async-signal-safe dump
  /// path. `label` is a NUL-terminated copy taken at raw_rings() time.
  struct RawRing {
    const TraceRing* ring = nullptr;
    char label[32] = {0};
    std::uint32_t ring_id = 0;
  };
  /// Fills `out` with up to `max` raw ring views; returns the count.
  /// Async-signal-safe: atomic loads over an append-only table.
  std::size_t raw_rings(RawRing* out, std::size_t max) const noexcept;

  std::size_t ring_capacity() const noexcept { return ring_capacity_; }

 private:
  struct RingEntry {
    explicit RingEntry(std::size_t capacity) : ring{capacity} {}
    TraceRing ring;
    /// Relaxed atomic bytes: the owner thread stores its label, dump
    /// readers (including the signal path) copy it lock-free mid-write.
    std::atomic<char> label[32] = {};
    std::uint32_t ring_id = 0;
  };

  /// Returns the calling thread's entry, registering it on first use.
  /// nullptr when the table is full.
  RingEntry* entry_for_this_thread() DNH_EXCLUDES(mu_);

  const std::size_t ring_capacity_;
  std::atomic<bool> enabled_{true};
  std::chrono::steady_clock::time_point epoch_;

  mutable util::Mutex mu_;
  // Append-only: entries_[i] transitions nullptr -> valid exactly once
  // (store-release under mu_), and count_ only grows. Readers that load
  // count_ acquire may walk [0, count_) without the mutex — that is what
  // keeps raw_rings() signal-safe. Slots are never freed.
  std::unique_ptr<std::atomic<RingEntry*>[]> entries_;
  std::atomic<std::size_t> count_{0};
};

/// Convenience hot-path entry point: record into the global recorder.
inline void trace_event(TraceStage stage, TraceKind kind,
                        std::uint64_t seq = kNoSeq, unsigned shard = kNoShard,
                        std::uint64_t arg = 0) noexcept {
  FlightRecorder::global().record(stage, kind, seq, shard, arg);
}

}  // namespace dnh::obs
