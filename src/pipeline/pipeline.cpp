#include "pipeline/pipeline.hpp"

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <thread>
#include <array>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <tuple>
#include <type_traits>
#include <utility>

#include "dns/message.hpp"
#include "flow/table.hpp"
#include "obs/flight.hpp"
#include "packet/decode.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/spsc_ring.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define DNH_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DNH_ASAN 1
#endif
#endif
#ifdef DNH_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace dnh::pipeline {

namespace {

// Ring batch sizes: how many frames move per acquire/release pair on the
// produce (dispatcher staging) and consume (worker drain) sides. Small
// enough that a batch adds negligible latency at line rate, large enough
// to amortize the cross-core cache-line bounce.
constexpr std::size_t kDispatchBatch = 8;
constexpr std::size_t kConsumeBatch = 8;

// Fibonacci-based avalanche (splitmix64 finalizer): adjacent client
// addresses — the common case in access networks, where one /24 holds the
// whole customer base — must not land on the same shard.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Producer-side wait ladder: burn a few iterations (the consumer is
// usually a cache miss away), then yield, then sleep so a stalled peer on
// an oversubscribed machine does not starve it of the CPU it needs to
// make the very progress we are waiting for.
void backoff(unsigned& spins) {
  ++spins;
  if (spins < 16) return;
  if (spins < 64) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

// Best-effort shard pinning (PipelineConfig::pin_shards): affine the
// calling worker to one CPU so its flat hash tables and Clist stay warm
// in a single core's cache. CPU 0 is left to the dispatcher/merge/OS;
// shard i takes (i+1) mod hw_threads. Every failure mode — non-Linux,
// single-core box, cpuset-restricted container — degrades to a silent
// no-op: pinning is a locality hint and must never affect correctness.
void pin_to_cpu(std::size_t shard) {
#ifdef __linux__
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>((shard + 1) % hw), &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
#else
  (void)shard;
#endif
}

void accumulate(core::DegradationStats& into,
                const core::DegradationStats& from) {
  into.frames_truncated += from.frames_truncated;
  into.bad_ip_headers += from.bad_ip_headers;
  into.bad_l4_headers += from.bad_l4_headers;
  into.unsupported_frames += from.unsupported_frames;
  into.timestamp_regressions += from.timestamp_regressions;
  into.dns_truncated += from.dns_truncated;
  into.dns_pointer_loops += from.dns_pointer_loops;
  into.dns_pointer_out_of_range += from.dns_pointer_out_of_range;
  into.dns_bad_names += from.dns_bad_names;
  into.dns_count_lies += from.dns_count_lies;
  into.tcp_dns_overflows += from.tcp_dns_overflows;
  into.tcp_dns_buffer_evictions += from.tcp_dns_buffer_evictions;
  into.dns_log_evictions += from.dns_log_evictions;
  into.capture_resyncs += from.capture_resyncs;
  into.capture_bytes_skipped += from.capture_bytes_skipped;
  into.capture_truncated_tails += from.capture_truncated_tails;
  into.pipeline_frames_dropped += from.pipeline_frames_dropped;
}

void accumulate(core::SnifferStats& into, const core::SnifferStats& from) {
  into.frames += from.frames;
  into.decode_failures += from.decode_failures;
  into.dns_responses += from.dns_responses;
  into.dns_parse_failures += from.dns_parse_failures;
  into.dns_queries += from.dns_queries;
  into.dns_tcp_messages += from.dns_tcp_messages;
  into.flows_exported += from.flows_exported;
  into.flows_tagged_at_start += from.flows_tagged_at_start;
  into.flows_tagged_at_export += from.flows_tagged_at_export;
  into.export_records += from.export_records;
  accumulate(into.degradation, from.degradation);
}

util::Duration steady_elapsed(std::chrono::steady_clock::time_point from,
                              std::chrono::steady_clock::time_point to) {
  return util::Duration::micros(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

// Pipeline-stage instrumentation (docs/observability.md). Counters are
// process-wide sums over every ShardedAnalyzer instance; per-shard depth
// gauges live on the instance because they carry {shard=N} labels.
struct PipelineMetrics {
  obs::Registry& r = obs::Registry::global();
  obs::Counter frames_dispatched =
      r.counter("dnh_pipeline_frames_dispatched_total");
  obs::Counter records_dispatched =
      r.counter("dnh_pipeline_records_dispatched_total");
  obs::Counter frames_dropped = r.counter("dnh_pipeline_frames_dropped_total");
  obs::Counter blocked_pushes = r.counter("dnh_pipeline_blocked_pushes_total");
  obs::Counter windows_merged = r.counter("dnh_pipeline_windows_merged_total");
  obs::Counter spill_records = r.counter("dnh_spill_records_total");
  obs::Counter stalls = r.counter("dnh_pipeline_stalls_total");
  obs::Histogram dispatch_ns = r.histogram("dnh_stage_dispatch_ns");
  obs::Histogram sniff_ns = r.histogram("dnh_stage_shard_sniff_ns");
  obs::Histogram merge_ns = r.histogram("dnh_stage_merge_ns");
  obs::Histogram depth_samples =
      r.histogram("dnh_shard_queue_depth_samples");
};

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics metrics;
  return metrics;
}

std::string shard_label(std::string_view base, std::size_t shard) {
  return std::string{base} + "{shard=" + std::to_string(shard) + "}";
}

// Under AddressSanitizer a frame block on the pool's free list is
// poisoned, so a view that outlived its block is reported, not silently
// read.
void poison_block([[maybe_unused]] unsigned char* bytes) {
#ifdef DNH_ASAN
  ASAN_POISON_MEMORY_REGION(bytes, pcap::kReadBlockBytes);
#endif
}

void unpoison_block([[maybe_unused]] unsigned char* bytes) {
#ifdef DNH_ASAN
  ASAN_UNPOISON_MEMORY_REGION(bytes, pcap::kReadBlockBytes);
#endif
}

}  // namespace

bool canonical_less(const core::TaggedFlow& a, const core::TaggedFlow& b) {
  return std::tie(a.first_packet, a.key, a.last_packet, a.packets_c2s,
                  a.packets_s2c, a.bytes_c2s, a.bytes_s2c, a.protocol,
                  a.fqdn, a.dns_response_time, a.tagged_at_start,
                  a.dpi_label, a.cert_cn, a.cert_san, a.has_certificate) <
         std::tie(b.first_packet, b.key, b.last_packet, b.packets_c2s,
                  b.packets_s2c, b.bytes_c2s, b.bytes_s2c, b.protocol,
                  b.fqdn, b.dns_response_time, b.tagged_at_start,
                  b.dpi_label, b.cert_cn, b.cert_san, b.has_certificate);
}

bool canonical_less(const core::DnsEvent& a, const core::DnsEvent& b) {
  return std::tie(a.time, a.client, a.fqdn, a.servers) <
         std::tie(b.time, b.client, b.fqdn, b.servers);
}

// Both overloads return after one O(n) check when the input is already in
// canonical order (a whole-capture k-way merge result). Skipping the sort
// is byte-safe: rows equal under canonical_less are identical in every
// TSV column, so no stable-vs-unstable question arises.
void canonicalize(core::FlowDatabase& db) {
  const std::vector<core::TaggedFlow>& flows = db.flows();
  const auto less = [](const auto& a, const auto& b) {
    return canonical_less(a, b);
  };
  if (std::is_sorted(flows.begin(), flows.end(), less)) return;
  // Sort 4-byte indices rather than ~200-byte flows, then move each flow
  // once into a reserved database.
  std::vector<std::uint32_t> order(flows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return canonical_less(flows[a], flows[b]);
  });
  std::vector<core::TaggedFlow> taken = db.take_flows();
  db.reserve(taken.size());
  for (const std::uint32_t i : order) db.add(std::move(taken[i]));
}

void canonicalize(std::vector<core::DnsEvent>& log) {
  const auto less = [](const auto& a, const auto& b) {
    return canonical_less(a, b);
  };
  if (std::is_sorted(log.begin(), log.end(), less)) return;
  std::sort(log.begin(), log.end(), less);
}

// One message on a shard's frame ring: a 32-byte trivially copyable slot.
// Payloads (frame bytes, flow-export records) stay in the dispatcher's
// frame blocks and the slot points at them. Control items (rotate/stop)
// ride the same channel as frames, so a shard processes every frame
// dispatched before a window boundary before it rotates — ordering for
// free.
struct ShardedAnalyzer::Item {
  enum class Kind : std::uint8_t { kFrame, kRecord, kRotate, kStop };
  Kind kind = Kind::kFrame;
  bool deliver = true;    ///< kStop: hand the final window to the sink?
  /// kStop: may the final window be spilled/journaled? False on a
  /// drain-interrupted run — the flush window covers only the frames
  /// ingested before the drain, so journaling it as sealed would make a
  /// later --resume serve a truncated window where an uninterrupted run
  /// computes a full one.
  bool durable = true;
  std::uint32_t size = 0;  ///< bytes at `data`
  /// Frame timestamp (kFrame), arrival (kRecord) or window start
  /// (kRotate/kStop).
  util::Timestamp ts;
  util::Timestamp end;     ///< window end (kRotate/kStop)
  /// Frame bytes (kFrame) or a flow::OrientedRecord (kRecord), in a
  /// frame block.
  const unsigned char* data = nullptr;
};

/// One shard's contribution to one merged window, canonically pre-sorted
/// by the worker (the k-way merge's input invariant).
struct ShardedAnalyzer::ShardWindow {
  std::uint64_t seq = 0;      ///< window sequence number (global order)
  std::size_t shard = 0;
  bool final_window = false;  ///< emitted by kStop: merge loop exits after
  bool deliver = true;
  bool spilled = false;       ///< durable on disk; extent below is valid
  SpillExtent extent;         ///< where the record landed in the segment
  core::AnalysisWindow window;
};

struct ShardedAnalyzer::MergeInbox {
  util::Mutex mutex;
  util::CondVar cv;        ///< data available (merge thread waits)
  util::CondVar cv_space;  ///< capacity available (sealing workers wait)
  /// Window messages the merge thread may hold at once; workers sealing
  /// further ahead block in cv_space. This cap — not the capture length —
  /// bounds merge-stage memory (the streaming guarantee).
  std::size_t capacity = 0;
  std::size_t peak DNH_GUARDED_BY(mutex) = 0;
  /// One entry per (shard, window) message, drained by the merge thread.
  // dnh-analyze: allow(hot-path-bound, per-window rather than per-packet,
  // and explicitly capped at `capacity` entries by the cv_space wait)
  std::deque<ShardWindow> queue DNH_GUARDED_BY(mutex);
};

struct ShardedAnalyzer::Worker {
  explicit Worker(const core::SnifferConfig& config)
      : sniffer(std::in_place, config) {}

  /// Dispatcher-side staging buffer: frames accumulate here and enter the
  /// ring kDispatchBatch at a time via try_produce_n, so the
  /// acquire/release pair (and its cross-core cache-line bounce) is paid
  /// per batch instead of per frame. Dispatcher-thread-owned.
  struct Stage {
    std::array<Item, kDispatchBatch> items;
    std::size_t count = 0;
    /// Set while the ring cannot absorb a whole flush. Under kDrop the
    /// dispatcher then bypasses batching and offers each frame at
    /// arrival, so shed-vs-accepted accounting reflects the ring's state
    /// WHEN the frame arrived, not when a batch happened to fill —
    /// exactly the semantics of the pre-batching per-frame push.
    bool congested = false;
    /// Flow-export records among `items`: counted as records, not frames.
    std::size_t records = 0;
  };
  Stage stage;

  /// The frame channel; threaded mode only.
  std::optional<SpscRing<Item>> queue;
  /// Worker-thread-owned after start; destroyed at the final seal, which
  /// keeps its stats in `final_stats`.
  std::optional<core::Sniffer> sniffer;
  core::SnifferStats final_stats;
  std::uint64_t frames_processed = 0;  ///< worker-owned; read after join
  std::uint64_t windows_sealed = 0;    ///< the next seal's sequence number
  // Spill accounting, worker-owned; folded into PipelineStats after join.
  std::uint64_t windows_spilled = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_failures = 0;
  obs::SampleGate sniff_gate{64};    ///< worker-thread-owned span sampler
  std::thread thread;
};

// Frame blocks (docs/pipeline.md "Copy-free ring slots"): every frame and
// flow-export record in flight lives in a kReadBlockBytes block, and its
// ring slot points into that block. The classic pcap reader fills blocks
// in place (the pool is its BlockSource); on_frame and on_export_record
// copy their bytes into the current bump block. A block the dispatcher
// is done with is retired: every shard's stage is flushed and each ring's
// produced() cursor recorded. The block is reused once every ring that
// received items while it was open has consumed() past that cursor — no
// refcount, no per-frame atomic. A ring holds at most its capacity in
// items, so that capacity also bounds the blocks in flight.
// Dispatcher-thread-only.
class ShardedAnalyzer::FramePool final : public pcap::BlockSource {
 public:
  static_assert(sizeof(Item) == 32 && std::is_trivially_copyable_v<Item>,
                "a ring slot is a 32-byte view");
  static_assert(std::is_trivially_copyable_v<flow::OrientedRecord>,
                "records travel as bytes in a frame block");

  explicit FramePool(ShardedAnalyzer& owner) : owner_{owner} {}
  ~FramePool() {
    for (const auto& block : owned_) unpoison_block(block->bytes.get());
  }
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  unsigned char* acquire() override {
    reader_ = take();
    return reader_->bytes.get();
  }

  void release(unsigned char* bytes) override {
    const auto it = std::find_if(
        owned_.begin(), owned_.end(),
        [&](const auto& block) { return block->bytes.get() == bytes; });
    if (it == owned_.end()) return;
    if (it->get() == reader_) reader_ = nullptr;
    retire(it->get());
  }

  /// True when `p` points into the block the reader is filling, i.e. the
  /// view it came from needs no copy.
  bool in_reader_block(const unsigned char* p) const noexcept {
    return reader_ != nullptr && p >= reader_->bytes.get() &&
           p < reader_->bytes.get() + pcap::kReadBlockBytes;
  }

  /// Copies `n` <= kReadBlockBytes bytes into the bump block, retiring it
  /// for a fresh one when they do not fit.
  const unsigned char* copy_in(const void* bytes, std::size_t n) {
    if (bump_ == nullptr || bump_used_ + n > pcap::kReadBlockBytes) {
      if (bump_ != nullptr) retire(bump_);
      bump_ = take();
      bump_used_ = 0;
    }
    unsigned char* at = bump_->bytes.get() + bump_used_;
    if (n != 0) std::memcpy(at, bytes, n);
    bump_used_ += n;
    return at;
  }

  /// Moves every retired block the rings are done with to the free list.
  void reclaim() {
    const std::size_t shards = owner_.workers_.size();
    for (std::size_t k = 0; k < retired_.size();) {
      Block* block = retired_[k];
      bool done = true;
      for (std::size_t i = 0; i < shards && done; ++i)
        done = block->last[i] == block->first[i] ||
               owner_.workers_[i]->queue->consumed() >= block->last[i];
      if (!done) {
        ++k;
        continue;
      }
      poison_block(block->bytes.get());
      free_.push_back(block);
      retired_[k] = retired_.back();
      retired_.pop_back();
    }
  }

  std::size_t blocks() const noexcept { return owned_.size(); }

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> bytes;
    std::vector<std::uint64_t> first;  ///< per ring: produced() when taken
    std::vector<std::uint64_t> last;   ///< per ring: produced() at retire
  };

  Block* take() {
    if (free_.empty()) reclaim();
    if (free_.empty()) grow();
    Block* block = free_.back();
    free_.pop_back();
    unpoison_block(block->bytes.get());
    for (std::size_t i = 0; i < owner_.workers_.size(); ++i)
      block->first[i] = owner_.workers_[i]->queue->produced();
    return block;
  }

  void retire(Block* block) {
    // Staged items may point into the block: push them into the rings
    // first, so the recorded cursors cover every item that does.
    for (std::size_t i = 0; i < owner_.workers_.size(); ++i) {
      owner_.flush_stage(i);
      block->last[i] = owner_.workers_[i]->queue->produced();
    }
    retired_.push_back(block);
  }

  void grow() {
    const std::size_t shards = owner_.workers_.size();
    auto block = std::make_unique<Block>();
    // Not zero-filled: pages are touched only as frames fill them.
    // dnh-analyze: allow(alloc, pool growth: one block per block's worth
    // of items the rings can hold in flight, then none)
    block->bytes.reset(new unsigned char[pcap::kReadBlockBytes]);
    block->first.assign(shards, 0);
    block->last.assign(shards, 0);
    free_.push_back(block.get());
    owned_.push_back(std::move(block));
    // Neither list can outgrow the pool, so later pushes never allocate.
    free_.reserve(owned_.size());
    retired_.reserve(owned_.size());
    owner_.frame_blocks_gauge_.set(static_cast<std::int64_t>(owned_.size()));
  }

  ShardedAnalyzer& owner_;
  std::vector<std::unique_ptr<Block>> owned_;
  // Bounded by reclaim(): holds only blocks no ring references; the pool
  // grows only when it is empty.
  std::vector<Block*> free_;
  // Bounded by reclaim(): a retired block returns to free_ once every
  // ring has consumed past it, and rings hold at most their capacity in
  // items.
  std::vector<Block*> retired_;
  Block* reader_ = nullptr;  ///< block the pcap reader is filling
  Block* bump_ = nullptr;    ///< block on_frame/on_export_record copy into
  std::size_t bump_used_ = 0;
};

ShardedAnalyzer::ShardedAnalyzer(PipelineConfig config, WindowSink sink)
    : config_{std::move(config)}, sink_{std::move(sink)} {
  if (config_.shards == 0) config_.shards = 1;
  dispatch_.resize(config_.shards);
  // Record orientation splits pairs exactly where the flow table splits
  // flows: same idle timeout, same sweep cadence.
  flowexport::OrienterConfig orienter_config;
  orienter_config.idle_timeout = config_.sniffer.table.idle_timeout;
  orienter_config.sweep_interval_records =
      config_.sniffer.table.sweep_interval_packets;
  orienter_ = flowexport::RecordOrienter{orienter_config};

  // Durability setup, before any thread exists. A resume replays the
  // manifest first; an unusable directory (no valid header, or a window
  // length that disagrees with this run's) degrades to a fresh spill —
  // recorded in the recovery stats — rather than failing the run.
  const bool spilling = !config_.spill_dir.empty();
  if (spilling) {
    std::error_code ec;
    std::filesystem::create_directories(config_.spill_dir, ec);
    bool truncate = !config_.resume;
    if (config_.resume) {
      plan_ = scan_spill_dir(config_.spill_dir);
      if (plan_.usable() &&
          plan_.window_us !=
              static_cast<std::uint64_t>(config_.window.total_micros())) {
        plan_.error = "spill window length mismatch: manifest has " +
                      std::to_string(plan_.window_us) + "us, run has " +
                      std::to_string(config_.window.total_micros()) + "us";
        plan_.parts.clear();
        plan_.complete_prefix = 0;
      }
      if (plan_.usable()) {
        resume_prefix_ = plan_.complete_prefix;
      } else {
        truncate = true;  // start over; the directory gave us nothing
      }
    }
    recovery_stats_ = plan_.stats;
    spill_writers_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      spill_writers_.push_back(std::make_unique<SpillWriter>(
          config_.spill_dir, static_cast<std::uint32_t>(i), truncate));
      if (!spill_writers_.back()->ok() && error_.empty())
        error_ = "cannot open spill segment in " + config_.spill_dir;
    }
    manifest_ = std::make_unique<ManifestJournal>(
        config_.spill_dir, static_cast<std::uint32_t>(config_.shards),
        static_cast<std::uint64_t>(config_.window.total_micros()), truncate);
    if (!manifest_->ok() && error_.empty())
      error_ = "cannot open manifest journal in " + config_.spill_dir;
  }

  workers_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    core::SnifferConfig shard_config = config_.sniffer;
    shard_config.metrics_shard = i;  // labels the shard's state gauges
    workers_.push_back(std::make_unique<Worker>(shard_config));
  }
  obs::Registry& registry = obs::Registry::global();
  routes_gauge_ = registry.gauge("dnh_pipeline_routes");
  frame_blocks_gauge_ = registry.gauge("dnh_pipeline_frame_blocks");
  frame_blocks_gauge_.set(0);
  spill_bytes_gauge_ = registry.gauge("dnh_spill_bytes");
  sampled_peaks_ =
      std::make_unique<std::atomic<std::size_t>[]>(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    sampled_peaks_[i].store(0, std::memory_order_relaxed);
  // The dispatcher runs on the constructing (caller) thread; claim its
  // flight-recorder ring here so every later dispatch event is labeled.
  obs::FlightRecorder::global().set_thread_label("dispatch");
  obs::trace_event(obs::TraceStage::kDispatch, obs::TraceKind::kThreadStart,
                   obs::kNoSeq, obs::kNoShard, config_.shards);
  // Inline mode is complete here: the caller's thread is the shard and
  // the merge stage, so there is nothing to route, pool, queue or watch.
  if (inline_mode()) return;

  routes_.reserve(config_.sniffer.table.expected_flows);
  for (auto& worker : workers_) worker->queue.emplace(config_.queue_capacity);
  pool_ = std::make_unique<FramePool>(*this);
  inbox_ = std::make_unique<MergeInbox>();
  inbox_->capacity =
      config_.merge_inbox_capacity != 0
          ? config_.merge_inbox_capacity
          : std::max<std::size_t>(2 * config_.shards, 4);
  inbox_depth_gauge_ = registry.gauge("dnh_merge_inbox_depth");
  inbox_depth_gauge_.set(0);
  depth_gauges_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    depth_gauges_.push_back(
        registry.gauge(shard_label("dnh_shard_queue_depth", i)));
  // Queue depth is sampled on the exporter's snapshot cadence, not per
  // push: the rings' head/tail cursors are atomics, so the read is safe
  // from the snapshot thread, and interval sampling is what makes the
  // peak/percentile depth statistics meaningful (a per-push high-water
  // mark saturates on any momentary burst).
  depth_sampler_ = registry.add_sampler([this] {
    PipelineMetrics& m = pipeline_metrics();
    for (std::size_t i = 0; i < config_.shards; ++i) {
      const std::size_t depth = workers_[i]->queue->size();
      depth_gauges_[i].set(static_cast<std::int64_t>(depth));
      m.depth_samples.observe(depth);
      auto& peak = sampled_peaks_[i];
      if (depth > peak.load(std::memory_order_relaxed))
        peak.store(depth, std::memory_order_relaxed);
    }
  });
  // Heartbeats registered before any watched thread exists: the board is
  // structurally immutable once the watchdog and workers start.
  dispatch_hb_ = heartbeats_.add_stage("dispatch");
  worker_hb_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    worker_hb_.push_back(
        heartbeats_.add_stage("shard-" + std::to_string(i)));
  merge_hb_ = heartbeats_.add_stage("merge");

  // Threads start only after every Worker exists: a worker never touches
  // another shard's state, but the merge loop walks workers_ indirectly
  // through inbox messages carrying shard indices.
  for (std::size_t i = 0; i < config_.shards; ++i)
    workers_[i]->thread = std::thread{[this, i] { worker_loop(i); }};
  merge_thread_ = std::thread{[this] { merge_loop(); }};

  if (config_.watchdog_timeout.total_micros() > 0) {
    WatchdogConfig watchdog;
    watchdog.timeout = config_.watchdog_timeout;
    // Group quiescence needs a pending-work signal: frames sitting in a
    // ring (atomic cursors, safe cross-thread) or windows sitting in the
    // inbox (its own mutex). Quiet with neither is idle, not a stall.
    watchdog.pending = [this](std::string& desc) {
      for (std::size_t i = 0; i < config_.shards; ++i) {
        if (workers_[i]->queue->size() > 0) {
          desc = "frames queued in shard " + std::to_string(i) + "'s ring";
          return true;
        }
      }
      util::MutexLock lock{inbox_->mutex};
      if (!inbox_->queue.empty()) {
        desc = "windows waiting in the merge inbox";
        return true;
      }
      return false;
    };
    watchdog.on_stall = [this](const StallDiagnostic& diag) {
      pipeline_metrics().stalls.inc();
      if (config_.on_stall) config_.on_stall(diag);
    };
    watchdog_ = std::make_unique<Watchdog>(heartbeats_, std::move(watchdog));
  }
}

ShardedAnalyzer::~ShardedAnalyzer() { finish(); }

namespace {

std::size_t shard_of(net::Ipv4Address client, std::size_t shards) {
  return static_cast<std::size_t>(splitmix64(client.value()) %
                                  static_cast<std::uint64_t>(shards));
}

// The client side is the dispatch key. For DNS traffic the client is
// whoever is NOT on port 53 (responses must land on the same shard as
// the flows they will label); for everything else the flow table's own
// orientation rule decides.
net::Ipv4Address dispatch_client(const packet::HeaderPeek& h) {
  if (h.src_port == dns::kDnsPort) return h.dst;
  if (h.dst_port == dns::kDnsPort) return h.src;
  return flow::source_is_client(h.src, h.src_port, h.dst, h.dst_port,
                                h.tcp_flags)
             ? h.src
             : h.dst;
}

// Direction-free connection identity: both directions of a 5-tuple map to
// the same key, with the lexicographically smaller (ip, port) endpoint in
// the client slots. Purely an index into the routing table — it says
// nothing about which side is the real client.
flow::FlowKey route_key(const packet::HeaderPeek& h) {
  flow::FlowKey key;
  key.transport = h.is_tcp() ? flow::Transport::kTcp : flow::Transport::kUdp;
  if (std::tie(h.src, h.src_port) <= std::tie(h.dst, h.dst_port)) {
    key.client_ip = h.src;
    key.client_port = h.src_port;
    key.server_ip = h.dst;
    key.server_port = h.dst_port;
  } else {
    key.client_ip = h.dst;
    key.client_port = h.dst_port;
    key.server_ip = h.src;
    key.server_port = h.src_port;
  }
  return key;
}

}  // namespace

std::size_t ShardedAnalyzer::shard_for(net::BytesView frame,
                                       std::size_t shards) {
  if (shards <= 1) return 0;
  packet::HeaderPeek peek;
  if (!packet::peek_headers(frame, peek)) return 0;
  return shard_of(dispatch_client(peek), shards);
}

std::size_t ShardedAnalyzer::route_frame(net::BytesView frame,
                                         util::Timestamp ts) {
  if (config_.shards <= 1) return 0;
  packet::HeaderPeek peek;
  if (!packet::peek_headers(frame, peek)) return 0;

  // Connection affinity: the first packet of a 5-tuple picks the shard by
  // the stateless heuristic; every later packet — in either direction —
  // follows it. An entry whose connection has been idle past the flow
  // table's timeout is re-homed from the arriving packet, the exact
  // condition under which the table starts a new flow, so a resumed
  // 5-tuple re-orients identically in both worlds.
  const util::Duration idle = config_.sniffer.table.idle_timeout;
  if (++routed_packets_ % config_.sniffer.table.sweep_interval_packets ==
      0) {
    routes_.erase_if(
        [&](const auto& entry) { return ts - entry.second.last > idle; });
  }
  // dnh-analyze: allow(alloc, FlatHash growth past the expected_flows
  // reservation -- amortized doubling, absent in steady state)
  const auto [it, fresh] = routes_.try_emplace(route_key(peek));
  Route& route = it->second;
  if (fresh || ts - route.last > idle) {
    route.shard = shard_of(dispatch_client(peek), config_.shards);
    route.last = ts;
  } else if (ts > route.last) {
    route.last = ts;
  }
  return route.shard;
}

bool ShardedAnalyzer::admit(util::Timestamp ts) {
  if (finished_ || draining_) return false;
  // Drain polling is amortized: the check is an indirect call (usually a
  // sig_atomic_t read), so once per 64 frames keeps it off the hot path
  // while still reacting to SIGINT within a microsecond-scale burst.
  if (config_.drain_check && (frames_dispatched_ & 63) == 0 &&
      config_.drain_check()) {
    draining_ = true;
    obs::trace_event(obs::TraceStage::kDispatch,
                     obs::TraceKind::kDrainRequested, rotations_, obs::kNoShard,
                     frames_dispatched_);
    return false;
  }
  advance_clock(ts);
  // The process-wide counter is an atomic add: publish it per 64 frames
  // (finish() adds the remainder), not per frame.
  if ((++frames_dispatched_ & 63) == 0)
    pipeline_metrics().frames_dispatched.add(64);
  if ((frames_dispatched_ & 4095) == 0)
    routes_gauge_.set(static_cast<std::int64_t>(routes_.size()));
  return true;
}

void ShardedAnalyzer::advance_clock(util::Timestamp ts) {
  const std::int64_t width = config_.window.total_micros();
  if (!started_) {
    started_ = true;
    first_ts_ = ts;
    last_ts_ = ts;
    if (width > 0)
      window_start_ = util::Timestamp::from_micros(
          ts.micros_since_epoch() / width * width);
  }
  if (ts > last_ts_) last_ts_ = ts;
  // Every boundary the clock has passed is a rotation, empty windows
  // included. Flows still open in the flow table stay live and land in
  // the window they complete in.
  if (width > 0) {
    while (ts >= window_start_ + config_.window)
      broadcast_rotation(window_start_, window_start_ + config_.window);
  }
}

// dnh-analyze: hot
void ShardedAnalyzer::on_frame(net::BytesView frame, util::Timestamp ts) {
  if (!admit(ts)) return;
  if (inline_mode()) {
    Worker& worker = *workers_[0];
    ++dispatch_[0].enqueued;
    ++worker.frames_processed;
    worker.sniffer->on_frame(frame, ts);
    return;
  }
  const std::size_t size = std::min(frame.size(), pcap::kReadBlockBytes);
  dispatch_frame({pool_->copy_in(frame.data(), size), size}, ts);
}

void ShardedAnalyzer::on_export_record(const flowexport::ExportRecord& record,
                                       util::Timestamp arrival) {
  if (finished_ || draining_) return;
  // A reordered export stream can deliver an older datagram after a newer
  // one. Only the dispatch clock is clamped (it must never step back —
  // window boundaries are monotone); the record's own timestamps pass
  // through untouched, and they alone decide flow boundaries and labels.
  if (started_ && arrival < last_ts_) arrival = last_ts_;
  advance_clock(arrival);
  ++records_dispatched_;
  pipeline_metrics().records_dispatched.inc();

  const flow::OrientedRecord oriented = orienter_.orient(record);
  if (inline_mode()) {
    workers_[0]->sniffer->on_export_record(oriented, arrival);
    return;
  }
  Item item;
  item.kind = Item::Kind::kRecord;
  item.ts = arrival;
  item.size = sizeof oriented;
  item.data = pool_->copy_in(&oriented, sizeof oriented);
  // Route by the oriented client: the shard whose resolver replica holds
  // this client's DNS history — the same reduction dispatch_client feeds
  // for DNS frames, so records and the responses that label them always
  // meet on one shard. Records are never shed: under kDrop they take the
  // lossless control push, under kBlock they batch with frames.
  const std::size_t shard = shard_of(oriented.key.client_ip, config_.shards);
  if (config_.backpressure == BackpressurePolicy::kDrop)
    push_control(shard, item);
  else
    stage_item(shard, item);
}

// dnh-analyze: hot
void ShardedAnalyzer::dispatch_frame(net::BytesView frame,
                                     util::Timestamp ts) {
  PipelineMetrics& m = pipeline_metrics();
  obs::SpanTimer span{m.dispatch_ns, dispatch_gate_};
  Item item;
  item.kind = Item::Kind::kFrame;
  item.size = static_cast<std::uint32_t>(frame.size());
  item.ts = ts;
  item.data = frame.data();
  stage_item(route_frame(frame, ts), item);
}

void ShardedAnalyzer::stage_item(std::size_t shard, const Item& item) {
  Worker::Stage& stage = workers_[shard]->stage;
  stage.items[stage.count++] = item;
  if (item.kind == Item::Kind::kRecord) ++stage.records;
  if (stage.count == kDispatchBatch ||
      (stage.congested && config_.backpressure == BackpressurePolicy::kDrop))
    flush_stage(shard);
}

void ShardedAnalyzer::flush_stage(std::size_t shard) {
  Worker& worker = *workers_[shard];
  Worker::Stage& stage = worker.stage;
  if (stage.count == 0) return;
  PipelineMetrics& m = pipeline_metrics();
  DispatchCounters& counters = dispatch_[shard];

  std::size_t offset = 0;
  const auto produce = [&] {
    // dnh-analyze: ring-producer (dispatcher thread owns every produce side)
    return worker.queue->try_produce_n(
        stage.count - offset, [&](Item& slot, std::size_t i) {
          slot = stage.items[offset + i];
        });
  };
  offset = produce();
  stage.congested = offset < stage.count;
  if (offset < stage.count) {
    if (config_.backpressure == BackpressurePolicy::kDrop) {
      const std::uint64_t shed = stage.count - offset;
      counters.dropped += shed;
      m.frames_dropped.add(shed);
    } else {
      ++counters.blocked;  // once per stalled flush, not per retry
      m.blocked_pushes.inc();
      obs::trace_event(obs::TraceStage::kDispatch,
                       obs::TraceKind::kBackpressureWait, rotations_,
                       static_cast<unsigned>(shard), stage.count - offset);
      unsigned spins = 0;
      while (offset < stage.count) {
        backoff(spins);
        offset += produce();
      }
    }
  }
  // Staged records are never shed (kDrop does not stage them), so every
  // one of them is in the ring by now.
  const std::size_t frames = offset - stage.records;
  // Progress marker once per ~512 enqueued frames per shard: frequent
  // enough that a stall dump shows the dispatcher was alive moments
  // before, rare enough not to evict window-lifecycle events.
  if (((counters.enqueued ^ (counters.enqueued + frames)) >> 9) != 0)
    obs::trace_event(obs::TraceStage::kDispatch, obs::TraceKind::kFrameBatch,
                     rotations_, static_cast<unsigned>(shard),
                     counters.enqueued + frames);
  counters.enqueued += frames;
  stage.count = 0;
  stage.records = 0;
  heartbeats_.beat(dispatch_hb_);
  const std::size_t depth = worker.queue->size();
  if (depth > counters.high_water) counters.high_water = depth;
}

void ShardedAnalyzer::push_control(std::size_t shard, const Item& item) {
  if (inline_mode()) {
    // dnh-analyze: allow(alloc, a control item seals a window: once per
    // window, not per frame)
    consume(shard, item);
    return;
  }
  // Staged frames precede the control item in its shard's ring: rotation
  // and stop ordering relies on the frame channel being FIFO end to end.
  flush_stage(shard);
  // Control messages are lossless under every backpressure policy:
  // dropping a rotation would desynchronize the merge sequence.
  Worker& worker = *workers_[shard];
  unsigned spins = 0;
  // dnh-analyze: ring-producer (control items ride the dispatcher thread too)
  while (!worker.queue->try_produce([&](Item& slot) { slot = item; }))
    backoff(spins);
}

void ShardedAnalyzer::broadcast_rotation(util::Timestamp start,
                                         util::Timestamp end) {
  for (std::size_t i = 0; i < config_.shards; ++i) {
    Item item;
    item.kind = Item::Kind::kRotate;
    item.ts = start;
    item.end = end;
    push_control(i, item);
  }
  // The WindowTraceId is the rotation's sequence number: every shard's
  // worker assigns exactly this seq when it seals its slice, so the
  // dispatched/sealed/spilled/ingested/emitted events all correlate.
  obs::trace_event(obs::TraceStage::kDispatch,
                   obs::TraceKind::kWindowDispatched, rotations_,
                   obs::kNoShard, config_.shards);
  window_start_ = end;
  ++rotations_;
}

bool ShardedAnalyzer::process_pcap(const std::string& path) {
  pcap::CaptureReadOptions options;
  options.resync = config_.sniffer.resync_capture;
  if (config_.drain_check) {
    // Abort the file read itself on drain: a multi-gigabyte capture must
    // not stand between SIGINT and the seal-spill-merge shutdown path.
    options.stop = [this] {
      if (!draining_ && config_.drain_check()) {
        draining_ = true;
        obs::trace_event(obs::TraceStage::kDispatch,
                         obs::TraceKind::kDrainRequested, rotations_,
                         obs::kNoShard, frames_dispatched_);
      }
      return draining_;
    };
  }
  pcap::CaptureReadReport report;
  // The classic reader fills the pool's blocks, so its views go into the
  // rings as they are; pcapng reads into one reused buffer, and its views
  // are copied like on_frame's. Inline mode has no pool: the reader uses
  // its own blocks and on_frame sniffs each view in place.
  const bool ok = pcap::read_capture_views(
      path,
      [this](const pcap::FrameView& frame) {
        if (pool_ && pool_->in_reader_block(frame.data.data())) {
          if (admit(frame.timestamp))
            dispatch_frame(frame.data, frame.timestamp);
        } else {
          on_frame(frame.data, frame.timestamp);
        }
      },
      options, report, pool_.get());
  // Container-level damage is observed by the dispatcher (it owns the
  // reader), not by any shard; folded into merged degradation at finish.
  capture_degradation_.capture_resyncs += report.corruption.resyncs;
  capture_degradation_.capture_bytes_skipped +=
      report.corruption.bytes_skipped;
  capture_degradation_.capture_truncated_tails +=
      report.corruption.truncated_tail;
  if (!report.error.empty()) error_ = std::move(report.error);
  return ok;
}

void ShardedAnalyzer::note_capture_corruption(
    const pcap::CorruptionStats& corruption) {
  capture_degradation_.capture_resyncs += corruption.resyncs;
  capture_degradation_.capture_bytes_skipped += corruption.bytes_skipped;
  capture_degradation_.capture_truncated_tails += corruption.truncated_tail;
}

void ShardedAnalyzer::worker_loop(std::size_t index) {
  if (config_.pin_shards) pin_to_cpu(index);
  // Label + thread-start before the test hook: an injected stall that
  // parks this worker forever must still leave its shard visible in the
  // stall dump.
  obs::FlightRecorder::global().set_thread_label("shard-" +
                                                 std::to_string(index));
  obs::trace_event(obs::TraceStage::kShard, obs::TraceKind::kThreadStart,
                   obs::kNoSeq, static_cast<unsigned>(index));
  if (config_.worker_start_hook) config_.worker_start_hook(index);
  SpscRing<Item>& queue = *workers_[index]->queue;
  bool running = true;
  unsigned spins = 0;
  while (running) {
    // Batch drain: one acquire/release pair covers up to kConsumeBatch
    // items. Safe even around control items — kStop is the last item its
    // ring will ever carry, so nothing can follow it within a batch.
    // dnh-analyze: ring-consumer (this worker thread owns the consume side)
    const std::size_t got = queue.try_consume_n(
        kConsumeBatch,
        [&](Item& item, std::size_t) { running = consume(index, item); });
    if (got > 0) {
      spins = 0;
      heartbeats_.beat(worker_hb_[index]);
    } else {
      backoff(spins);
    }
  }
}

// dnh-analyze: shard-local-ids
bool ShardedAnalyzer::consume(std::size_t shard, const Item& item) {
  Worker& worker = *workers_[shard];
  switch (item.kind) {
    case Item::Kind::kFrame: {
      obs::SpanTimer span{pipeline_metrics().sniff_ns, worker.sniff_gate};
      worker.sniffer->on_frame({item.data, item.size}, item.ts);
      ++worker.frames_processed;
      return true;
    }
    case Item::Kind::kRecord: {
      flow::OrientedRecord record;
      std::memcpy(&record, item.data, sizeof record);
      worker.sniffer->on_export_record(record, item.ts);
      return true;
    }
    case Item::Kind::kRotate:
      seal(shard, false, true, true, item.ts, item.end);
      return true;
    case Item::Kind::kStop:
      worker.sniffer->finish();
      seal(shard, true, item.deliver, item.durable, item.ts, item.end);
      return false;
  }
  return true;
}

void ShardedAnalyzer::seal(std::size_t shard, bool final_window, bool deliver,
                           bool durable, util::Timestamp start,
                           util::Timestamp end) {
  Worker& worker = *workers_[shard];
  ShardWindow msg;
  msg.seq = worker.windows_sealed++;
  msg.shard = shard;
  msg.final_window = final_window;
  msg.deliver = deliver;
  msg.window = core::AnalysisWindow{start, end, worker.sniffer->take_database(),
                                    worker.sniffer->take_dns_log()};
  if (final_window) {
    // Nothing reads the shard's resolver, flow table or Clist again: free
    // them before the sort below, so their memory is not held through the
    // final sort, spill and merge. The window's DomainTable lives on in
    // its database.
    worker.final_stats = worker.sniffer->stats();
    worker.sniffer.reset();
  }
  if (deliver) {
    // Seal: canonical per-shard order, established here so (a) the sort
    // cost parallelizes across workers instead of serializing on the
    // merge thread and (b) the spilled record is already in its final
    // order — a recovered window replays without re-sorting.
    canonicalize(msg.window);
    obs::trace_event(obs::TraceStage::kShard, obs::TraceKind::kWindowSealed,
                     msg.seq, static_cast<unsigned>(shard),
                     worker.frames_processed);
    // Spill before the hand-off. Windows inside the resume prefix are
    // already durable from the crashed run and are skipped; a failed
    // append degrades (the window just is not durable) and is tallied
    // rather than fatal.
    if (durable && !spill_writers_.empty() && msg.seq >= resume_prefix_) {
      if (const auto extent =
              spill_writers_[shard]->append(msg.seq, msg.window)) {
        msg.spilled = true;
        msg.extent = *extent;
        ++worker.windows_spilled;
        worker.spill_bytes += extent->length;
        spill_bytes_gauge_.add(static_cast<std::int64_t>(extent->length));
        pipeline_metrics().spill_records.inc();
      } else {
        ++worker.spill_failures;
      }
    }
  }
  if (inline_mode()) {
    ingest(std::move(msg));
    return;
  }
  {
    util::MutexLock lock{inbox_->mutex};
    // Bounded inbox: sealing ahead of the merge thread parks here, so
    // merge-stage memory is capped by `capacity` windows no matter how
    // long the capture runs. Deadlock-free: the merge thread always
    // drains whenever the queue is non-empty.
    while (inbox_->queue.size() >= inbox_->capacity)
      inbox_->cv_space.wait(lock);
    inbox_->queue.push_back(std::move(msg));
    if (inbox_->queue.size() > inbox_->peak)
      inbox_->peak = inbox_->queue.size();
    inbox_depth_gauge_.set(static_cast<std::int64_t>(inbox_->queue.size()));
  }
  inbox_->cv.notify_one();
}

void ShardedAnalyzer::merge_loop() {
  obs::FlightRecorder::global().set_thread_label("merge");
  obs::trace_event(obs::TraceStage::kMerge, obs::TraceKind::kThreadStart);
  bool done = false;
  while (!done) {
    ShardWindow msg;
    {
      util::MutexLock lock{inbox_->mutex};
      // Guarded-predicate loop (no wait lambda: every `queue` access
      // stays visibly under `mutex` for the thread-safety analysis).
      while (inbox_->queue.empty()) inbox_->cv.wait(lock);
      msg = std::move(inbox_->queue.front());
      inbox_->queue.pop_front();
      inbox_depth_gauge_.set(
          static_cast<std::int64_t>(inbox_->queue.size()));
    }
    inbox_->cv_space.notify_one();
    heartbeats_.beat(merge_hb_);
    done = ingest(std::move(msg));
  }
}

bool ShardedAnalyzer::ingest(ShardWindow&& msg) {
  obs::trace_event(obs::TraceStage::kMerge, obs::TraceKind::kMergeIngested,
                   msg.seq, static_cast<unsigned>(msg.shard),
                   msg.spilled ? msg.extent.length : 0);
  // Journal the seal as soon as the message arrives: the worker's
  // segment fsync happened before the hand-off, so the ordering
  // invariant (record durable before the manifest references it) holds,
  // and durability does not wait for the slowest shard.
  if (msg.spilled && manifest_) {
    manifest_->append_seal(msg.seq, static_cast<std::uint32_t>(msg.shard),
                           spill_writers_[msg.shard]->segment(), msg.extent,
                           seal_seq_++);
    obs::trace_event(obs::TraceStage::kMerge, obs::TraceKind::kWindowJournaled,
                     msg.seq, static_cast<unsigned>(msg.shard),
                     msg.extent.length);
  }
  pending_[msg.seq].push_back(std::move(msg));
  // Merge strictly in sequence order, only once every shard has reported
  // the sequence number.
  while (true) {
    const auto it = pending_.find(next_seq_);
    if (it == pending_.end() || it->second.size() < config_.shards)
      return false;
    const bool final_window = it->second.front().final_window;
    const bool deliver = it->second.front().deliver;
    const auto t0 = std::chrono::steady_clock::now();
    core::AnalysisWindow merged = retire_window(next_seq_, it->second);
    const auto t1 = std::chrono::steady_clock::now();
    const util::Duration elapsed = steady_elapsed(t0, t1);
    pending_.erase(it);
    ++next_seq_;
    if (deliver) {
      merge_total_ = merge_total_ + elapsed;
      if (elapsed > merge_max_) merge_max_ = elapsed;
      ++windows_merged_;
      // Merges are per-window (rare), so the span is unsampled.
      pipeline_metrics().merge_ns.observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      pipeline_metrics().windows_merged.inc();
      if (sink_) sink_(std::move(merged));
      obs::trace_event(
          obs::TraceStage::kMerge, obs::TraceKind::kWindowEmitted,
          next_seq_ - 1, obs::kNoShard,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
    }
    if (final_window) return true;
  }
}

namespace {

/// K-way merges canonically pre-sorted windows into `out`. Inputs must
/// already carry event fqdn ids/views valid against out's table (the
/// callers remap via intern or absorb first). Equal keys under
/// canonical_less are value-identical rows, so pop order among ties
/// cannot change a single output byte — which is why a k-way merge of
/// per-shard-sorted runs reproduces the global canonical sort exactly.
// dnh-analyze: merge-boundary
void kway_merge_into(std::vector<core::AnalysisWindow>& parts,
                     core::AnalysisWindow& out) {
  std::vector<std::vector<core::TaggedFlow>> flows(parts.size());
  std::size_t flow_total = 0;
  std::size_t event_total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    // The moved-out flows' fqdn views stay valid: each part's db retains
    // its DomainTable, and `parts` outlives the merge.
    flows[i] = parts[i].db.take_flows();
    flow_total += flows[i].size();
    event_total += parts[i].dns_log.size();
  }
  out.db.reserve(flow_total);
  out.dns_log.reserve(event_total);

  // Index-heap pattern: the heap holds part indices, keyed by each
  // part's current head. An index is popped, its head consumed, and the
  // index re-pushed — the key only changes while the index is out.
  std::vector<std::size_t> pos(parts.size(), 0);
  const auto flow_greater = [&](std::size_t x, std::size_t y) {
    return canonical_less(flows[y][pos[y]], flows[x][pos[x]]);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(flow_greater)>
      flow_heap{flow_greater};
  for (std::size_t i = 0; i < parts.size(); ++i)
    if (!flows[i].empty()) flow_heap.push(i);
  while (!flow_heap.empty()) {
    const std::size_t i = flow_heap.top();
    flow_heap.pop();
    out.db.add(std::move(flows[i][pos[i]]));
    if (++pos[i] < flows[i].size()) flow_heap.push(i);
  }

  std::vector<std::size_t> event_pos(parts.size(), 0);
  const auto event_greater = [&](std::size_t x, std::size_t y) {
    return canonical_less(parts[y].dns_log[event_pos[y]],
                          parts[x].dns_log[event_pos[x]]);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(event_greater)>
      event_heap{event_greater};
  for (std::size_t i = 0; i < parts.size(); ++i)
    if (!parts[i].dns_log.empty()) event_heap.push(i);
  while (!event_heap.empty()) {
    const std::size_t i = event_heap.top();
    event_heap.pop();
    out.dns_log.push_back(std::move(parts[i].dns_log[event_pos[i]]));
    if (++event_pos[i] < parts[i].dns_log.size()) event_heap.push(i);
  }
}

}  // namespace

// dnh-analyze: id-remap(per-event intern into the unified table below;
// flows are re-interned by out.db.add inside the k-way merge)
core::AnalysisWindow ShardedAnalyzer::merge_windows(
    std::vector<ShardWindow>& parts) {
  // One shard (inline mode): its window is already canonical and its ids
  // and views belong to its own table, so it is handed over whole.
  if (parts.size() == 1) return std::move(parts.front().window);
  core::AnalysisWindow out;
  out.start = parts.front().window.start;
  out.end = parts.front().window.end;

  // Shard-local DomainIds are meaningless in the merged window: re-intern
  // every DNS event's label into the output database's table (flows are
  // re-interned by out.db.add inside the k-way merge). Per-event intern,
  // not absorb: the shard tables accumulate names across the whole run,
  // and a window must only pay for the names it actually references.
  core::DomainTable& unified = *out.db.domain_table();
  std::vector<core::AnalysisWindow> windows;
  windows.reserve(parts.size());
  for (auto& part : parts) {
    for (auto& event : part.window.dns_log) {
      event.fqdn_id = unified.intern(event.fqdn);
      event.fqdn = unified.view(event.fqdn_id);
    }
    windows.push_back(std::move(part.window));
  }
  kway_merge_into(windows, out);
  return out;
}

core::AnalysisWindow ShardedAnalyzer::merge_recovered(
    std::vector<core::AnalysisWindow>& parts) {
  // A window spilled by a one-shard run was sorted before it was spilled
  // and carries its own table: nothing to merge.
  if (parts.size() == 1) return std::move(parts.front());
  core::AnalysisWindow out;
  out.start = parts.front().start;
  out.end = parts.front().end;

  // Windows loaded from spill each carry a private table holding exactly
  // the window's names, so absorb() — one bulk re-intern returning the
  // id remap — is the right tool here, where it was not above.
  core::DomainTable& unified = *out.db.domain_table();
  for (auto& part : parts) {
    const std::vector<core::DomainId> remap =
        unified.absorb(*part.db.domain_table());
    for (auto& event : part.dns_log) {
      event.fqdn_id = event.fqdn_id < remap.size() ? remap[event.fqdn_id]
                                                   : core::kEmptyDomainId;
      event.fqdn = unified.view(event.fqdn_id);
    }
  }
  kway_merge_into(parts, out);
  return out;
}

core::AnalysisWindow ShardedAnalyzer::retire_window(
    std::uint64_t seq, std::vector<ShardWindow>& parts) {
  if (config_.resume && seq < resume_prefix_) {
    // The crashed run's spilled bytes are authoritative for the complete
    // prefix. Any damaged record demotes the whole window to the
    // recomputed parts — byte-identical output either way (determinism),
    // just without crediting the spill.
    std::vector<core::AnalysisWindow> loaded;
    loaded.reserve(plan_.parts[seq].size());
    bool intact = true;
    for (const auto& entry : plan_.parts[seq]) {
      auto window =
          load_spilled_window(config_.spill_dir, entry, recovery_stats_);
      if (!window) {
        intact = false;
        break;
      }
      loaded.push_back(std::move(*window));
    }
    if (intact && !loaded.empty()) {
      ++windows_recovered_;
      obs::trace_event(obs::TraceStage::kMerge,
                       obs::TraceKind::kWindowRecovered, seq, obs::kNoShard,
                       loaded.size());
      return merge_recovered(loaded);
    }
    ++windows_recomputed_;
  }
  return merge_windows(parts);
}

void ShardedAnalyzer::finish() {
  if (finished_) return;
  finished_ = true;
  pipeline_metrics().frames_dispatched.add(frames_dispatched_ & 63);
  obs::trace_event(obs::TraceStage::kDispatch, obs::TraceKind::kPipelineFinish,
                   rotations_, obs::kNoShard, frames_dispatched_);

  // The final window's bounds: windowed mode closes the current grid
  // window; single-window mode spans the stream.
  util::Timestamp start;
  util::Timestamp end;
  if (started_) {
    if (config_.window.total_micros() > 0) {
      start = window_start_;
      end = window_start_ + config_.window;
    } else {
      start = first_ts_;
      end = last_ts_;
    }
  }
  for (std::size_t i = 0; i < config_.shards; ++i) {
    Item item;
    item.kind = Item::Kind::kStop;
    item.ts = start;
    item.end = end;
    // An empty run delivers no window; the stop window still flows
    // through the merge stage to terminate it. A drained run's flush
    // window is delivered but never journaled: it is truncated at the
    // drain point, and --resume must recompute it.
    item.deliver = started_;
    item.durable = !draining_;
    push_control(i, item);
  }
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
  if (merge_thread_.joinable()) merge_thread_.join();
  // The watchdog keeps running until after the joins — a hang in the
  // drain itself is exactly what it exists to catch — and stops here,
  // before its stalled() verdict is folded into stats.
  if (watchdog_) watchdog_->stop();
  // All threads joined: every worker- and merge-owned counter is now
  // safely readable from this thread. Unregister the depth sampler
  // (synchronously: reset() waits out an in-flight snapshot) before
  // folding its peaks and publishing the drained-queue gauges.
  depth_sampler_.reset();
  routes_gauge_.set(static_cast<std::int64_t>(routes_.size()));
  for (std::size_t i = 0; i < depth_gauges_.size(); ++i)
    depth_gauges_[i].set(
        static_cast<std::int64_t>(workers_[i]->queue->size()));

  stats_ = PipelineStats{};
  stats_.shards.resize(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    ShardStats& shard = stats_.shards[i];
    shard.frames_enqueued = dispatch_[i].enqueued;
    shard.frames_dropped = dispatch_[i].dropped;
    shard.blocked_pushes = dispatch_[i].blocked;
    shard.queue_high_water = dispatch_[i].high_water;
    shard.queue_peak_sampled =
        sampled_peaks_[i].load(std::memory_order_relaxed);
    shard.frames_processed = workers_[i]->frames_processed;
    shard.sniffer = workers_[i]->final_stats;
    accumulate(stats_.merged, shard.sniffer);
    stats_.frames_dropped += shard.frames_dropped;
    stats_.windows_spilled += workers_[i]->windows_spilled;
    stats_.spill_bytes += workers_[i]->spill_bytes;
    stats_.spill_failures += workers_[i]->spill_failures;
  }
  stats_.frame_blocks = pool_ ? pool_->blocks() : 0;
  stats_.frames_dispatched = frames_dispatched_;
  stats_.records_dispatched = records_dispatched_;
  stats_.windows_merged = windows_merged_;
  stats_.merge_total = merge_total_;
  stats_.merge_max = merge_max_;
  if (inbox_) {
    util::MutexLock lock{inbox_->mutex};
    stats_.merge_inbox_peak = inbox_->peak;
  }
  stats_.windows_recovered = windows_recovered_;
  stats_.windows_recomputed = windows_recomputed_;
  stats_.recovery = recovery_stats_;
  stats_.stalled = watchdog_ && watchdog_->stalled();
  stats_.merged.degradation.pipeline_frames_dropped += stats_.frames_dropped;
  accumulate(stats_.merged.degradation, capture_degradation_);
}

}  // namespace dnh::pipeline
