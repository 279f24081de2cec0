// live-j2: the capture's frames held in memory and offered open loop to
// one long-running pipeline::ShardedAnalyzer{shards = 2, 60 s windows,
// kDrop}.
//
// The capture is offered in passes, each shifted in capture time past the
// previous one, as one continuous stream: frame j of the stream is due at
// t0 + j / rate whether or not the analyzer kept up, so a stall delays
// every later frame and overload shows up as dropped frames instead of a
// slower run. Pass 0 is the warm-up (cold tables, first allocations); the
// metrics come from the passes after it. The feeding thread is the
// dispatcher; with two workers and the merge thread that is four busy
// threads.
//
// Window latency runs from the due time of the frame that crosses a window
// boundary to the moment the sink receives that window. Windows without
// flows, and the final window, closed by finish() rather than by a frame,
// are not samples.
//
// No spill directory: the benchmark writes only inside its checkout, and
// an fsync per sealed window on that disk would dominate window latency
// and vary with other tenants' I/O.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/live.hpp"
#include "net/bytes.hpp"
#include "pipeline/pipeline.hpp"
#include "util/time.hpp"
#include "workloads.hpp"

namespace dnh::e2e {

/// Offered rate. In sizing, 1M frames/s dropped nothing in five runs but
/// filled a shard ring to 10k of its 16k slots (a stall of ~20 ms); at
/// 500k a ring stays under 6k, so a stall must last over 60 ms to drop.
inline constexpr double kLiveRate = 500'000;
inline constexpr util::Duration kLiveWindow = util::Duration::minutes(1);

/// A capture held in one contiguous buffer.
struct FrameArena {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;  ///< frame i is [offsets[i], offsets[i+1])
  std::vector<util::Timestamp> stamps;

  std::size_t size() const noexcept { return stamps.size(); }
  net::BytesView frame(std::size_t i) const noexcept {
    return {bytes.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// Reads a capture into memory; exits on a read error. `read_ns`, when
/// given, receives the time spent inside the reader (outside the copy).
FrameArena load_frames(const std::string& path, std::int64_t* read_ns = nullptr);

/// Traced runs keep a span for one input in this many.
inline constexpr std::uint64_t kSpanEvery = 1024;

/// Per-call timings of the timed passes of one traced feed.
struct FeedTrace {
  std::vector<std::uint32_t> dispatch_ns;  ///< each on_frame call
  std::vector<std::int64_t> span_starts;   ///< start of call k * kSpanEvery
  std::vector<std::uint32_t> sink_ns;      ///< each sink call
  std::int64_t idle_ns = 0;                ///< waiting for due times
  std::int64_t finish_ns = 0;
};

struct FeedResult {
  double setup_s = 0;  ///< the ShardedAnalyzer constructor
  std::uint64_t timed_frames = 0;
  double wall_s = 0;  ///< first timed frame's due time until finish() returned
  std::vector<double> window_latency_ms;  ///< windows closed by timed frames
  double lag_p99_us = 0;  ///< how late the generator ran, over timed frames
  std::uint64_t dropped = 0;
  std::uint64_t timed_flows = 0;    ///< flows that began in timed passes
  std::uint64_t timed_labeled = 0;
  std::vector<std::uint64_t> pass_flows;  ///< flows by the pass they began in
  /// Delivered windows that may hold warm-up flows (pass 0 and 1).
  std::vector<core::AnalysisWindow> early_windows;
  util::Timestamp timed_start;  ///< capture time where pass 1 begins
  pipeline::PipelineStats stats;
};

/// Offers `frames` once as warm-up and `timed_passes` more times. With
/// `trace`, also times each call of the timed passes.
FeedResult run_feed(const FrameArena& frames, std::size_t timed_passes,
                    FeedTrace* trace = nullptr);

/// The flows of `windows` that began before `before`, merged the way the
/// CLI's sink merges windows, canonicalized and written as TSV: the
/// byte-identity check of the warm-up pass against the --jobs 1
/// reference. Optionally times the two public calls.
TsvSummary windows_to_tsv(std::vector<core::AnalysisWindow>& windows,
                          util::Timestamp before, const std::string& path,
                          std::int64_t* canonicalize_ns = nullptr,
                          std::int64_t* write_ns = nullptr);

/// `dnh_bench live-feed`: the child process that measures live-j2 and
/// writes its report to `report_path`.
int live_feed_main(const RunSettings& settings, const std::string& report_path);

/// Runs live-j2 in a child process and reads its report.
RunResult run_live(const Workload& workload, const Inputs& inputs,
                   const RunSettings& settings);

}  // namespace dnh::e2e
