#include "live.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unordered_map>

#include "core/flowdb_io.hpp"
#include "pcap/pcapng.hpp"
#include "probe.hpp"

namespace dnh::e2e {

namespace {

constexpr int kSetupSamples = 11;
/// Host probes before the feed and again after it.
constexpr int kLiveProbes = 3;
constexpr util::Duration kPassGap = util::Duration::minutes(10);

pipeline::PipelineConfig live_config() {
  pipeline::PipelineConfig config;
  config.shards = 2;
  config.window = kLiveWindow;
  config.backpressure = pipeline::BackpressurePolicy::kDrop;
  config.queue_capacity = 1 << 14;
  return config;
}

/// Capture-time shift between passes: the capture's span plus a gap, in
/// whole windows so that every pass meets the same window grid.
std::int64_t pass_stride_us(const FrameArena& frames) {
  const auto [lo, hi] =
      std::minmax_element(frames.stamps.begin(), frames.stamps.end());
  const std::int64_t width = kLiveWindow.total_micros();
  const std::int64_t span = (*hi - *lo).total_micros() + kPassGap.total_micros();
  return (span / width + 1) * width;
}

/// Stream index of the frame whose arrival closes each window, keyed by
/// the window's end in microseconds. The analyzer aligns windows to
/// multiples of their length; a frame that skips several boundaries
/// closes them all.
std::unordered_map<std::int64_t, std::uint64_t> window_closers(
    const FrameArena& frames, std::size_t passes, std::int64_t stride_us) {
  std::unordered_map<std::int64_t, std::uint64_t> closers;
  const std::int64_t width = kLiveWindow.total_micros();
  std::int64_t open = frames.stamps[0].micros_since_epoch() / width;
  for (std::size_t p = 0; p < passes; ++p) {
    const std::int64_t shift = static_cast<std::int64_t>(p) * stride_us;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const std::int64_t window =
          (frames.stamps[i].micros_since_epoch() + shift) / width;
      for (; open < window; ++open)
        closers[(open + 1) * width] = p * frames.size() + i;
    }
  }
  return closers;
}

/// Counts per whole microsecond: a p99 without keeping every sample.
class LagHistogram {
 public:
  void add(std::int64_t ns) {
    const auto us = static_cast<std::size_t>(std::max<std::int64_t>(ns, 0) / 1000);
    ++counts_[std::min(us, counts_.size() - 1)];
    ++total_;
  }
  double quantile_us(double q) const {
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    std::uint64_t seen = 0;
    for (std::size_t us = 0; us < counts_.size(); ++us) {
      seen += counts_[us];
      if (seen > rank) return static_cast<double>(us);
    }
    return static_cast<double>(counts_.size() - 1);
  }

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(100'000);
  std::uint64_t total_ = 0;
};

}  // namespace

FrameArena load_frames(const std::string& path, std::int64_t* read_ns) {
  FrameArena arena;
  arena.offsets.push_back(0);
  std::string error;
  std::int64_t copy_ns = 0;
  const std::int64_t t0 = now_ns();
  const bool ok = pcap::read_any_capture(
      path,
      [&](const pcap::Frame& frame) {
        const std::int64_t c0 = read_ns ? now_ns() : 0;
        arena.bytes.insert(arena.bytes.end(), frame.data.begin(),
                           frame.data.end());
        arena.offsets.push_back(arena.bytes.size());
        arena.stamps.push_back(frame.timestamp);
        if (read_ns) copy_ns += now_ns() - c0;
      },
      error);
  if (read_ns) *read_ns = now_ns() - t0 - copy_ns;
  if (!ok || arena.size() == 0) {
    std::fprintf(stderr, "dnh_bench: cannot read frames from %s: %s\n",
                 path.c_str(), error.c_str());
    std::exit(1);
  }
  return arena;
}

FeedResult run_feed(const FrameArena& frames, std::size_t timed_passes,
                    FeedTrace* trace) {
  FeedResult result;
  const std::size_t n = frames.size();
  const std::size_t passes = timed_passes + 1;
  const std::int64_t stride_us = pass_stride_us(frames);
  const std::int64_t first_us = frames.stamps[0].micros_since_epoch();
  result.timed_start = util::Timestamp::from_micros(first_us + stride_us);
  result.pass_flows.assign(passes, 0);
  const auto closers = window_closers(frames, passes, stride_us);
  struct Receipt {
    std::int64_t end_us;
    std::int64_t at_ns;
  };
  std::vector<Receipt> receipts;
  receipts.reserve(closers.size() + 1);
  if (trace) {
    trace->dispatch_ns.assign(timed_passes * n, 0);
    trace->span_starts.clear();
    trace->sink_ns.clear();
    trace->sink_ns.reserve(closers.size() + 1);
  }

  // The sink runs on the merge thread; everything it touches is read only
  // after finish() has joined that thread. Warm-up flows still open when
  // pass 1 begins are exported into its first windows, so windows are
  // kept until pass 1 ends.
  const std::int64_t keep_before_us = first_us + 2 * stride_us;
  auto sink = [&](core::AnalysisWindow&& window) {
    const std::int64_t at = now_ns();
    // Windows without flows (the gaps between replicas, mostly) are
    // delivered with no merge work; they are not results anyone waits on.
    if (window.db.size() > 0)
      receipts.push_back({window.end.micros_since_epoch(), at});
    for (const auto& flow : window.db.flows()) {
      const std::int64_t pass = std::clamp<std::int64_t>(
          (flow.first_packet.micros_since_epoch() - first_us) / stride_us, 0,
          static_cast<std::int64_t>(passes) - 1);
      ++result.pass_flows[static_cast<std::size_t>(pass)];
      if (pass > 0) {
        ++result.timed_flows;
        result.timed_labeled += flow.labeled();
      }
    }
    if (window.start.micros_since_epoch() < keep_before_us)
      result.early_windows.push_back(std::move(window));
    if (trace)
      trace->sink_ns.push_back(static_cast<std::uint32_t>(now_ns() - at));
  };
  const std::int64_t c0 = now_ns();
  pipeline::ShardedAnalyzer analyzer{live_config(), sink};
  const std::int64_t t0 = now_ns();
  result.setup_s = static_cast<double>(t0 - c0) * 1e-9;

  const double period_ns = 1e9 / kLiveRate;
  const auto due = [&](std::uint64_t j) {
    return t0 + std::llround(static_cast<double>(j) * period_ns);
  };
  LagHistogram lags;
  std::int64_t idle = 0;
  for (std::size_t p = 0; p < passes; ++p) {
    const util::Duration shift =
        util::Duration::micros(static_cast<std::int64_t>(p) * stride_us);
    const bool timed = p > 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t j = p * n + i;
      const std::int64_t due_j = due(j);
      std::int64_t now = now_ns();
      if (now < due_j) {
        const std::int64_t wait_start = now;
        while ((now = now_ns()) < due_j) {
        }
        if (timed) idle += now - wait_start;
      }
      if (timed) lags.add(now - due_j);
      analyzer.on_frame(frames.frame(i), frames.stamps[i] + shift);
      if (trace && timed) {
        const std::uint64_t k = j - n;
        trace->dispatch_ns[k] = static_cast<std::uint32_t>(now_ns() - now);
        if (k % kSpanEvery == 0) trace->span_starts.push_back(now);
      }
    }
  }
  const std::int64_t f0 = now_ns();
  analyzer.finish();
  const std::int64_t t1 = now_ns();
  result.timed_frames = timed_passes * n;
  result.wall_s = static_cast<double>(t1 - due(n)) * 1e-9;
  if (trace) {
    trace->idle_ns = idle;
    trace->finish_ns = t1 - f0;
  }
  result.stats = analyzer.stats();
  result.dropped = result.stats.frames_dropped;
  result.lag_p99_us = lags.quantile_us(0.99);
  for (const Receipt& receipt : receipts) {
    const auto closer = closers.find(receipt.end_us);
    if (closer == closers.end() || closer->second < n) continue;
    result.window_latency_ms.push_back(
        static_cast<double>(receipt.at_ns - due(closer->second)) * 1e-6);
  }
  return result;
}

TsvSummary windows_to_tsv(std::vector<core::AnalysisWindow>& windows,
                          util::Timestamp before, const std::string& path,
                          std::int64_t* canonicalize_ns,
                          std::int64_t* write_ns) {
  core::FlowDatabase db;
  for (auto& window : windows)
    for (auto& flow : window.db.take_flows())
      if (flow.first_packet < before) db.add(std::move(flow));
  const std::int64_t t0 = now_ns();
  pipeline::canonicalize(db);
  const std::int64_t t1 = now_ns();
  core::write_flow_tsv(db, path);
  const std::int64_t t2 = now_ns();
  if (canonicalize_ns) *canonicalize_ns = t1 - t0;
  if (write_ns) *write_ns = t2 - t1;
  TsvSummary summary = summarize_tsv(path);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return summary;
}

namespace {

std::size_t queue_high_water(const pipeline::PipelineStats& stats) {
  std::size_t high = 0;
  for (const auto& shard : stats.shards)
    high = std::max(high, shard.queue_high_water);
  return high;
}

}  // namespace

int live_feed_main(const RunSettings& settings,
                   const std::string& report_path) {
  const Inputs inputs = prepare_inputs(settings.seed, *settings.scale);
  const FrameArena frames = load_frames(inputs.capture_pcap);

  std::vector<double> setup;
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::int64_t c0 = now_ns();
    pipeline::ShardedAnalyzer analyzer{live_config(),
                                       [](core::AnalysisWindow&&) {}};
    setup.push_back(static_cast<double>(now_ns() - c0) * 1e-9);
    analyzer.finish();
  }

  const auto timed_passes = static_cast<std::size_t>(std::max(
      3.0, std::ceil(settings.seconds * kLiveRate /
                     static_cast<double>(frames.size()))));
  FeedResult feed = run_feed(frames, timed_passes);
  setup.push_back(feed.setup_s);

  // Without drops every pass must yield the reference's flows, and the
  // warm-up pass, merged and canonicalized, its TSV byte for byte.
  std::string problems;
  if (feed.dropped == 0) {
    for (std::size_t p = 0; p < feed.pass_flows.size(); ++p)
      if (feed.pass_flows[p] != inputs.capture_ref.flows)
        problems += "pass " + std::to_string(p) + " yielded " +
                    std::to_string(feed.pass_flows[p]) + " flows, reference " +
                    std::to_string(inputs.capture_ref.flows) + "; ";
    const TsvSummary tsv = windows_to_tsv(feed.early_windows, feed.timed_start,
                                          output_dir() + "/live-j2.tsv");
    if (tsv.sha256 != inputs.capture_ref.sha256)
      problems += "warm-up windows differ from the --jobs 1 TSV; ";
  }

  const std::vector<double>& latencies = feed.window_latency_ms;
  const bool ok = write_kv(
      report_path,
      {{"setup_s", json_number(median(setup))},
       {"inputs_per_s",
        json_number(static_cast<double>(feed.timed_frames -
                                        std::min(feed.dropped, feed.timed_frames)) /
                    feed.wall_s)},
       {"tag_ratio",
        json_number(feed.timed_flows ? static_cast<double>(feed.timed_labeled) /
                                           static_cast<double>(feed.timed_flows)
                                     : 0.0)},
       {"window_latency_p50_ms", json_number(quantile(latencies, 0.5))},
       {"window_latency_p90_ms", json_number(quantile(latencies, 0.9))},
       {"window_latency_p99_ms", json_number(quantile(latencies, 0.99))},
       {"window_latency_samples", std::to_string(latencies.size())},
       {"dispatch_lag_p99_us", json_number(feed.lag_p99_us)},
       {"timed_passes", std::to_string(timed_passes)},
       {"offered", std::to_string(frames.size() * (timed_passes + 1))},
       {"dropped", std::to_string(feed.dropped)},
       {"queue_high_water", std::to_string(queue_high_water(feed.stats))},
       {"problems", problems}});
  return ok ? 0 : 1;
}

RunResult run_live(const Workload& workload, const Inputs& inputs,
                   const RunSettings& settings) {
  RunResult result;
  result.workload = workload.name;
  const std::string out = output_dir();
  const std::string report = out + "/live-j2.report";
  std::error_code ec;
  std::filesystem::remove(report, ec);
  std::vector<std::string> argv = {
      self_exe(), "live-feed", "--seed", std::to_string(settings.seed),
      "--seconds", json_number(settings.seconds), "--report", report};
  if (settings.scale == &kSmokeScale) argv.push_back("--smoke");
  // The feed keeps four threads busy, so the host is probed around it.
  std::vector<double> probes;
  const auto probe = [&] {
    for (int i = 0; i < kLiveProbes; ++i) {
      if (const double s = probe_host_s(); s > 0)
        probes.push_back(s);
      else
        result.fail("host probe failed");
    }
  };
  probe();
  const ChildRun child =
      run_child(argv, out + "/live-j2.stdout", out + "/live-j2.stderr");
  probe();
  const auto kv = read_kv(report);
  if (child.exit_code != 0 || kv.empty()) {
    result.attempted = std::max<std::uint64_t>(1, inputs.capture_frames);
    result.failed = result.attempted;
    result.fail("live-feed child failed (see " + out + "/live-j2.stderr)");
    return result;
  }
  const auto number = [&](const char* key) {
    const auto it = kv.find(key);
    return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  };
  result.attempted = static_cast<std::uint64_t>(number("offered"));
  result.failed = static_cast<std::uint64_t>(number("dropped"));
  // The delivered rate is set by the generator, not by the host's speed,
  // so only the times are scaled.
  const double slowdown = host_slowdown(probes);
  result.metrics = {
      {"inputs_per_s", {number("inputs_per_s"), "1/s"}},
      {"peak_rss_mb", {child.max_rss_mb, "MB"}},
      {"setup_s", {number("setup_s") / slowdown, "s"}},
      {"tag_ratio", {number("tag_ratio"), "ratio"}},
      {"window_latency_p50_ms",
       {number("window_latency_p50_ms") / slowdown, "ms"}},
  };
  result.diagnostics = {
      {"host_probe_s", {median(probes), "s"}},
      {"host_slowdown", {slowdown, "ratio"}},
      {"setup_s_raw", {number("setup_s"), "s"}},
      {"window_latency_p50_ms_raw", {number("window_latency_p50_ms"), "ms"}},
      {"window_latency_p90_ms_raw", {number("window_latency_p90_ms"), "ms"}},
      {"window_latency_p99_ms_raw", {number("window_latency_p99_ms"), "ms"}},
      {"window_latency_samples", {number("window_latency_samples"), "count"}},
      {"dispatch_lag_p99_us", {number("dispatch_lag_p99_us"), "us"}},
      {"timed_passes", {number("timed_passes"), "count"}},
      {"queue_high_water", {number("queue_high_water"), "count"}},
      {"drop_ratio",
       {result.attempted ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 0.0,
        "ratio"}},
  };
  if (const auto it = kv.find("problems"); it != kv.end() && !it->second.empty())
    result.fail(it->second);
  if (child.rss_masked)
    result.fail("peak RSS of the child not measurable: dnh_bench is larger");
  return result;
}

}  // namespace dnh::e2e
