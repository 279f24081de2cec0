// The four workloads and their end-to-end measurement (tracing off).
//
// capture-j1, capture-j3 and export-j3 exec the real `dnhunter export`
// binary as a child process, closed loop: the next run starts when the
// previous one exits. live-j2 offers the capture's frames open loop at a
// fixed rate to a pipeline::ShardedAnalyzer, in a child process of its own
// (live.hpp). Every workload reports the same end-to-end metrics:
//
//   inputs_per_s           frames + export records per second of wall time
//                          (for live, those delivered: offered less dropped)
//   peak_rss_mb            ru_maxrss of the child, from wait4
//   setup_s                median set-up time (header-only runs; for live,
//                          the ShardedAnalyzer constructor)
//   tag_ratio              labelled flows / flows in the output
//   window_latency_p50_ms  result latency: from the due time of the input
//                          that closes a window until the window is
//                          delivered. A CLI run is one window whose inputs
//                          are all due at exec, so its latency is its wall
//                          time; live windows are 60 s of capture time.
//
// Tails (p90, p99) are diagnostics: over the few runs of a CLI workload
// they measure the host's jitter rather than the program, and on the
// shared host the benchmark was sized on, neither repeated within its
// bound from one set of runs to the next.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.hpp"
#include "support.hpp"

namespace dnh::e2e {

enum class Engine { kCli, kLive };

struct Workload {
  const char* name;
  const char* why;
  Engine engine;
  int jobs;          ///< --jobs for the CLI; worker shards for live
  bool flow_export;  ///< reads dns.pcap + flows.dnhx instead of capture.pcap
};

inline constexpr std::array<Workload, 4> kWorkloads = {{
    {"capture-j1",
     "single-thread baseline of the user path: pcap read, sniffer layers, "
     "canonicalize and TSV emit do all the work",
     Engine::kCli, 1, false},
    {"capture-j3",
     "the sharded path: the serial dispatcher and its ring waits sit on the "
     "critical path, sniffing is spread over 3 workers",
     Engine::kCli, 3, false},
    {"export-j3",
     "rings carry export records, every frame is DNS so the resolver is "
     "insert-heavy, and the flow table is bypassed",
     Engine::kCli, 3, true},
    {"live-j2",
     "open-loop feed at a fixed rate: per-window seal, spill, merge and "
     "sink are on the measured path, overload shows as drops",
     Engine::kLive, 2, false},
}};

/// An end-to-end metric and the share of its median by which it may
/// worsen before a change counts as a regression. Mirrors BENCHMARK.json;
/// repeat-check holds two sets of runs of one build to these bounds. Each
/// bound is about three times the spread (quartile distance over median)
/// of ten runs on ten seeds on a shared 4-vCPU host; see README.md.
struct EndToEndMetric {
  const char* name;
  double bound;
};

inline constexpr std::array<EndToEndMetric, 5> kEndToEnd = {{
    {"inputs_per_s", 0.20},
    {"peak_rss_mb", 0.10},
    {"setup_s", 0.25},
    {"tag_ratio", 0.10},
    {"window_latency_p50_ms", 0.25},
}};

const Workload* find_workload(std::string_view name);

/// The `dnhunter export` command line of a CLI workload, on its inputs or
/// on the header-only files, writing its TSV to `tsv`.
std::vector<std::string> cli_command(const Workload& workload,
                                     const Inputs& inputs, bool header_only,
                                     const std::string& tsv);

/// Frames plus export records the workload consumes per run.
std::uint64_t workload_inputs(const Workload& workload, const Inputs& inputs);

/// One workload's measurement.
struct RunResult {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;  ///< runs (CLI) or frames offered (live)
  std::uint64_t failed = 0;     ///< failed runs (CLI) or dropped frames
  Metrics metrics;              ///< the end-to-end metrics above
  Metrics diagnostics;          ///< sample counts, extremes, extra tails
  std::vector<std::string> problems;

  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
};

struct RunSettings {
  std::uint64_t seed = 11;
  const Scale* scale = &kFullScale;
  double seconds = 15;  ///< timed part of the run (BENCHMARK.json run_seconds)
};

/// Measures `workload` with tracing off: set-up samples, one warm-up run,
/// then timed runs until `seconds` have passed (at least three).
RunResult run_workload(const Workload& workload, const Inputs& inputs,
                       const RunSettings& settings);

/// Where runs write their outputs (TSVs, spill, logs): inside the cache.
std::string output_dir();

}  // namespace dnh::e2e
