// Shared helpers for dnh_bench: the clock, order statistics, SHA-256,
// child processes, result formatting, and the context stamp every result
// carries.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dnh::e2e {

/// Monotonic nanoseconds: every span and wall time in the benchmark.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linearly interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::string sha256_hex(std::string_view data);
/// SHA-256 of a file's bytes, or "" when it cannot be read. The file is
/// read in fixed-size chunks, each also handed to `each_chunk`.
std::string sha256_file(
    const std::string& path,
    const std::function<void(std::string_view)>& each_chunk = {});

std::string read_file(const std::string& path);
bool write_file(const std::string& path, std::string_view data);

/// "key value" lines, one per entry: the format of the input census, the
/// references and the live-feed child's report.
std::map<std::string, std::string> read_kv(const std::string& path);
bool write_kv(const std::string& path,
              const std::vector<std::pair<std::string, std::string>>& kv);

/// A child process that ran to completion (or was killed at its deadline).
struct ChildRun {
  int exit_code = -1;  ///< -1 when it could not start or died by signal
  double wall_s = 0;   ///< spawn to reap
  double max_rss_mb = 0;  ///< ru_maxrss from wait4
  bool rss_masked = false;  ///< max_rss_mb may be this process's peak
};

/// Path of the running dnh_bench binary, for children of its own.
std::string self_exe();

/// Runs argv with stdout and stderr sent to the given files (truncated)
/// and waits for it. A child still running after `deadline_s` is killed
/// and reported with exit_code -1.
///
/// The child is spawned vfork-style, and Linux folds the spawning
/// process's peak RSS into the child's ru_maxrss at exec. max_rss_mb is
/// therefore the child's own peak only while this process's peak is
/// lower; `rss_masked` says when it is not. Keep heavy work in children
/// or after the measured runs.
ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path,
                   const std::string& stderr_path, double deadline_s = 150);

/// One reported number with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string json_number(double value);
std::string json_string(std::string_view text);
/// {"name": {"value": v, "unit": "u"}, ...}
std::string metrics_json(const Metrics& metrics);

/// Where a result was measured. A result is comparable only when the box
/// offers at least four CPUs and was idle when the run started: the
/// workloads keep up to four threads busy.
struct Context {
  unsigned hw_threads = 0;
  unsigned nproc = 0;
  double loadavg_1m = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
  bool comparable = true;
  std::vector<std::pair<std::string, std::string>> input_hashes;
};

/// Stamps the machine state now; warns on stderr when not comparable.
Context stamp_context();
std::string context_json(const Context& context);

}  // namespace dnh::e2e
