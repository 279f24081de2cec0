#include "workloads.hpp"

#include <cstdlib>
#include <filesystem>

#include "live.hpp"
#include "probe.hpp"

namespace dnh::e2e {

std::vector<std::string> cli_command(const Workload& workload,
                                     const Inputs& inputs, bool header_only,
                                     const std::string& tsv) {
  std::vector<std::string> argv = {DNH_BENCH_CLI, "export"};
  if (workload.flow_export) {
    argv.push_back(header_only ? inputs.empty_pcap : inputs.dns_pcap);
    argv.push_back("--flow-export");
    argv.push_back(header_only ? inputs.empty_dnhx : inputs.flows_dnhx);
  } else {
    argv.push_back(header_only ? inputs.empty_pcap : inputs.capture_pcap);
  }
  argv.insert(argv.end(), {"--out", tsv, "--jobs", std::to_string(workload.jobs)});
  return argv;
}

namespace {

/// Set-up samples per run: header-only runs of the same command.
constexpr int kSetupSamples = 11;
constexpr int kMinTimedRuns = 3;

/// The flow count `dnhunter export` prints ("wrote N labeled+unlabeled
/// flows to FILE"), or -1 when the line is missing.
long long reported_flows(const std::string& stdout_path) {
  const std::string text = read_file(stdout_path);
  const auto at = text.find("wrote ");
  if (at == std::string::npos) return -1;
  return std::strtoll(text.c_str() + at + 6, nullptr, 10);
}

struct CliRun {
  ChildRun child;
  double tag_ratio = 0;
  std::string problem;  ///< empty when the run passed every gate
};

/// One `dnhunter export` run, checked against the --jobs 1 reference:
/// exit status, reported flow count and TSV sha256.
CliRun run_cli(const Workload& workload, const Inputs& inputs,
               const TsvSummary& reference) {
  const std::string out = output_dir() + "/" + workload.name;
  CliRun run;
  run.child = run_child(cli_command(workload, inputs, false, out + ".tsv"),
                        out + ".stdout", out + ".stderr");
  if (run.child.exit_code != 0) {
    run.problem = "exit code " + std::to_string(run.child.exit_code) +
                  " (see " + out + ".stderr)";
    return run;
  }
  const long long flows = reported_flows(out + ".stdout");
  const TsvSummary tsv = summarize_tsv(out + ".tsv");
  std::error_code ec;
  std::filesystem::remove(out + ".tsv", ec);
  run.tag_ratio = tsv.tag_ratio();
  if (flows != static_cast<long long>(reference.flows))
    run.problem = "reported " + std::to_string(flows) + " flows, reference " +
                  std::to_string(reference.flows);
  else if (tsv.sha256 != reference.sha256)
    run.problem = "TSV differs from the --jobs 1 reference";
  return run;
}

RunResult run_cli_workload(const Workload& workload, const Inputs& inputs,
                           const RunSettings& settings) {
  RunResult result;
  result.workload = workload.name;
  const TsvSummary& reference =
      workload.flow_export ? inputs.export_ref : inputs.capture_ref;
  const auto record = [&](const CliRun& run) {
    ++result.attempted;
    if (!run.problem.empty()) {
      ++result.failed;
      result.fail(run.problem);
    }
  };

  const std::string out = output_dir() + "/" + workload.name + "-setup";
  std::vector<double> setup;
  for (int i = 0; i < kSetupSamples; ++i) {
    const ChildRun child =
        run_child(cli_command(workload, inputs, true, out + ".tsv"),
                  out + ".stdout", out + ".stderr");
    ++result.attempted;
    if (child.exit_code != 0) {
      ++result.failed;
      result.fail("header-only run failed (see " + out + ".stderr)");
    }
    setup.push_back(child.wall_s);
  }

  record(run_cli(workload, inputs, reference));  // warm-up: fills page cache
  // Timed runs until `seconds` of them, each right after a host probe.
  std::vector<double> walls, rss, tag_ratios, probes;
  bool rss_masked = false;
  double timed_s = 0;
  while (walls.size() < kMinTimedRuns || timed_s < settings.seconds) {
    if (const double probe = probe_host_s(); probe > 0)
      probes.push_back(probe);
    else
      result.fail("host probe failed");
    const CliRun run = run_cli(workload, inputs, reference);
    record(run);
    rss_masked |= run.child.rss_masked;
    walls.push_back(run.child.wall_s);
    timed_s += run.child.wall_s;
    rss.push_back(run.child.max_rss_mb);
    tag_ratios.push_back(run.tag_ratio);
  }
  if (rss_masked)
    result.fail("peak RSS of the child not measurable: dnh_bench is larger");

  const double inputs_n = static_cast<double>(workload_inputs(workload, inputs));
  const double slowdown = host_slowdown(probes);
  result.metrics = {
      {"inputs_per_s", {inputs_n / median(walls) * slowdown, "1/s"}},
      {"peak_rss_mb", {median(rss), "MB"}},
      {"setup_s", {median(setup) / slowdown, "s"}},
      {"tag_ratio", {median(tag_ratios), "ratio"}},
      {"window_latency_p50_ms", {median(walls) * 1e3 / slowdown, "ms"}},
  };
  result.diagnostics = {
      {"host_probe_s", {median(probes), "s"}},
      {"host_slowdown", {slowdown, "ratio"}},
      {"inputs_per_s_raw", {inputs_n / median(walls), "1/s"}},
      {"setup_s_raw", {median(setup), "s"}},
      {"window_latency_p50_ms_raw", {median(walls) * 1e3, "ms"}},
      {"window_latency_p90_ms_raw", {quantile(walls, 0.9) * 1e3, "ms"}},
      {"runs", {static_cast<double>(walls.size()), "count"}},
      {"wall_min_s", {quantile(walls, 0), "s"}},
      {"wall_median_s", {median(walls), "s"}},
      {"wall_max_s", {quantile(walls, 1), "s"}},
      {"setup_min_s", {quantile(setup, 0), "s"}},
      {"setup_max_s", {quantile(setup, 1), "s"}},
      {"peak_rss_max_mb", {quantile(rss, 1), "MB"}},
  };
  return result;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads)
    if (name == workload.name) return &workload;
  return nullptr;
}

std::uint64_t workload_inputs(const Workload& workload, const Inputs& inputs) {
  return workload.flow_export ? inputs.dns_frames + inputs.export_records
                              : inputs.capture_frames;
}

std::string output_dir() {
  const std::string dir = cache_root() + "/out";
  std::filesystem::create_directories(dir);
  return dir;
}

RunResult run_workload(const Workload& workload, const Inputs& inputs,
                       const RunSettings& settings) {
  return workload.engine == Engine::kLive
             ? run_live(workload, inputs, settings)
             : run_cli_workload(workload, inputs, settings);
}

}  // namespace dnh::e2e
