// dnh_bench: the repository's end-to-end benchmark and per-layer ledger.
//
//   dnh_bench prep         [--seed S] [--smoke]
//   dnh_bench run          --workload W [--seed S] [--seconds T] [--trace 0|1]
//   dnh_bench trace        --workload W [--seed S] [--seconds T]
//   dnh_bench repeat-check [--seed S] [--seconds T] [--sets N] [--out-dir DIR]
//   dnh_bench smoke
//
// `run` and `trace` print, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the metrics are
// the end-to-end ones (run) or the per-layer ones (trace). --result-out
// FILE also writes the full result: context stamp, diagnostics, and for
// trace the whole ledger. See README.md for the workloads and metrics.
//
// `live-feed` and `probe` are the children dnh_bench starts itself: the
// live workload's process and the host-speed probe.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "ledger.hpp"
#include "live.hpp"
#include "probe.hpp"
#include "support.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace {

using namespace dnh::e2e;

struct Options {
  std::string command;
  std::string workload;
  RunSettings settings;
  bool trace = false;
  int sets = 2;
  std::string out_dir;
  std::string result_out;
  std::string report;  // live-feed child only
};

[[noreturn]] void usage(const char* error) {
  if (error) std::fprintf(stderr, "error: %s\n", error);
  std::fprintf(stderr,
               "usage: dnh_bench prep [--seed S] [--smoke]\n"
               "       dnh_bench run --workload W [--seed S] [--seconds T] "
               "[--trace 0|1] [--result-out FILE]\n"
               "       dnh_bench trace --workload W [--seed S] [--seconds T] "
               "[--result-out FILE]\n"
               "       dnh_bench repeat-check [--seed S] [--seconds T] "
               "[--sets N] [--out-dir DIR]\n"
               "       dnh_bench smoke\n"
               "workloads:\n");
  for (const Workload& workload : kWorkloads)
    std::fprintf(stderr, "  %-11s %s\n", workload.name, workload.why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Options options;
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.settings.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.settings.seconds = std::strtod(value().c_str(), nullptr);
      if (!(options.settings.seconds > 0)) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--sets") {
      options.sets = std::atoi(value().c_str());
      if (options.sets < 1) usage("--sets must be >= 1");
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--result-out") {
      options.result_out = value();
    } else if (arg == "--report") {
      options.report = value();
    } else if (arg == "--smoke") {
      options.settings.scale = &kSmokeScale;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (options.command == "trace") {
    options.command = "run";
    options.trace = true;
  }
  return options;
}

std::string problems_json(const std::vector<std::string>& problems) {
  std::string out = "[";
  for (const auto& problem : problems)
    out += (out.size() > 1 ? ", " : "") + json_string(problem);
  return out + "]";
}

std::string result_json(const RunResult& result, const Options& options,
                        const Context& context) {
  return "{\"workload\": " + json_string(result.workload) +
         ", \"seed\": " + std::to_string(options.settings.seed) +
         ", \"scale\": " + json_string(options.settings.scale->name) +
         ", \"seconds\": " + json_number(options.settings.seconds) +
         ",\n \"context\": " + context_json(context) +
         ",\n \"correct\": " + (result.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ",\n \"metrics\": " + metrics_json(result.metrics) +
         ",\n \"diagnostics\": " + metrics_json(result.diagnostics) +
         ",\n \"problems\": " + problems_json(result.problems) + "}";
}

void print_result(const RunResult& result) {
  std::fprintf(stderr, "%s: %s, %llu attempted, %llu failed\n",
               result.workload.c_str(), result.correct ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  for (const auto& [name, metric] : result.metrics)
    std::fprintf(stderr, "  %-24s %14.6g %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  for (const auto& [name, metric] : result.diagnostics)
    std::fprintf(stderr, "  (%s %.6g %s)\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  for (const auto& problem : result.problems)
    std::fprintf(stderr, "  FAIL: %s\n", problem.c_str());
}

Context stamp_with(const Inputs& inputs) {
  Context context = stamp_context();
  context.input_hashes = inputs.hashes;
  return context;
}

int cmd_prep(const Options& options) {
  generate_inputs(options.settings.seed, *options.settings.scale);
  const Inputs inputs = prepare_inputs(options.settings.seed,
                                       *options.settings.scale);
  std::printf("inputs for seed %llu in %s\n",
              static_cast<unsigned long long>(options.settings.seed),
              inputs.dir.c_str());
  for (const auto& [key, value] : inputs.census)
    std::printf("  %-28s %s\n", key.c_str(), value.c_str());
  return 0;
}

int cmd_run(const Options& options) {
  const Workload* workload = find_workload(options.workload);
  if (!workload) usage("run needs --workload with a known workload name");
  const Inputs inputs =
      prepare_inputs(options.settings.seed, *options.settings.scale);
  const Context context = stamp_with(inputs);
  RunResult result = run_workload(*workload, inputs, options.settings);
  print_result(result);

  Metrics printed = result.metrics;
  std::string ledger_json;
  if (options.trace) {
    const std::string spans =
        output_dir() + "/" + workload->name + ".trace.json";
    const Ledger ledger = build_ledger(*workload, inputs, result, spans);
    std::fprintf(stderr, "%s ledger (spans: %s)\n%s", workload->name,
                 spans.c_str(), ledger.table.c_str());
    for (const auto& problem : ledger.problems) result.fail(problem);
    printed = ledger.per_layer;
    ledger_json = ledger.json;
  }
  std::string full = result_json(result, options, context);
  if (!ledger_json.empty()) {
    full.pop_back();  // reopen the result object for the ledger
    full += ",\n \"ledger\": " + ledger_json + "}";
  }
  if (!options.result_out.empty() && !write_file(options.result_out, full + "\n"))
    std::fprintf(stderr, "error: cannot write %s\n", options.result_out.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(printed).c_str());
  return result.correct && result.failed == 0 ? 0 : 1;
}

/// Two (or --sets) full sets of all workloads back to back; with two or
/// more, every end-to-end median must repeat within its metric's bound.
int cmd_repeat_check(const Options& options) {
  const Inputs inputs =
      prepare_inputs(options.settings.seed, *options.settings.scale);
  if (!options.out_dir.empty())
    std::filesystem::create_directories(options.out_dir);
  std::vector<std::vector<RunResult>> sets;
  bool ok = true;
  for (int set = 1; set <= options.sets; ++set) {
    const Context context = stamp_with(inputs);
    std::vector<RunResult> results;
    std::string json = "{\"set\": " + std::to_string(set) + ", \"results\": [\n";
    for (const Workload& workload : kWorkloads) {
      results.push_back(run_workload(workload, inputs, options.settings));
      print_result(results.back());
      ok &= results.back().correct && results.back().failed == 0;
      json += (results.size() > 1 ? ",\n" : "") +
              result_json(results.back(), options, context);
    }
    json += "\n]}\n";
    if (!options.out_dir.empty()) {
      const std::string path = options.out_dir + "/repeat-seed" +
                               std::to_string(options.settings.seed) +
                               "-set" + std::to_string(set) + ".json";
      if (!write_file(path, json))
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    }
    sets.push_back(std::move(results));
  }
  if (sets.size() < 2) return ok ? 0 : 1;

  dnh::util::TextTable table{
      {"workload", "metric", "set 1", "set 2", "change", "bound", "verdict"}};
  for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
    for (const EndToEndMetric& metric : kEndToEnd) {
      const double a = sets[0][w].metrics.at(metric.name).value;
      const double b = sets[1][w].metrics.at(metric.name).value;
      const double change = a != 0 ? (b - a) / a : (b == a ? 0.0 : 1.0);
      const bool within = std::fabs(change) <= metric.bound;
      ok &= within;
      char buf[4][32];
      std::snprintf(buf[0], sizeof buf[0], "%.6g", a);
      std::snprintf(buf[1], sizeof buf[1], "%.6g", b);
      std::snprintf(buf[2], sizeof buf[2], "%+.2f%%", change * 100);
      std::snprintf(buf[3], sizeof buf[3], "%.0f%%", metric.bound * 100);
      table.add_row({kWorkloads[w].name, metric.name, buf[0], buf[1], buf[2],
                     buf[3], within ? "ok" : "FAIL"});
    }
  }
  std::printf("%srepeat-check: %s\n", table.render().c_str(),
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

/// Tiny inputs, every workload, one ledger, every gate: a fast check that
/// the benchmark and the program still work end to end.
int cmd_smoke(Options options) {
  const std::int64_t start = now_ns();
  options.settings.scale = &kSmokeScale;
  options.settings.seconds = 0.3;
  const Inputs inputs = prepare_inputs(options.settings.seed, kSmokeScale);
  bool ok = true;
  std::vector<RunResult> results;
  for (const Workload& workload : kWorkloads) {
    results.push_back(run_workload(workload, inputs, options.settings));
    print_result(results.back());
    ok &= results.back().correct && results.back().failed == 0;
  }
  // Last: the ledger loads the inputs into this process, and children
  // spawned after that could not have their peak RSS measured.
  const Ledger ledger =
      build_ledger(kWorkloads[0], inputs, results[0],
                   output_dir() + "/" + kWorkloads[0].name + ".smoke.trace.json");
  std::fprintf(stderr, "%s", ledger.table.c_str());
  ok &= ledger.problems.empty();
  std::printf("smoke: %s in %.1f s\n", ok ? "PASS" : "FAIL",
              static_cast<double>(now_ns() - start) * 1e-9);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (options.command == "prep") return cmd_prep(options);
  if (options.command == "run") return cmd_run(options);
  if (options.command == "repeat-check") return cmd_repeat_check(options);
  if (options.command == "smoke") return cmd_smoke(options);
  if (options.command == "live-feed") {
    if (options.report.empty()) usage("live-feed needs --report FILE");
    return live_feed_main(options.settings, options.report);
  }
  if (options.command == "probe") {
    std::printf("%.9f\n", probe_kernel_s());
    return 0;
  }
  usage(("unknown command " + options.command).c_str());
}
