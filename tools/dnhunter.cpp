// dnhunter — command-line front end to the DN-Hunter library.
//
// Operates on pcap captures that contain both DNS and data traffic (any
// capture taken between clients and their resolver works):
//
//   dnhunter summary   <pcap>
//   dnhunter flows     <pcap> [--limit N] [--unlabeled] [--port N]
//   dnhunter tags      <pcap> --port N [--top K] [--raw]
//   dnhunter spatial   <pcap> <fqdn> [--orgdb FILE]
//   dnhunter tree      <pcap> <2nd-level-domain> [--orgdb FILE]
//   dnhunter content   <pcap> --provider NAME --orgdb FILE [--top K]
//   dnhunter anomalies <pcap> [--orgdb FILE] [--min-history N]
//   dnhunter policy    <pcap> [--block SUFFIX]... [--prioritize SUFFIX]...
//   dnhunter churn     <pcap> <2nd-level-domain> [--orgdb FILE] [--bin MIN]
//   dnhunter dga       <pcap> [--min-queries N]
//   dnhunter tangle    <pcap> [--top K] [--min-shared N]
//   dnhunter export    <pcap> --out FILE.tsv
//   dnhunter volume    <pcap> [--depth N] [--top K]
//   dnhunter delays    <pcap>
//   dnhunter dimension <pcap> [--sizes L1,L2,...]
//   dnhunter chaos     <pcap> [--rate R] [--seed S]
//   dnhunter stats     <pcap>
//   dnhunter trace-cat <trace.dnht>
//
// Every pcap-reading command accepts --resync to keep going over damaged
// captures (skip-and-resync with a corruption report on stderr) instead
// of the default strict abort, and --jobs N to shard ingestion over N
// worker threads (results are bit-identical to --jobs 1; see
// docs/pipeline.md). Every --jobs value reads through the one windowed
// engine, pipeline::ShardedAnalyzer, which runs --jobs 1 inline on the
// main thread. `policy` and `chaos` drive the sniffer directly and
// always run single-threaded.
//
// Flow sources (docs/flow-export.md): the capture argument may also be a
// DIRECTORY of rotated captures (*.pcap, *.pcapng, *.cap), replayed in
// filename order through one analyzer — output is identical to running
// the concatenated capture. --flow-export FILE (or "-" for stdin) reads a
// DNHX-framed NetFlow-v5/IPFIX datagram stream as the flow evidence; the
// capture argument then supplies only DNS traffic, and flows are
// record-derived instead of packet-derived (tagging and TSV output are
// unchanged).
//
// Durability and lifecycle (docs/recovery.md): --spill-dir DIR makes
// every sealed window durable (CRC-framed spill segments + manifest
// journal) before it is merged; --resume replays DIR's manifest after a
// crash and serves the recovered window prefix from the spilled bytes,
// producing output byte-identical to an uninterrupted run. --window S
// rotates analysis windows every S seconds (the streaming mode those
// spills protect). SIGINT/SIGTERM drain gracefully — seal, spill, merge,
// flush metrics, exit 0 with results covering the processed prefix.
// --watchdog S arms a stall detector: a pipeline with pending work but no
// stage progress for S seconds prints a typed diagnostic and exits 4
// instead of hanging (--jobs 1 has no stage hand-off to watch).
//
// Observability (docs/observability.md): --metrics-out FILE streams a
// JSON-lines metrics snapshot every --metrics-interval S seconds while
// the command runs; --metrics-prom FILE writes one Prometheus text dump
// at exit; --stats (or the `stats` command) prints the human metrics
// summary — per-stage latency breakdown, counters, gauges — at exit.
// Every exit path (including read failures) funnels through the same
// finalization, so the exporters always see the final state.
//
// The optional org database file maps address blocks to organizations,
// one "CIDR NAME" pair per line (the role whois/MaxMind plays in the
// paper); without it, addresses are attributed to /16 prefixes.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/anomaly.hpp"
#include "analytics/cdn_tracking.hpp"
#include "analytics/content.hpp"
#include "analytics/delay.hpp"
#include "analytics/dga.hpp"
#include "analytics/dimensioning.hpp"
#include "analytics/domain_tree.hpp"
#include "analytics/service_tags.hpp"
#include "analytics/spatial.hpp"
#include "analytics/tangle.hpp"
#include "analytics/volume.hpp"
#include "core/flowdb_io.hpp"
#include "core/policy.hpp"
#include "core/sniffer.hpp"
#include "faultinject/faultinject.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/traceio.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/source.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace dnh;

struct Args {
  std::string command;
  std::string pcap;
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  std::optional<std::string> option(const std::string& name) const {
    for (const auto& [key, value] : options) {
      if (key == name) return value;
    }
    return std::nullopt;
  }
  std::vector<std::string> option_all(const std::string& name) const {
    std::vector<std::string> out;
    for (const auto& [key, value] : options) {
      if (key == name) out.push_back(value);
    }
    return out;
  }
  bool flag(const std::string& name) const {
    return option(name).has_value();
  }
};

[[noreturn]] void usage(const char* error = nullptr) {
  if (error) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: dnhunter <command> <capture.pcap|capture-dir> "
               "[options]\n"
               "commands: summary flows tags spatial tree content "
               "anomalies policy churn dga tangle export volume delays dimension chaos stats\n"
               "global options: --strict (default) abort on a corrupt "
               "capture; --resync skip damaged\n"
               "  records, continue, and report corruption on stderr;\n"
               "  --jobs N shard ingestion over N worker threads "
               "(default 1; results are\n"
               "  bit-identical to --jobs 1; policy/chaos always run "
               "single-threaded)\n"
               "  --pin-shards best-effort pin of shard workers to "
               "distinct CPUs (locality\n"
               "  hint; silent no-op on single-core boxes or restricted "
               "cpusets)\n"
               "flow sources (docs/flow-export.md): a capture DIRECTORY "
               "replays its rotated\n"
               "  files in name order as one capture; --flow-export "
               "FILE|- ingests a DNHX\n"
               "  NetFlow-v5/IPFIX datagram stream as the flow evidence "
               "(the capture\n"
               "  argument then carries the DNS traffic)\n"
               "durability options (docs/recovery.md): --spill-dir DIR "
               "spill sealed windows\n"
               "  durably before merging; --resume replay DIR's manifest "
               "after a crash and\n"
               "  serve the recovered prefix from spill; --window S "
               "rotate analysis windows\n"
               "  every S seconds; --watchdog S exit 4 with a stall "
               "diagnostic after S\n"
               "  seconds without pipeline progress; SIGINT/SIGTERM "
               "drain gracefully (exit 0)\n"
               "metrics options: --metrics-out FILE stream JSON-lines "
               "snapshots while running;\n"
               "  --metrics-interval S snapshot cadence in seconds "
               "(default 1);\n"
               "  --metrics-prom FILE write a Prometheus text dump at "
               "exit;\n"
               "  --stats print the metrics summary at exit (the `stats` "
               "command implies it)\n"
               "tracing options: --trace-out FILE write a Chrome/Perfetto "
               "trace of the run at\n"
               "  exit; with --spill-dir the flight recorder also keeps "
               "DIR/flight.dnht\n"
               "  current (binary ring dump, refreshed while running and "
               "on crash/stall);\n"
               "  `dnhunter trace-cat FILE.dnht` renders a binary dump as "
               "trace JSON\n"
               "run with a command and no further args for its options\n");
  std::exit(error ? 2 : 0);
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 3) usage(argc < 2 ? "missing command" : "missing capture");
  args.command = argv[1];
  args.pcap = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg.substr(0, 2) == "--") {
      std::string key{arg.substr(2)};
      std::string value = "1";
      // A value follows unless the next token is another option or absent.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        value = argv[++i];
      args.options.emplace_back(std::move(key), std::move(value));
    } else {
      args.positional.emplace_back(arg);
    }
  }
  return args;
}

/// Loads "CIDR NAME" lines; returns an empty database on a missing path.
orgdb::OrgDb load_orgdb(const std::optional<std::string>& path) {
  orgdb::OrgDb orgs;
  if (path) {
    std::ifstream in{*path};
    if (!in) {
      std::fprintf(stderr, "error: cannot read orgdb file %s\n",
                   path->c_str());
      std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
      const auto fields = util::split_any(line, " \t");
      if (fields.size() < 2 || fields[0].front() == '#') continue;
      const auto slash = fields[0].find('/');
      if (slash == std::string_view::npos) continue;
      const auto base = net::Ipv4Address::parse(fields[0].substr(0, slash));
      if (!base) continue;
      const int prefix = std::atoi(std::string{fields[0].substr(slash + 1)}.c_str());
      orgs.add(net::cidr(*base, prefix), std::string{fields[1]});
    }
  }
  orgs.finalize();
  return orgs;
}

/// Capture-reading policy from the global --strict/--resync toggle.
core::SnifferConfig sniffer_config(const Args& args) {
  if (args.flag("strict") && args.flag("resync"))
    usage("--strict and --resync are mutually exclusive");
  core::SnifferConfig config;
  config.resync_capture = args.flag("resync");
  return config;
}

/// Warns on stderr when a resync read survived corruption; results are
/// complete for everything that was recoverable, which deserves a note.
void warn_on_corruption(const core::DegradationStats& d) {
  const std::uint64_t events =
      d.capture_resyncs + d.capture_truncated_tails;
  if (events == 0) return;
  std::fprintf(stderr,
               "warning: capture is damaged: %llu corrupt region(s) "
               "skipped, %llu byte(s) lost%s; results cover the "
               "recovered traffic only\n",
               static_cast<unsigned long long>(events),
               static_cast<unsigned long long>(d.capture_bytes_skipped),
               d.capture_truncated_tails ? " (file tail truncated)" : "");
}

std::size_t jobs_from(const Args& args) {
  const auto jobs = args.option("jobs");
  if (!jobs) return 1;
  const long n = std::strtol(jobs->c_str(), nullptr, 10);
  if (n < 1 || n > 1024) usage("--jobs requires a shard count in [1,1024]");
  return static_cast<std::size_t>(n);
}

/// A finished read of one capture: what every analysis command consumes.
/// The accessors keep core::Sniffer's names; the counters are the
/// engine's PipelineStats::merged.
struct Capture {
  core::FlowDatabase db;
  std::vector<core::DnsEvent> events;
  core::SnifferStats stats_data;

  const core::FlowDatabase& database() const noexcept { return db; }
  const std::vector<core::DnsEvent>& dns_log() const noexcept {
    return events;
  }
  const core::SnifferStats& stats() const noexcept { return stats_data; }
  const core::DegradationStats& degradation() const noexcept {
    return stats_data.degradation;
  }
};

/// Thrown where the old code called std::exit: unwinding to main keeps
/// every exit path — hard failure and normal completion alike — going
/// through the single finalization point (metrics flush, stats print).
struct FatalError {
  int code = 1;
  std::string message;
};

[[noreturn]] void die_on_read_failure(const Args& args,
                                      const std::string& error) {
  // Do NOT print partial results as if they were complete: fail loudly
  // and point at --resync for best-effort reads of damaged files.
  throw FatalError{
      1, "error: failed reading " + args.pcap + ": " + error +
             "\nerror: aborting without printing results (capture only "
             "partially processed); retry with --resync to analyze "
             "what is recoverable\n"};
}

/// Set when sniff() hands the capture to the analytics command; the time
/// from here to command completion is the analytics stage span.
std::optional<std::chrono::steady_clock::time_point> g_ingest_end;

/// Non-negative seconds option (fractions allowed), or zero when absent.
util::Duration seconds_option(const Args& args, const char* name) {
  const auto value = args.option(name);
  if (!value) return util::Duration{};
  const double seconds = std::strtod(value->c_str(), nullptr);
  if (seconds <= 0)
    usage((std::string{"--"} + name + " requires seconds > 0").c_str());
  return util::Duration::micros(static_cast<std::int64_t>(seconds * 1e6));
}

/// Resume accounting on stderr: how much of the run was served from the
/// spill, and what damage the recovery path degraded over.
void report_recovery(const pipeline::PipelineStats& stats) {
  const auto& r = stats.recovery;
  std::fprintf(stderr,
               "resume: %llu window(s) served from spill, %llu recomputed\n",
               static_cast<unsigned long long>(stats.windows_recovered),
               static_cast<unsigned long long>(stats.windows_recomputed));
  if (r.total_anomalies() != 0) {
    std::fprintf(stderr,
                 "resume: degraded over %llu anomaly(ies): %llu torn "
                 "manifest line(s), %llu bad-CRC record(s), %llu torn "
                 "record(s), %llu row error(s)\n",
                 static_cast<unsigned long long>(r.total_anomalies()),
                 static_cast<unsigned long long>(r.manifest_torn_lines),
                 static_cast<unsigned long long>(r.records_bad_crc),
                 static_cast<unsigned long long>(r.records_torn),
                 static_cast<unsigned long long>(r.flow_row_errors +
                                                 r.dns_row_errors));
  }
}

/// Reads the capture through pipeline::ShardedAnalyzer at every --jobs
/// value (one shard runs inline on this thread).
Capture sniff(const Args& args) {
  Capture capture;
  if (args.flag("resume") && !args.option("spill-dir"))
    usage("--resume requires --spill-dir DIR");
  pipeline::PipelineConfig config;
  config.shards = jobs_from(args);
  config.pin_shards = args.flag("pin-shards");
  config.sniffer = sniffer_config(args);
  // Flow-export mode: records carry the flow evidence, so the capture
  // (when present) feeds only the DNS side of each shard's sniffer.
  config.sniffer.dns_only = args.option("flow-export").has_value();
  config.window = seconds_option(args, "window");
  config.spill_dir = args.option("spill-dir").value_or("");
  config.resume = args.flag("resume");
  config.watchdog_timeout = seconds_option(args, "watchdog");
  // Injected stall (DNH_FAULT_STALL=<shard>): park that worker forever,
  // so the watchdog -> forensic-dump path can be exercised end to end
  // against a live process. Opt-in per process, never on by default.
  if (const auto stall = faultinject::stall_plan_from_env()) {
    config.worker_start_hook = [plan = *stall](std::size_t shard) {
      if (shard != plan.shard) return;
      obs::trace_event(obs::TraceStage::kShard,
                       obs::TraceKind::kStallInjected, obs::kNoSeq,
                       static_cast<unsigned>(shard));
      faultinject::enter_injected_stall();
    };
  }
  // Stall forensics: the watchdog fires on a wedged pipeline, so no
  // clean unwind is possible — dump the flight-recorder rings (binary
  // next to the spill data, trace JSON if --trace-out asked for one),
  // print the typed diagnostic, and leave via _Exit.
  const std::string trace_bin_path =
      config.spill_dir.empty() ? std::string{}
                               : config.spill_dir + "/flight.dnht";
  const std::optional<std::string> trace_out = args.option("trace-out");
  config.on_stall = [trace_bin_path,
                     trace_out](const pipeline::StallDiagnostic& diagnostic) {
    std::fprintf(stderr, "error: pipeline stalled\n%s\n",
                 diagnostic.to_string().c_str());
    const std::vector<obs::ThreadTrace> threads =
        obs::FlightRecorder::global().snapshot();
    if (!trace_bin_path.empty() &&
        obs::write_binary_dump(trace_bin_path, threads))
      std::fprintf(stderr,
                   "trace: rings dumped to %s (render with `dnhunter "
                   "trace-cat`)\n",
                   trace_bin_path.c_str());
    if (trace_out && obs::write_chrome_trace(*trace_out, threads))
      std::fprintf(stderr, "trace: %s written\n", trace_out->c_str());
    std::fflush(stderr);
    std::_Exit(4);
  };
  pipeline::install_drain_signal_handlers();
  config.drain_check = [] { return pipeline::drain_requested(); };

  // Windows arrive in order (on the merge thread, or on this one at
  // --jobs 1); accumulate them into
  // the one Capture the analytics commands consume. While the capture is
  // still empty, a window is adopted whole: its DomainTable moves with
  // its db, so every view stays valid. That covers a whole-capture run,
  // which delivers exactly one window. Later windows (--window mode) are
  // appended: flow fqdn views are re-interned by add(), event views
  // remapped into the capture's table.
  // Crash forensics ride along with durability: keep DIR/flight.dnht
  // current from the moment the spill directory exists — a fatal-signal
  // hook dumps the rings from the handler, and the periodic writer
  // refreshes the file so even SIGKILL (which runs no handler) leaves a
  // complete dump at most one interval stale. Started before the
  // analyzer: its constructor does ~100ms of per-shard setup, and a
  // kill landing in that window must still find a dump.
  std::unique_ptr<obs::PeriodicTraceDump> trace_dump;
  if (!trace_bin_path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.spill_dir, ec);
    obs::install_fatal_signal_dump(trace_bin_path);
    trace_dump = std::make_unique<obs::PeriodicTraceDump>(
        obs::FlightRecorder::global(), trace_bin_path,
        util::Duration::millis(100));
    trace_dump->start();
  }
  pipeline::ShardedAnalyzer analyzer{
      config, [&capture](core::AnalysisWindow&& window) {
        if (capture.db.size() == 0 && capture.events.empty()) {
          capture.db = std::move(window.db);
          capture.events = std::move(window.dns_log);
          return;
        }
        // Fetched per call: adopting a window replaced the table.
        core::DomainTable& unified = *capture.db.domain_table();
        for (auto& flow : window.db.take_flows())
          capture.db.add(std::move(flow));
        for (auto& event : window.dns_log) {
          event.fqdn_id = unified.intern(event.fqdn);
          event.fqdn = unified.view(event.fqdn_id);
          capture.events.push_back(std::move(event));
        }
      }};
  // Pick the flow source: an export datagram stream (with the capture
  // as its DNS side), a directory of rotated captures, or one file.
  std::unique_ptr<pipeline::FlowSource> source;
  pipeline::ExportStreamSource* export_source = nullptr;
  pipeline::CaptureDirSource* dir_source = nullptr;
  if (const auto stream = args.option("flow-export")) {
    auto src = std::make_unique<pipeline::ExportStreamSource>(
        *stream, args.pcap);
    export_source = src.get();
    source = std::move(src);
  } else if (std::filesystem::is_directory(args.pcap)) {
    auto src = std::make_unique<pipeline::CaptureDirSource>(args.pcap);
    dir_source = src.get();
    source = std::move(src);
  } else {
    source = std::make_unique<pipeline::PcapFileSource>(args.pcap);
  }
  const bool ok = source->run(analyzer);
  analyzer.finish();  // join threads before any exit path
  if (trace_dump) trace_dump->stop();  // final dump covers the whole run
  if (!ok) die_on_read_failure(args, source->error());
  if (dir_source)
    std::fprintf(stderr, "captures: replayed %zu rotated file(s) from %s\n",
                 dir_source->files_replayed(), args.pcap.c_str());
  if (export_source) {
    const auto& ds = export_source->decoder_stats();
    std::fprintf(
        stderr,
        "flow-export: %llu datagram(s), %llu record(s) "
        "(%llu v5, %llu ipfix)\n",
        static_cast<unsigned long long>(export_source->datagrams()),
        static_cast<unsigned long long>(ds.records()),
        static_cast<unsigned long long>(ds.records_v5),
        static_cast<unsigned long long>(ds.records_ipfix));
    if (ds.parse_errors() != 0) {
      std::string detail;
      for (std::size_t kind = 1; kind < ds.errors.size(); ++kind) {
        if (ds.errors[kind] == 0) continue;
        if (!detail.empty()) detail += ", ";
        detail += std::to_string(ds.errors[kind]);
        detail += ' ';
        detail += flowexport::export_parse_error_name(
            static_cast<flowexport::ExportParseError>(kind));
      }
      std::fprintf(stderr,
                   "warning: export stream degraded: %llu datagram "
                   "parse error(s) (%s); salvaged records were kept\n",
                   static_cast<unsigned long long>(ds.parse_errors()),
                   detail.c_str());
    }
    const auto& sc = export_source->stream_corruption();
    if (sc.total() != 0)
      std::fprintf(stderr,
                   "warning: export container damaged: %llu truncated "
                   "tail(s), %llu oversize record(s), %llu byte(s) "
                   "skipped\n",
                   static_cast<unsigned long long>(sc.truncated_tails),
                   static_cast<unsigned long long>(sc.oversize_records),
                   static_cast<unsigned long long>(sc.bytes_skipped));
  }
  const pipeline::PipelineStats& pstats = analyzer.stats();
  if (config.resume) report_recovery(pstats);
  if (pstats.spill_failures != 0)
    std::fprintf(stderr,
                 "warning: %llu spill append(s) failed; a crash now may "
                 "not be fully recoverable\n",
                 static_cast<unsigned long long>(pstats.spill_failures));
  if (pipeline::drain_requested())
    std::fprintf(stderr,
                 "drain: ingestion stopped by signal; results cover the "
                 "frames processed before the drain\n");
  capture.stats_data = pstats.merged;
  // Windows arrive sorted, so for a whole-capture run this is one O(n)
  // check; --window runs append windows, and the pass keeps the
  // invariant in one place.
  pipeline::canonicalize(capture.db);
  pipeline::canonicalize(capture.events);
  warn_on_corruption(capture.degradation());
  g_ingest_end = std::chrono::steady_clock::now();
  return capture;
}

int cmd_summary(const Args& args) {
  const auto sniffer = sniff(args);
  const auto& stats = sniffer.stats();
  std::printf("frames:            %s (%s undecodable)\n",
              util::with_commas(stats.frames).c_str(),
              util::with_commas(stats.decode_failures).c_str());
  std::printf("dns responses:     %s (%s malformed, %s queries)\n",
              util::with_commas(stats.dns_responses).c_str(),
              util::with_commas(stats.dns_parse_failures).c_str(),
              util::with_commas(stats.dns_queries).c_str());
  std::printf("flows:             %s (%s tagged at first packet, "
              "%s tagged late)\n",
              util::with_commas(stats.flows_exported).c_str(),
              util::with_commas(stats.flows_tagged_at_start).c_str(),
              util::with_commas(stats.flows_tagged_at_export).c_str());
  if (stats.degradation.malformed_total() != 0) {
    const auto& d = stats.degradation;
    std::printf("degradation:       %s malformed events "
                "(%s capture, %s frame, %s dns)\n",
                util::with_commas(d.malformed_total()).c_str(),
                util::with_commas(d.capture_resyncs +
                                  d.capture_truncated_tails).c_str(),
                util::with_commas(d.frames_truncated + d.bad_ip_headers +
                                  d.bad_l4_headers +
                                  d.timestamp_regressions).c_str(),
                util::with_commas(d.dns_truncated + d.dns_pointer_loops +
                                  d.dns_pointer_out_of_range +
                                  d.dns_bad_names +
                                  d.dns_count_lies).c_str());
  }

  std::map<flow::ProtocolClass, std::pair<std::uint64_t, std::uint64_t>>
      by_class;
  for (const auto& flow : sniffer.database().flows()) {
    auto& [total, labeled] = by_class[flow.protocol];
    ++total;
    labeled += flow.labeled();
  }
  util::TextTable table{{"class", "flows", "labeled", "hit ratio"}};
  for (const auto& [cls, counts] : by_class) {
    table.add_row({std::string{flow::protocol_class_name(cls)},
                   util::with_commas(counts.first),
                   util::with_commas(counts.second),
                   util::percent(static_cast<double>(counts.second) /
                                 static_cast<double>(counts.first))});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_flows(const Args& args) {
  const auto sniffer = sniff(args);
  const std::size_t limit =
      std::strtoul(args.option("limit").value_or("50").c_str(), nullptr, 10);
  const bool unlabeled_only = args.flag("unlabeled");
  const auto port_filter = args.option("port");

  std::size_t shown = 0;
  for (const auto& flow : sniffer.database().flows()) {
    if (unlabeled_only && flow.labeled()) continue;
    if (port_filter &&
        flow.key.server_port != std::stoi(*port_filter))
      continue;
    std::printf("%s %s:%u -> %s:%u %-7s %8s B  %s\n",
                util::format_hhmm(flow.first_packet).c_str(),
                flow.key.client_ip.to_string().c_str(),
                flow.key.client_port,
                flow.key.server_ip.to_string().c_str(),
                flow.key.server_port,
                std::string{flow::protocol_class_name(flow.protocol)}.c_str(),
                util::with_commas(flow.bytes_c2s + flow.bytes_s2c).c_str(),
                flow.labeled() ? std::string{flow.fqdn}.c_str() : "-");
    if (++shown == limit) break;
  }
  std::printf("(%zu of %zu flows shown)\n", shown,
              sniffer.database().size());
  return 0;
}

int cmd_tags(const Args& args) {
  const auto port = args.option("port");
  if (!port) usage("tags requires --port N");
  const auto sniffer = sniff(args);
  analytics::TagExtractionOptions options;
  options.top_k =
      std::strtoul(args.option("top").value_or("10").c_str(), nullptr, 10);
  options.raw_counts = args.flag("raw");
  const auto tags = analytics::extract_service_tags(
      sniffer.database(), static_cast<std::uint16_t>(std::stoi(*port)),
      options);
  if (tags.empty()) {
    std::printf("no labeled flows on port %s\n", port->c_str());
    return 0;
  }
  for (const auto& tag : tags)
    std::printf("(%d)%s\n", static_cast<int>(tag.score + 0.5),
                tag.token.c_str());
  return 0;
}

int cmd_spatial(const Args& args) {
  if (args.positional.empty()) usage("spatial requires an FQDN");
  const auto sniffer = sniff(args);
  const auto orgs = load_orgdb(args.option("orgdb"));
  const auto report = analytics::spatial_discovery(
      sniffer.database(), orgs, args.positional[0]);
  std::printf("servers for %s:\n", report.fqdn.c_str());
  for (const auto& server : report.fqdn_servers)
    std::printf("  %-16s %-16s %llu flows\n",
                server.server.to_string().c_str(),
                server.organization.c_str(),
                static_cast<unsigned long long>(server.flows));
  std::printf("servers for the whole organization (%s): %zu\n",
              report.second_level.c_str(),
              report.organization_servers.size());
  return 0;
}

int cmd_tree(const Args& args) {
  if (args.positional.empty()) usage("tree requires a 2nd-level domain");
  const auto sniffer = sniff(args);
  const auto orgs = load_orgdb(args.option("orgdb"));
  const auto tree =
      analytics::build_domain_tree(sniffer.database(), orgs,
                                   args.positional[0]);
  std::printf("%s", analytics::render_domain_tree(tree).c_str());
  return 0;
}

int cmd_content(const Args& args) {
  const auto provider = args.option("provider");
  if (!provider) usage("content requires --provider NAME");
  if (!args.option("orgdb"))
    usage("content requires --orgdb FILE to attribute servers");
  const auto sniffer = sniff(args);
  const auto orgs = load_orgdb(args.option("orgdb"));
  const auto report = analytics::content_discovery_by_provider(
      sniffer.database(), orgs, *provider,
      std::strtoul(args.option("top").value_or("10").c_str(), nullptr, 10));
  std::printf("%s hosts %zu distinct FQDNs here (%s labeled flows)\n",
              provider->c_str(), report.distinct_fqdns,
              util::with_commas(report.total_flows).c_str());
  for (const auto& domain : report.domains)
    std::printf("  %-28s %s\n", domain.name.c_str(),
                util::percent(domain.flow_share).c_str());
  return 0;
}

int cmd_anomalies(const Args& args) {
  const auto sniffer = sniff(args);
  const auto orgs = load_orgdb(args.option("orgdb"));
  analytics::AnomalyConfig config;
  config.min_history = static_cast<std::uint32_t>(std::strtoul(
      args.option("min-history").value_or("5").c_str(), nullptr, 10));
  analytics::DnsAnomalyDetector detector{orgs, config};
  const auto anomalies = detector.scan(sniffer.dns_log());
  for (const auto& anomaly : anomalies) {
    std::printf("%s  %s -> %s (%s), previously %zu known network(s)\n",
                util::format_hhmm(anomaly.time).c_str(),
                anomaly.fqdn.c_str(),
                anomaly.suspicious_server.to_string().c_str(),
                anomaly.observed_org.c_str(), anomaly.known_orgs.size());
  }
  std::printf("%zu anomalies in %s responses\n", anomalies.size(),
              util::with_commas(detector.responses_seen()).c_str());
  return 0;
}

int cmd_policy(const Args& args) {
  core::PolicyEnforcer enforcer;
  for (const auto& suffix : args.option_all("block"))
    enforcer.add_rule(suffix, core::PolicyAction::kBlock);
  for (const auto& suffix : args.option_all("prioritize"))
    enforcer.add_rule(suffix, core::PolicyAction::kPrioritize);
  if (enforcer.rule_count() == 0)
    usage("policy requires at least one --block/--prioritize SUFFIX");

  core::Sniffer sniffer{sniffer_config(args)};
  sniffer.set_flow_start_hook(
      [&](const flow::FlowRecord&, std::string_view fqdn) {
        enforcer.decide(fqdn);
      });
  if (!sniffer.process_pcap(args.pcap))
    die_on_read_failure(args, sniffer.error());
  warn_on_corruption(sniffer.degradation());
  sniffer.finish();
  const auto& stats = enforcer.stats();
  std::printf("decisions: %s  block=%s prioritize=%s allow=%s "
              "(unlabeled=%s)\n",
              util::with_commas(stats.decisions).c_str(),
              util::with_commas(stats.blocked).c_str(),
              util::with_commas(stats.prioritized).c_str(),
              util::with_commas(stats.allowed).c_str(),
              util::with_commas(stats.unlabeled).c_str());
  return 0;
}

int cmd_tangle(const Args& args) {
  const auto sniffer = sniff(args);
  const auto report = analytics::tangle_graph(
      sniffer.database(),
      std::strtoul(args.option("top").value_or("20").c_str(), nullptr, 10),
      std::strtoul(args.option("min-shared").value_or("1").c_str(), nullptr,
                   10));
  std::printf(
      "%zu organizations, %zu entangled (%s), %zu multi-tenant servers\n",
      report.organizations, report.entangled_orgs,
      util::percent(report.entangled_fraction(), 0).c_str(),
      report.multi_tenant_servers);
  util::TextTable table{{"org A", "org B", "shared", "jaccard"}};
  for (const auto& pair : report.pairs) {
    char jaccard[16];
    std::snprintf(jaccard, sizeof jaccard, "%.2f", pair.jaccard());
    table.add_row({pair.org_a, pair.org_b,
                   std::to_string(pair.shared_servers), jaccard});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_dga(const Args& args) {
  const auto sniffer = sniff(args);
  analytics::DgaConfig config;
  config.min_queries = static_cast<std::uint32_t>(std::strtoul(
      args.option("min-queries").value_or("20").c_str(), nullptr, 10));
  const auto suspects =
      analytics::detect_dga_clients(sniffer.dns_log(), config);
  for (const auto& suspect : suspects) {
    std::printf("%s  %s queries, %s NXDOMAIN (%s), randomness %.2f, "
                "%zu distinct 2LDs\n",
                suspect.client.to_string().c_str(),
                util::with_commas(suspect.queries).c_str(),
                util::with_commas(suspect.nxdomains).c_str(),
                util::percent(suspect.nxdomain_ratio, 0).c_str(),
                suspect.mean_randomness, suspect.distinct_slds);
    for (const auto& name : suspect.sample_names)
      std::printf("    e.g. %s\n", name.c_str());
  }
  std::printf("%zu suspected DGA-infected client(s)\n", suspects.size());
  return 0;
}

int cmd_churn(const Args& args) {
  if (args.positional.empty()) usage("churn requires a 2nd-level domain");
  const auto sniffer = sniff(args);
  const auto orgs = load_orgdb(args.option("orgdb"));
  const auto& db = sniffer.database();
  util::Timestamp start, end;
  for (const auto& flow : db.flows()) {
    if (start == util::Timestamp{} || flow.first_packet < start)
      start = flow.first_packet;
    if (flow.first_packet > end) end = flow.first_packet;
  }
  const int bin_minutes =
      std::atoi(args.option("bin").value_or("60").c_str());
  const auto report = analytics::track_hosting(
      db, orgs, args.positional[0], start,
      end + util::Duration::seconds(1),
      util::Duration::minutes(std::max(bin_minutes, 1)));
  for (const auto& bin : report.bins) {
    if (bin.flows == 0) continue;
    std::printf("%s  %6s flows  dominant=%s (",
                util::format_hhmm(util::Timestamp::from_seconds(
                    bin.start_seconds)).c_str(),
                util::with_commas(bin.flows).c_str(),
                bin.dominant().c_str());
    bool first = true;
    for (const auto& [host, count] : bin.hosts) {
      std::printf("%s%s=%llu", first ? "" : " ", host.c_str(),
                  static_cast<unsigned long long>(count));
      first = false;
    }
    std::printf(")\n");
  }
  for (const auto& sw : report.switches) {
    std::printf("switch at %s: %s -> %s\n",
                util::format_hhmm(util::Timestamp::from_seconds(
                    sw.at_seconds)).c_str(),
                sw.from.c_str(), sw.to.c_str());
  }
  if (report.switches.empty())
    std::printf("no dominant-host switches in the window\n");
  return 0;
}

int cmd_export(const Args& args) {
  const auto out = args.option("out");
  if (!out) usage("export requires --out FILE.tsv");
  const auto sniffer = sniff(args);
  const auto n = core::write_flow_tsv(sniffer.database(), *out);
  if (!n) {
    std::fprintf(stderr, "error: cannot write %s\n", out->c_str());
    return 1;
  }
  std::printf("wrote %zu labeled+unlabeled flows to %s\n", *n, out->c_str());
  return 0;
}

int cmd_volume(const Args& args) {
  const auto sniffer = sniff(args);
  const int depth = std::atoi(args.option("depth").value_or("2").c_str());
  const auto report = analytics::traffic_by_domain(
      sniffer.database(), depth,
      std::strtoul(args.option("top").value_or("15").c_str(), nullptr, 10));
  util::TextTable table{{"name", "flows", "bytes", "share"}};
  for (const auto& row : report.rows) {
    table.add_row({row.name, util::with_commas(row.flows),
                   util::with_commas(row.bytes),
                   util::percent(row.byte_share)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("unlabeled: %s flows, %s bytes\n",
              util::with_commas(report.unlabeled_flows).c_str(),
              util::with_commas(report.unlabeled_bytes).c_str());
  std::printf("\nby protocol:\n");
  for (const auto& [cls, row] : analytics::traffic_by_protocol(
           sniffer.database())) {
    std::printf("  %-8s %8s flows  %s of bytes\n", row.name.c_str(),
                util::with_commas(row.flows).c_str(),
                util::percent(row.byte_share).c_str());
  }
  return 0;
}

int cmd_delays(const Args& args) {
  const auto sniffer = sniff(args);
  const auto report =
      analytics::analyze_delays(sniffer.dns_log(), sniffer.database());
  std::printf("useless DNS responses: %s of %s\n",
              util::percent(report.useless_fraction()).c_str(),
              util::with_commas(report.responses).c_str());
  if (!report.first_flow_delay.empty()) {
    std::printf("first-flow delay: median %.3fs p90 %.3fs p99 %.1fs\n",
                report.first_flow_delay.quantile(0.5),
                report.first_flow_delay.quantile(0.9),
                report.first_flow_delay.quantile(0.99));
  }
  return 0;
}

int cmd_dimension(const Args& args) {
  const auto sniffer = sniff(args);
  std::vector<std::size_t> sizes;
  const std::string spec = args.option("sizes").value_or(
      "128,512,2048,8192,32768,131072");
  for (const auto piece : util::split(spec, ','))
    sizes.push_back(std::strtoul(std::string{piece}.c_str(), nullptr, 10));
  const auto sweep = analytics::clist_efficiency_sweep(
      sniffer.dns_log(), sniffer.database(), sizes);
  for (const auto& point : sweep)
    std::printf("L=%-10zu efficiency=%s (%s/%s)\n", point.clist_size,
                util::percent(point.efficiency).c_str(),
                util::with_commas(point.hits).c_str(),
                util::with_commas(point.lookups).c_str());
  return 0;
}

/// Labeled-flow hit ratio of a finished sniffer (0 when no flows).
double hit_ratio(const core::Sniffer& sniffer) {
  std::uint64_t total = 0, labeled = 0;
  for (const auto& flow : sniffer.database().flows()) {
    ++total;
    labeled += flow.labeled();
  }
  return total ? static_cast<double>(labeled) / static_cast<double>(total)
               : 0.0;
}

/// Chaos self-test: injects frame- and file-level faults into the given
/// capture and checks the pipeline's degraded-mode invariants — no crash,
/// bounded degradation, resync recovery, honest corruption accounting.
int cmd_chaos(const Args& args) {
  const double rate =
      std::strtod(args.option("rate").value_or("0.05").c_str(), nullptr);
  const auto seed = static_cast<std::uint64_t>(std::strtoull(
      args.option("seed").value_or("1").c_str(), nullptr, 10));

  std::vector<pcap::Frame> frames;
  std::string read_error;
  if (!pcap::read_any_capture(
          args.pcap,
          [&](const pcap::Frame& frame) { frames.push_back(frame); },
          read_error)) {
    std::fprintf(stderr, "error: failed reading %s: %s\n",
                 args.pcap.c_str(), read_error.c_str());
    return 1;
  }
  if (frames.empty()) {
    std::fprintf(stderr, "error: %s contains no frames\n",
                 args.pcap.c_str());
    return 1;
  }

  auto replay = [](const std::vector<pcap::Frame>& fs) {
    core::Sniffer sniffer;
    for (const auto& frame : fs) sniffer.on_frame(frame.data, frame.timestamp);
    sniffer.finish();
    return sniffer;
  };

  const auto clean = replay(frames);
  const double clean_hit = hit_ratio(clean);

  // Stage 1: frame-level faults through the full pipeline.
  faultinject::FaultConfig fault_config;
  fault_config.seed = seed;
  fault_config.fault_rate = rate;
  faultinject::FrameCorruptor corruptor{fault_config};
  std::vector<pcap::Frame> mutated;
  mutated.reserve(frames.size());
  for (const auto& frame : frames) corruptor.feed(frame, mutated);
  corruptor.flush(mutated);
  const auto chaotic = replay(mutated);
  const double chaotic_hit = hit_ratio(chaotic);
  const auto& degradation = chaotic.degradation();

  std::printf("frame stage: %zu frames in, %zu after faults "
              "(%llu injected)\n",
              frames.size(), mutated.size(),
              static_cast<unsigned long long>(corruptor.stats().injected()));
  std::printf("  hit ratio: clean %s -> chaos %s\n",
              util::percent(clean_hit).c_str(),
              util::percent(chaotic_hit).c_str());
  std::printf("  degradation: %llu malformed events "
              "(%llu dns, %llu frame, %llu ts)\n",
              static_cast<unsigned long long>(degradation.malformed_total()),
              static_cast<unsigned long long>(
                  degradation.dns_truncated + degradation.dns_pointer_loops +
                  degradation.dns_pointer_out_of_range +
                  degradation.dns_bad_names + degradation.dns_count_lies),
              static_cast<unsigned long long>(
                  degradation.frames_truncated + degradation.bad_ip_headers +
                  degradation.bad_l4_headers),
              static_cast<unsigned long long>(
                  degradation.timestamp_regressions));
  bool ok = true;
  if (chaotic_hit > clean_hit + 1e-9) {
    std::printf("  FAIL: corruption cannot raise the hit ratio\n");
    ok = false;
  }

  // Stage 2: file-level damage, then a resync read of the wreckage.
  const std::string damaged_path = args.pcap + ".chaos-tmp";
  faultinject::FileFaultConfig file_config;
  file_config.seed = seed;
  file_config.garbage_run_rate = rate;
  file_config.length_lie_rate = rate / 2;
  const auto report =
      faultinject::corrupt_pcap_file(args.pcap, damaged_path, file_config);
  if (!report) {
    std::printf("file stage: skipped (capture is not native classic pcap)\n");
  } else {
    core::SnifferConfig resync_config;
    resync_config.resync_capture = true;
    core::Sniffer survivor{resync_config};
    if (!survivor.process_pcap(damaged_path)) {
      std::printf("file stage: FAIL: resync read aborted: %s\n",
                  survivor.error().c_str());
      ok = false;
    } else {
      survivor.finish();
      const auto& d = survivor.degradation();
      const std::uint64_t recovered = survivor.stats().frames;
      std::printf("file stage: %llu/%llu intact frames recovered after "
                  "%llu injected fault(s); %llu resync(s), %llu byte(s) "
                  "skipped\n",
                  static_cast<unsigned long long>(recovered),
                  static_cast<unsigned long long>(report->records_intact),
                  static_cast<unsigned long long>(report->faults()),
                  static_cast<unsigned long long>(d.capture_resyncs),
                  static_cast<unsigned long long>(d.capture_bytes_skipped));
      if (recovered < report->records_intact) {
        std::printf("file stage: FAIL: lost intact frames to resync\n");
        ok = false;
      }
      if (report->faults() > 0 &&
          d.capture_resyncs + d.capture_truncated_tails == 0) {
        std::printf("file stage: FAIL: corruption went unreported\n");
        ok = false;
      }
    }
    std::remove(damaged_path.c_str());
  }

  std::printf("chaos self-test: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

/// `dnhunter stats <pcap>`: ingest the capture purely for its metrics.
/// The summary itself is printed by the session finalizer (so it reflects
/// the complete run, analytics span included); here we only confirm what
/// was read.
int cmd_stats(const Args& args) {
  const auto sniffer = sniff(args);
  std::fprintf(stderr, "ingested %s: %s frames, %s flows\n",
               args.pcap.c_str(),
               util::with_commas(sniffer.stats().frames).c_str(),
               util::with_commas(sniffer.stats().flows_exported).c_str());
  return 0;
}

/// Renders a binary flight-recorder dump (DIR/flight.dnht, written by
/// --spill-dir runs and by the fatal-signal hook) as Chrome trace-event
/// JSON on stdout. The capture argument slot carries the dump path.
int cmd_trace_cat(const Args& args) {
  std::string error;
  const auto threads = obs::read_binary_dump(args.pcap, &error);
  if (!threads)
    throw FatalError{2, "error: " + args.pcap + ": " +
                            (error.empty() ? "unreadable trace dump" : error) +
                            "\n"};
  if (!error.empty())
    std::fprintf(stderr, "warning: %s: %s (intact frames rendered)\n",
                 args.pcap.c_str(), error.c_str());
  const std::string json = obs::to_chrome_trace(*threads);
  std::fwrite(json.data(), 1, json.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

/// The one finalization point for every run: owns the live JSONL exporter
/// and performs the at-exit dumps. main() constructs it before dispatch
/// and calls finish() exactly once on every path, normal or fatal —
/// satellite of the old bug where the hard-fail path exited without the
/// summary/flush the normal path performed.
class ObsSession {
 public:
  explicit ObsSession(const Args& args)
      : prom_path_{args.option("metrics-prom")},
        trace_path_{args.option("trace-out")},
        print_stats_{args.flag("stats") || args.command == "stats"} {
    obs::FlightRecorder::global().set_thread_label("cli");
    obs::trace_event(obs::TraceStage::kCli, obs::TraceKind::kThreadStart);
    if (const auto out = args.option("metrics-out")) {
      obs::JsonlExporter::Options options;
      options.path = *out;
      const double seconds = std::strtod(
          args.option("metrics-interval").value_or("1").c_str(), nullptr);
      options.interval =
          util::Duration::micros(static_cast<std::int64_t>(
              (seconds > 0 ? seconds : 1.0) * 1e6));
      exporter_ = std::make_unique<obs::JsonlExporter>(
          obs::Registry::global(), options);
      if (!exporter_->start()) {
        exporter_.reset();
        std::fprintf(stderr, "error: cannot write metrics file %s\n",
                     out->c_str());
        std::exit(2);
      }
    }
  }

  void finish() {
    if (g_ingest_end) {
      const auto elapsed =
          std::chrono::steady_clock::now() - *g_ingest_end;
      obs::Registry::global()
          .histogram("dnh_stage_analytics_ns")
          .observe(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
      g_ingest_end.reset();
    }
    if (exporter_) {
      exporter_->stop();  // writes the final snapshot line
      exporter_.reset();
    }
    if (trace_path_) {
      if (obs::write_chrome_trace(*trace_path_,
                                  obs::FlightRecorder::global().snapshot()))
        std::fprintf(stderr, "trace: %s written\n", trace_path_->c_str());
      else
        std::fprintf(stderr, "error: cannot write trace file %s\n",
                     trace_path_->c_str());
    }
    if (!prom_path_ && !print_stats_) return;
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    if (prom_path_) {
      std::FILE* out = std::fopen(prom_path_->c_str(), "w");
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     prom_path_->c_str());
      } else {
        const std::string text = obs::to_prometheus(snap);
        std::fwrite(text.data(), 1, text.size(), out);
        std::fclose(out);
      }
    }
    if (print_stats_)
      std::fputs(obs::human_summary(snap).c_str(), stdout);
  }

 private:
  std::optional<std::string> prom_path_;
  std::optional<std::string> trace_path_;
  bool print_stats_ = false;
  std::unique_ptr<obs::JsonlExporter> exporter_;
};

int run_command(const Args& args) {
  if (args.command == "summary") return cmd_summary(args);
  if (args.command == "flows") return cmd_flows(args);
  if (args.command == "tags") return cmd_tags(args);
  if (args.command == "spatial") return cmd_spatial(args);
  if (args.command == "tree") return cmd_tree(args);
  if (args.command == "content") return cmd_content(args);
  if (args.command == "anomalies") return cmd_anomalies(args);
  if (args.command == "policy") return cmd_policy(args);
  if (args.command == "tangle") return cmd_tangle(args);
  if (args.command == "dga") return cmd_dga(args);
  if (args.command == "churn") return cmd_churn(args);
  if (args.command == "export") return cmd_export(args);
  if (args.command == "volume") return cmd_volume(args);
  if (args.command == "delays") return cmd_delays(args);
  if (args.command == "dimension") return cmd_dimension(args);
  if (args.command == "chaos") return cmd_chaos(args);
  if (args.command == "stats") return cmd_stats(args);
  if (args.command == "trace-cat") return cmd_trace_cat(args);
  usage(("unknown command: " + args.command).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0))
    usage();
  const Args args = parse_args(argc, argv);

  ObsSession session{args};
  int code = 0;
  try {
    code = run_command(args);
  } catch (const FatalError& fatal) {
    std::fputs(fatal.message.c_str(), stderr);
    code = fatal.code;
  }
  session.finish();
  return code;
}
