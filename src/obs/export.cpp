#include "obs/export.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_annotations.hpp"

namespace dnh::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%llu",
                static_cast<unsigned long long>(v));
  out += buffer;
}

void append_i64(std::string& out, std::int64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(v));
  out += buffer;
}

/// Splits the internal `base{k=v,...}` name syntax. Returns the base;
/// `labels` gets the raw inside of the braces ("" when unlabeled).
std::string split_labels(const std::string& name, std::string& labels) {
  const auto brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    labels.clear();
    return name;
  }
  labels = name.substr(brace + 1, name.size() - brace - 2);
  return name.substr(0, brace);
}

/// Exposition-format escaping. Label values escape backslash, double
/// quote, and line feed; HELP text escapes backslash and line feed only
/// (quotes are legal there) — per the Prometheus text-format spec.
void append_escaped(std::string& out, std::string_view text,
                    bool escape_quotes) {
  for (const char c : text) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else if (c == '"' && escape_quotes)
      out += "\\\"";
    else
      out += c;
  }
}

/// `k=v,k2=v2` -> `k="v",k2="v2"`, escaping each value.
std::string quote_labels(const std::string& labels) {
  std::string out;
  for (const auto pair : util::split(labels, ',')) {
    const auto eq = pair.find('=');
    if (!out.empty()) out += ',';
    if (eq == std::string_view::npos) {
      out += pair;
      continue;
    }
    out += pair.substr(0, eq);
    out += "=\"";
    append_escaped(out, pair.substr(eq + 1), /*escape_quotes=*/true);
    out += '"';
  }
  return out;
}

/// HELP text per metric family. Kept next to the exporter (not on each
/// metric handle) so the hot path never carries strings; unknown names
/// get a derived fallback, so every family still exposes a HELP line.
std::string_view help_for(const std::string& base) {
  static constexpr std::pair<std::string_view, std::string_view> kHelp[] = {
      {"dnh_decode_errors_total", "Frames the packet decoder rejected."},
      {"dnh_dns_log_evictions_total",
       "DNS log entries evicted by the retention cap."},
      {"dnh_dns_log_size", "DNS events currently retained in the log."},
      {"dnh_dns_parse_errors_total", "Malformed DNS messages skipped."},
      {"dnh_dns_queries_total", "DNS query messages seen."},
      {"dnh_dns_responses_total", "DNS response messages parsed."},
      {"dnh_dns_tcp_messages_total",
       "DNS messages reassembled from TCP streams."},
      {"dnh_domain_table_bytes", "Bytes held by the FQDN intern arena."},
      {"dnh_domain_table_size", "Distinct FQDNs interned."},
      {"dnh_flow_table_live",
       "Flows currently tracked, packet- or record-derived."},
      {"dnh_flowexport_datagrams_total", "Flow-export datagrams decoded."},
      {"dnh_flowexport_parse_errors_total",
       "Flow-export datagrams that failed to parse, by kind."},
      {"dnh_flowexport_records_ingested_total",
       "Flow-export records dispatched into the pipeline."},
      {"dnh_flowexport_records_total",
       "Flow records decoded from export datagrams, by protocol."},
      {"dnh_flowexport_template_cache_size",
       "IPFIX templates currently cached."},
      {"dnh_flowexport_templates_total", "IPFIX template records seen."},
      {"dnh_flows_exported_total", "Flows expired into the flow database."},
      {"dnh_flows_tagged_late_total",
       "Flows tagged after their first data packet."},
      {"dnh_flows_tagged_start_total",
       "Flows tagged at their first data packet."},
      {"dnh_frames_total", "Frames ingested by the sniffer."},
      {"dnh_merge_inbox_depth", "Sealed windows queued at the merge stage."},
      {"dnh_pcap_bytes_skipped_total",
       "Capture bytes lost to corrupt regions (resync mode)."},
      {"dnh_pcap_bytes_total", "Capture payload bytes read."},
      {"dnh_pcap_frames_total", "Capture records read."},
      {"dnh_pcap_resyncs_total",
       "Scan-forward recoveries over damaged capture regions."},
      {"dnh_pcap_truncated_tails_total",
       "Captures whose final record was cut short."},
      {"dnh_pending_tags", "Live flows tagged at their first packet."},
      {"dnh_pipeline_blocked_pushes_total",
       "Dispatcher pushes that waited on a full shard ring."},
      {"dnh_pipeline_frame_blocks",
       "1 MiB frame blocks held by the dispatcher's pool."},
      {"dnh_pipeline_frames_dispatched_total",
       "Frames fanned out to shard workers."},
      {"dnh_pipeline_frames_dropped_total",
       "Frames dropped at dispatch (drain requested)."},
      {"dnh_pipeline_records_dispatched_total",
       "Flow-export records fanned out to shard workers."},
      {"dnh_pipeline_routes", "Distinct flow keys routed to shards."},
      {"dnh_pipeline_stalls_total", "Watchdog stall declarations."},
      {"dnh_pipeline_windows_merged_total",
       "Analysis windows merged in sequence order."},
      {"dnh_resolver_cache_size", "Client-resolution cache entries."},
      {"dnh_resolver_clients", "Distinct clients with resolved names."},
      {"dnh_shard_queue_depth", "Sampled shard ring occupancy."},
      {"dnh_shard_queue_depth_samples", "Shard ring occupancy samples."},
      {"dnh_spill_bytes", "Bytes appended to spill segments."},
      {"dnh_spill_records_total", "Windows appended to spill segments."},
      {"dnh_stage_analytics_ns", "Analytics command latency."},
      {"dnh_stage_decode_ns", "Frame decode latency (sampled)."},
      {"dnh_stage_dispatch_ns", "Dispatch fan-out latency (sampled)."},
      {"dnh_stage_dns_parse_ns", "DNS parse latency (sampled)."},
      {"dnh_stage_merge_ns", "Window merge latency."},
      {"dnh_stage_pcap_read_ns", "Capture read latency (sampled)."},
      {"dnh_stage_shard_sniff_ns", "Per-window shard sniff latency."},
      {"dnh_tcp_dns_buffer_evictions_total",
       "TCP DNS reassembly buffers evicted by the cap."},
      {"dnh_tcp_dns_buffers", "TCP DNS reassembly buffers live."},
      {"dnh_tcp_dns_overflows_total",
       "TCP DNS streams dropped for exceeding the buffer limit."},
      {"dnh_timestamp_regressions_total",
       "Frames whose capture timestamp stepped backwards."},
  };
  for (const auto& [name, help] : kHelp)
    if (name == base) return help;
  return "DN-Hunter metric.";
}

}  // namespace

std::string to_json_line(const Snapshot& snap) {
  std::string out = "{\"ts_ms\":";
  append_i64(out, snap.wall_unix_ms);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    append_u64(out, value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    append_i64(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":{\"count\":";
    append_u64(out, hist.count);
    out += ",\"sum\":";
    append_u64(out, hist.sum);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i) out += ',';
      out += '[';
      append_u64(out, hist.buckets[i].upper);
      out += ',';
      append_u64(out, hist.buckets[i].count);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  std::string labels;
  // HELP+TYPE lines are emitted once per base name; the maps are sorted,
  // so all labeled series of one base are adjacent.
  std::string last_typed;
  const auto type_line = [&](const std::string& base, const char* type) {
    if (base == last_typed) return;
    last_typed = base;
    out += "# HELP ";
    out += base;
    out += ' ';
    append_escaped(out, help_for(base), /*escape_quotes=*/false);
    out += "\n# TYPE ";
    out += base;
    out += ' ';
    out += type;
    out += '\n';
  };

  for (const auto& [name, value] : snap.counters) {
    const std::string base = split_labels(name, labels);
    type_line(base, "counter");
    out += base;
    if (!labels.empty()) out += '{' + quote_labels(labels) + '}';
    out += ' ';
    append_u64(out, value);
    out += '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string base = split_labels(name, labels);
    type_line(base, "gauge");
    out += base;
    if (!labels.empty()) out += '{' + quote_labels(labels) + '}';
    out += ' ';
    append_i64(out, value);
    out += '\n';
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string base = split_labels(name, labels);
    type_line(base, "histogram");
    const std::string quoted = quote_labels(labels);
    const std::string prefix = quoted.empty() ? "" : quoted + ",";
    std::uint64_t cumulative = 0;
    for (const auto& bucket : hist.buckets) {
      cumulative += bucket.count;
      out += base + "_bucket{" + prefix + "le=\"";
      append_u64(out, bucket.upper);
      out += "\"} ";
      append_u64(out, cumulative);
      out += '\n';
    }
    out += base + "_bucket{" + prefix + "le=\"+Inf\"} ";
    append_u64(out, hist.count);
    out += '\n';
    out += base + "_sum";
    if (!quoted.empty()) out += '{' + quoted + '}';
    out += ' ';
    append_u64(out, hist.sum);
    out += '\n';
    out += base + "_count";
    if (!quoted.empty()) out += '{' + quoted + '}';
    out += ' ';
    append_u64(out, hist.count);
    out += '\n';
  }
  return out;
}

std::string format_ns(double ns) {
  char buffer[32];
  if (ns < 1e3)
    std::snprintf(buffer, sizeof buffer, "%.0fns", ns);
  else if (ns < 1e6)
    std::snprintf(buffer, sizeof buffer, "%.1fus", ns / 1e3);
  else if (ns < 1e9)
    std::snprintf(buffer, sizeof buffer, "%.1fms", ns / 1e6);
  else
    std::snprintf(buffer, sizeof buffer, "%.2fs", ns / 1e9);
  return buffer;
}

std::string human_summary(const Snapshot& snap) {
  std::string out;

  // Stage latency breakdown: every `dnh_stage_*_ns` histogram, with its
  // share of the total instrumented time. Sampled stages' totals cover
  // the sampled spans only — shares compare like with like, not absolute
  // wall time (see docs/observability.md).
  double total_stage_ns = 0;
  for (const auto& [name, hist] : snap.histograms) {
    if (name.rfind("dnh_stage_", 0) == 0)
      total_stage_ns += static_cast<double>(hist.sum);
  }
  if (total_stage_ns > 0) {
    out += "stage latency (sampled spans):\n";
    util::TextTable table{
        {"stage", "spans", "p50", "p90", "p99", "total", "share"}};
    for (const auto& [name, hist] : snap.histograms) {
      if (name.rfind("dnh_stage_", 0) != 0 || hist.count == 0) continue;
      table.add_row(
          {name, util::with_commas(hist.count),
           format_ns(hist.quantile(0.5)), format_ns(hist.quantile(0.9)),
           format_ns(hist.quantile(0.99)),
           format_ns(static_cast<double>(hist.sum)),
           util::percent(static_cast<double>(hist.sum) / total_stage_ns)});
    }
    out += table.render();
  }

  bool any_counter = false;
  for (const auto& [name, value] : snap.counters) any_counter |= value != 0;
  if (any_counter) {
    out += "counters:\n";
    for (const auto& [name, value] : snap.counters) {
      if (value == 0) continue;
      out += "  " + name + " = " + util::with_commas(value) + "\n";
    }
  }
  bool any_gauge = false;
  for (const auto& [name, value] : snap.gauges) any_gauge |= value != 0;
  if (any_gauge) {
    out += "gauges:\n";
    for (const auto& [name, value] : snap.gauges) {
      if (value == 0) continue;
      out += "  " + name + " = " +
             util::with_commas(static_cast<std::uint64_t>(
                 value < 0 ? -value : value));
      if (value < 0) out += " (negative)";
      out += "\n";
    }
  }
  const auto other = snap.histograms;
  bool any_other = false;
  for (const auto& [name, hist] : other)
    any_other |= name.rfind("dnh_stage_", 0) != 0 && hist.count != 0;
  if (any_other) {
    out += "distributions:\n";
    for (const auto& [name, hist] : other) {
      if (name.rfind("dnh_stage_", 0) == 0 || hist.count == 0) continue;
      char line[160];
      std::snprintf(line, sizeof line,
                    "  %s: n=%llu mean=%.1f p50=%.0f p99=%.0f max<=%llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(hist.count), hist.mean(),
                    hist.quantile(0.5), hist.quantile(0.99),
                    static_cast<unsigned long long>(
                        hist.buckets.empty() ? 0 : hist.buckets.back().upper));
      out += line;
    }
  }
  if (out.empty()) out = "no metrics recorded\n";
  return out;
}

struct JsonlExporter::Impl {
  Registry& registry;
  Options options;
  /// Opened by start() before the thread exists, closed by stop() after
  /// the join; while the thread runs, written only via write_line() with
  /// `mu` held. `thread`/`started` are caller-thread-only.
  std::FILE* file = nullptr;
  std::thread thread;
  util::Mutex mu;
  util::CondVar cv;
  bool stopping DNH_GUARDED_BY(mu) = false;
  bool started = false;
  std::atomic<std::uint64_t> lines{0};

  explicit Impl(Registry& r, Options o)
      : registry{r}, options{std::move(o)} {}

  void write_line() DNH_REQUIRES(mu) {
    const std::string line = to_json_line(registry.snapshot());
    std::fwrite(line.data(), 1, line.size(), file);
    std::fputc('\n', file);
    std::fflush(file);
    lines.fetch_add(1, std::memory_order_relaxed);
  }

  void loop() {
    const auto interval = std::chrono::microseconds(
        std::max<std::int64_t>(options.interval.total_micros(), 1000));
    util::MutexLock lock{mu};
    while (!stopping) {
      // Unconditional timed wait + guarded re-check (no predicate lambda:
      // the annotated form keeps every `stopping` read visibly under mu).
      // A spurious wake before the timeout just skips one line.
      if (cv.wait_for(lock, interval) == std::cv_status::timeout &&
          !stopping) {
        write_line();  // mu held: serializes with the final stop() line
      }
    }
  }
};

JsonlExporter::JsonlExporter(Registry& registry, Options options)
    : impl_{std::make_unique<Impl>(registry, std::move(options))} {}

JsonlExporter::~JsonlExporter() { stop(); }

bool JsonlExporter::start() {
  if (impl_->started) return true;
  impl_->file = std::fopen(impl_->options.path.c_str(), "w");
  if (!impl_->file) return false;
  impl_->started = true;
  {
    util::MutexLock lock{impl_->mu};
    impl_->write_line();  // t=0 baseline line
  }
  impl_->thread = std::thread{[this] { impl_->loop(); }};
  return true;
}

void JsonlExporter::stop() {
  if (!impl_->started) return;
  {
    util::MutexLock lock{impl_->mu};
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
  {
    util::MutexLock lock{impl_->mu};
    impl_->write_line();  // final state, after owners published
    impl_->stopping = false;
  }
  std::fclose(impl_->file);
  impl_->file = nullptr;
  impl_->started = false;
}

std::uint64_t JsonlExporter::lines_written() const noexcept {
  return impl_->lines.load(std::memory_order_relaxed);
}

}  // namespace dnh::obs
