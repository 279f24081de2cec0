#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "core/flowdb_io.hpp"
#include "core/sniffer.hpp"
#include "dns/wire_scan.hpp"
#include "flow/table.hpp"
#include "flowexport/orient.hpp"
#include "flowexport/stream.hpp"
#include "flowexport/wire.hpp"
#include "live.hpp"
#include "packet/decode.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/supervisor.hpp"
#include "util/table.hpp"

namespace dnh::e2e {

namespace {

/// A dispatch call this many times slower than the median call of its
/// kind is counted as waiting on a full ring.
constexpr double kRingWaitFactor = 10;

/// The per-layer metrics BENCHMARK.json names, printed by every traced
/// run. Those every workload measures (on its main path or in an
/// isolated replay on its own inputs) must be in the ledger...
constexpr const char* kPerLayerMetrics[] = {
    "pcap.read.ns_per_input",
    "packet.decode.ns_per_call_p50",
    "packet.decode.ns_per_input",
    "packet.decode.ok_ratio",
    "dns.scan.ns_per_call_p50",
    "dns.scan.ns_per_input",
    "dns.scan.ok_ratio",
    "core.intern.ns_per_call_p50",
    "core.intern.new_ratio",
    "core.resolver.insert.ns_per_call_p50",
    "core.resolver.insert.eviction_ratio",
    "core.resolver.lookup.ns_per_call_p50",
    "core.resolver.lookup.hit_ratio",
    "core.sniffer.ns_per_input",
    "core.sniffer.self.ns_per_input",
    "pipeline.canonicalize.ns_per_input",
    "core.flowdb_io.write.ns_per_input",
    "trace.closure_ratio",
    "trace.overhead_ratio",
};
/// ...and those of layers only some workloads call read 0 on the others.
constexpr std::pair<const char*, const char*> kPerLayerMetricsIfCalled[] = {
    {"flow.table.ns_per_input", "ns"},
    {"core.sniffer.record.ns_per_input", "ns"},
    {"flowexport.decode.ns_per_input", "ns"},
    {"pipeline.dispatch.ns_per_input", "ns"},
    {"pipeline.ring.wait.ns_per_input", "ns"},
    {"pipeline.ring.blocked_per_kframe", "count"},
    {"pipeline.shard.skew", "ratio"},
    {"pipeline.merge.ns_per_input", "ns"},
    {"pipeline.window.latency_p90_ms", "ms"},
    {"pipeline.window.latency_p99_ms", "ms"},
    {"pipeline.dispatch.lag_p99_us", "us"},
};

/// The timed calls of one layer. Every timed call also pays for reading
/// the clock; `charge_ns` is that cost per call, taken off at the end.
struct Layer {
  std::string name;
  std::string thread;  ///< main, merge or replay
  bool on_path = false;
  std::uint64_t calls = 0;
  std::vector<std::uint32_t> samples;  ///< raw per-call durations
  std::int64_t sampled_ns = 0;         ///< sum of samples
  std::int64_t extra_ns = 0;  ///< busy time that belongs to no single call
  std::int64_t charge_ns = 0;

  void record(std::int64_t ns) {
    ns = std::max<std::int64_t>(ns, 0);
    ++calls;
    sampled_ns += ns;
    samples.push_back(
        static_cast<std::uint32_t>(std::min<std::int64_t>(ns, UINT32_MAX)));
  }
  double busy_ns() const {
    const auto charged =
        sampled_ns - charge_ns * static_cast<std::int64_t>(samples.size());
    return static_cast<double>(std::max<std::int64_t>(charged, 0) + extra_ns);
  }
  /// Per-call quantile; layers measured only as a total report their mean.
  double quantile_ns(double q) const {
    if (samples.empty())
      return calls ? busy_ns() / static_cast<double>(calls) : 0.0;
    std::vector<std::uint32_t> sorted = samples;
    const auto at = sorted.begin() +
                    static_cast<std::ptrdiff_t>(
                        q * static_cast<double>(sorted.size() - 1));
    std::nth_element(sorted.begin(), at, sorted.end());
    return static_cast<double>(std::max<std::int64_t>(*at - charge_ns, 0));
  }
};

struct Span {
  std::string name;
  std::string parent;
  std::uint64_t input = 0;
  int tid = 0;  ///< 1: main path, 2: isolated replay
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Layers and spans. A disabled recorder reads no clock and records
/// nothing, so every pass runs the same code traced and untraced.
///
/// The clock charge of a pass is measured in place: the pass runs
/// untraced, traced, and untraced again, and the extra wall time of the
/// traced run divided by the clock reads it made is the cost of one read
/// amid that code. Each timed call carries about one read, so that is
/// what is taken off each call. Reading the clock back to back in a loop
/// costs less and is only the floor.
class Recorder {
 public:
  explicit Recorder(bool enabled)
      : enabled_{enabled}, floor_ns_{enabled ? calibrate() : 0} {}

  Layer& layer(const std::string& name, const std::string& thread,
               bool on_path) {
    for (Layer& l : layers_)
      if (l.name == name) return l;
    Layer& added = layers_.emplace_back();
    added.name = name;
    added.thread = thread;
    added.on_path = on_path;
    added.charge_ns = floor_ns_;
    return added;
  }
  Layer* find(const std::string& name) {
    for (Layer& l : layers_)
      if (l.name == name) return &l;
    return nullptr;
  }

  std::int64_t now() {
    if (!enabled_) return 0;
    ++reads_;
    return now_ns();
  }
  /// Records the call that started at `t0`; returns the reading ending it.
  std::int64_t stop(Layer& layer, std::int64_t t0) {
    if (!enabled_) return 0;
    const std::int64_t t1 = now();
    layer.record(t1 - t0);
    return t1;
  }
  void record(Layer& layer, std::int64_t ns) {
    if (enabled_) layer.record(ns);
  }
  void span(std::uint64_t input, const std::string& name,
            const std::string& parent, int tid, std::int64_t t0,
            std::int64_t t1) {
    if (enabled_ && input % kSpanEvery == 0)
      spans_.push_back({name, parent, input, tid, t0, t1 - t0});
  }

  void begin_pass() {
    reads_ = 0;
    seen_.clear();
    for (const Layer& l : layers_) seen_.push_back(l.samples.size());
  }
  /// Charges the layers timed in this pass the clock cost per read.
  void end_pass(std::int64_t excess_ns) {
    const std::int64_t charge =
        std::max(floor_ns_, reads_ ? excess_ns / static_cast<std::int64_t>(reads_) : 0);
    std::size_t i = 0;
    for (Layer& l : layers_) {
      const std::size_t before = i < seen_.size() ? seen_[i] : 0;
      // Merge-thread layers read the clock on their own thread.
      if (l.samples.size() > before && l.thread != "merge") l.charge_ns = charge;
      ++i;
    }
  }

  std::int64_t floor_ns() const noexcept { return floor_ns_; }
  std::deque<Layer>& layers() noexcept { return layers_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  static std::int64_t calibrate() {
    std::vector<double> pairs;
    for (int i = 0; i < 20001; ++i) {
      const std::int64_t t0 = now_ns();
      pairs.push_back(static_cast<double>(now_ns() - t0));
    }
    return static_cast<std::int64_t>(median(pairs));
  }

  bool enabled_;
  std::int64_t floor_ns_;
  std::uint64_t reads_ = 0;
  std::vector<std::size_t> seen_;
  std::deque<Layer> layers_;  // stable references while layers are added
  std::vector<Span> spans_;
};

/// Runs `pass` untraced, traced into `rec`, and untraced again; charges the
/// traced layers for the clock and returns {traced, mean untraced} walls.
template <typename Pass>
std::pair<double, double> calibrated(Recorder& rec, Pass&& pass) {
  Recorder off{false};
  const double before = pass(off);
  rec.begin_pass();
  const double traced = pass(rec);
  const double untraced = (before + pass(off)) / 2;
  rec.end_pass(static_cast<std::int64_t>((traced - untraced) * 1e9));
  return {traced, untraced};
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Export records with the arrival time of the datagram that carried them.
struct ArrivedRecord {
  flowexport::ExportRecord record;
  util::Timestamp arrival;
};

std::vector<ArrivedRecord> load_records(const std::string& path) {
  std::vector<ArrivedRecord> out;
  flowexport::DatagramReader reader;
  if (!reader.open(path)) return out;
  flowexport::ExportDecoder decoder;
  std::vector<flowexport::ExportRecord> records;
  flowexport::Datagram datagram;
  while (reader.next(datagram)) {
    records.clear();
    decoder.on_datagram(
        net::BytesView{datagram.payload.data(), datagram.payload.size()},
        records);
    for (const auto& record : records)
      out.push_back({record, datagram.arrival});
  }
  return out;
}

/// Walks frames and records in the order ExportStreamSource delivers them:
/// before each frame, every record whose datagram had arrived by then.
template <typename OnFrame, typename OnRecord>
void in_arrival_order(const FrameArena& frames,
                      const std::vector<ArrivedRecord>& records,
                      OnFrame&& on_frame, OnRecord&& on_record) {
  std::size_t next = 0;
  std::uint64_t input = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    while (next < records.size() &&
           records[next].arrival <= frames.stamps[i])
      on_record(records[next++], input++);
    on_frame(i, input++);
  }
  while (next < records.size()) on_record(records[next++], input++);
}

/// The accumulating sink of the CLI: windows merge into one capture, DNS
/// event views re-interned into its table.
struct Collected {
  core::FlowDatabase db;
  std::vector<core::DnsEvent> events;
};

pipeline::ShardedAnalyzer::WindowSink collect(Collected& out, Recorder& rec,
                                              Layer& sink) {
  return [&out, &rec, &sink](core::AnalysisWindow&& window) {
    // Merge thread: its own clock reads, never counted against the
    // dispatcher's pass.
    const std::int64_t t0 = now_ns();
    core::DomainTable& unified = *out.db.domain_table();
    for (auto& flow : window.db.take_flows()) out.db.add(std::move(flow));
    for (auto& event : window.dns_log) {
      event.fqdn_id = unified.intern(event.fqdn);
      event.fqdn = unified.view(event.fqdn_id);
      out.events.push_back(std::move(event));
    }
    rec.record(sink, now_ns() - t0);
  };
}

struct PathRun {
  double wall_s = 0;
  TsvSummary tsv;
  std::optional<pipeline::PipelineStats> stats;
};

/// `dnhunter export` replayed in-process through its public calls: the
/// Sniffer at --jobs 1 on a capture, the ShardedAnalyzer otherwise (fed
/// the way ExportStreamSource feeds it for flow-export input), then
/// canonicalize, write_flow_tsv and release.
PathRun cli_path(const Workload& workload, const Inputs& inputs,
                 const std::string& tsv_path, Recorder& rec) {
  const bool direct = workload.jobs == 1 && !workload.flow_export;
  const std::string umbrella_name = direct ? "core.sniffer" : "pipeline.dispatch";
  Layer& read = rec.layer("pcap.read", "main", true);
  Layer& umbrella = rec.layer(direct ? "core.sniffer" : "pipeline.dispatch.frame",
                              "main", true);
  Layer& records = rec.layer("pipeline.dispatch.record", "main", true);
  Layer& fx_read = rec.layer("flowexport.read", "main", true);
  Layer& fx_decode = rec.layer("flowexport.decode", "main", true);
  Layer& construct = rec.layer("pipeline.construct", "main", false);
  Layer& finish = rec.layer("pipeline.finish", "main", true);
  Layer& sink = rec.layer("pipeline.sink", "merge", false);
  Layer& canon = rec.layer("pipeline.canonicalize", "main", true);
  Layer& write = rec.layer("core.flowdb_io.write", "main", true);
  Layer& release = rec.layer("core.release", "main", true);

  const std::int64_t start = now_ns();
  auto out = std::make_unique<Collected>();
  std::unique_ptr<core::Sniffer> sniffer;
  std::unique_ptr<pipeline::ShardedAnalyzer> analyzer;
  if (direct) {
    sniffer = std::make_unique<core::Sniffer>();
  } else {
    pipeline::PipelineConfig config;
    config.shards = static_cast<std::size_t>(workload.jobs);
    config.sniffer.dns_only = workload.flow_export;
    config.drain_check = [] { return pipeline::drain_requested(); };
    const std::int64_t t0 = rec.now();
    analyzer = std::make_unique<pipeline::ShardedAnalyzer>(
        config, collect(*out, rec, sink));
    rec.stop(construct, t0);
  }

  flowexport::DatagramReader reader;
  flowexport::ExportDecoder decoder;
  flowexport::Datagram held;
  bool have_held = false;
  std::vector<flowexport::ExportRecord> decoded;
  std::uint64_t input = 0;
  const auto next_datagram = [&] {
    const std::int64_t t0 = rec.now();
    have_held = reader.next(held);
    rec.stop(fx_read, t0);
  };
  // Dispatches every datagram that had arrived by `upto` (all when
  // draining), exactly as ExportStreamSource::run does.
  const auto pump = [&](util::Timestamp upto, bool drain) {
    while (have_held && (drain || held.arrival <= upto)) {
      decoded.clear();
      std::int64_t t0 = rec.now();
      decoder.on_datagram(
          net::BytesView{held.payload.data(), held.payload.size()}, decoded);
      rec.stop(fx_decode, t0);
      for (const auto& record : decoded) {
        t0 = rec.now();
        analyzer->on_export_record(record, held.arrival);
        rec.span(input, umbrella_name, "", 1, t0, rec.stop(records, t0));
        ++input;
      }
      next_datagram();
    }
  };
  if (workload.flow_export) {
    if (!reader.open(inputs.flows_dnhx)) return {};
    next_datagram();
  }

  // pcap.read is the time between callbacks: the reader producing a frame.
  std::int64_t last_end = rec.now();
  std::string error;
  const bool ok = pcap::read_any_capture(
      workload.flow_export ? inputs.dns_pcap : inputs.capture_pcap,
      [&](const pcap::Frame& frame) {
        last_end = rec.stop(read, last_end);
        if (workload.flow_export) pump(frame.timestamp, false);
        const std::int64_t t0 = rec.now();
        if (sniffer)
          sniffer->on_frame(frame.data, frame.timestamp);
        else
          analyzer->on_frame(frame.data, frame.timestamp);
        last_end = rec.stop(umbrella, t0);
        rec.span(input, umbrella_name, "", 1, t0, last_end);
        ++input;
      },
      error);
  read.extra_ns += rec.now() - last_end;  // the reader's end of file
  if (!ok) {
    std::fprintf(stderr, "dnh_bench trace: %s\n", error.c_str());
    return {};
  }
  if (workload.flow_export) pump(util::Timestamp{}, true);

  PathRun run;
  std::int64_t t0 = rec.now();
  if (sniffer) {
    sniffer->finish();
    rec.stop(umbrella, t0);
    out->db = sniffer->take_database();
    out->events = sniffer->take_dns_log();
  } else {
    analyzer->finish();
    rec.stop(finish, t0);
    run.stats = analyzer->stats();
  }
  t0 = rec.now();
  pipeline::canonicalize(out->db);
  pipeline::canonicalize(out->events);
  rec.stop(canon, t0);
  t0 = rec.now();
  core::write_flow_tsv(out->db, tsv_path);
  rec.stop(write, t0);
  t0 = rec.now();
  sniffer.reset();
  analyzer.reset();
  out.reset();
  rec.stop(release, t0);
  run.wall_s = seconds_since(start);
  run.tsv = summarize_tsv(tsv_path);
  std::error_code ec;
  std::filesystem::remove(tsv_path, ec);
  return run;
}

/// Splits raw dispatch calls into plain dispatch and ring waits.
void split_dispatch(Recorder& rec, const std::vector<const Layer*>& raw) {
  Layer& dispatch = rec.layer("pipeline.dispatch", "main", true);
  Layer& wait = rec.layer("pipeline.ring.wait", "main", true);
  for (const Layer* kind : raw) {
    if (!kind || kind->samples.empty()) continue;
    dispatch.charge_ns = wait.charge_ns = kind->charge_ns;
    const double limit =
        kRingWaitFactor * std::max(1.0, kind->quantile_ns(0.5));
    for (const std::uint32_t ns : kind->samples)
      (static_cast<double>(ns) - static_cast<double>(kind->charge_ns) > limit
           ? wait
           : dispatch)
          .record(ns);
  }
}

struct InnerCounts {
  double wall_s = 0;
  std::uint64_t decode_ok = 0;
  std::uint64_t scan_ok = 0;
  std::uint64_t interned_new = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
};

/// The sniffer's inner layers, each timed alone on the inputs the sniffer
/// would hand it, in arrival order, with resolver state built as it goes.
InnerCounts replay_inner_layers(const FrameArena& frames,
                                const std::vector<ArrivedRecord>* records,
                                Recorder& rec) {
  InnerCounts counts;
  Layer& decode = rec.layer("packet.decode", "replay", false);
  Layer& scan = rec.layer("dns.scan", "replay", false);
  Layer& intern = rec.layer("core.intern", "replay", false);
  Layer& insert = rec.layer("core.resolver.insert", "replay", false);
  Layer& lookup = rec.layer("core.resolver.lookup", "replay", false);
  Layer* table = records ? nullptr : &rec.layer("flow.table", "replay", false);
  Layer* orient =
      records ? &rec.layer("flowexport.orient", "replay", false) : nullptr;

  const std::int64_t start = now_ns();
  const core::SnifferConfig defaults;
  auto domains = std::make_shared<core::DomainTable>();
  core::DnsResolver resolver{defaults.clist_size, domains};
  flow::FlowTable flows{defaults.table};
  flowexport::RecordOrienter orienter;
  std::unordered_map<flow::FlowKey, util::Timestamp> record_flows;
  dns::ResponseScratch scratch;
  std::int64_t nested = 0;  // lookup time inside the current on_packet
  std::uint64_t input = 0;

  flows.set_flow_start_observer([&](const flow::FlowRecord& flow) {
    const std::int64_t t0 = rec.now();
    counts.hits += resolver.lookup(flow.key.client_ip, flow.key.server_ip)
                       .has_value();
    ++counts.lookups;
    const std::int64_t t1 = rec.stop(lookup, t0);
    rec.span(input, "core.resolver.lookup", "core.sniffer", 2, t0, t1);
    nested += t1 - t0;
  });
  flows.set_exporter([](flow::FlowRecord&&) {});

  const auto on_frame = [&](std::size_t i, std::uint64_t index) {
    input = index;
    std::int64_t t0 = rec.now();
    packet::DecodeFailure why = packet::DecodeFailure::kNone;
    const auto pkt =
        packet::decode_frame(frames.frame(i), frames.stamps[i], why);
    rec.span(input, "packet.decode", "core.sniffer", 2, t0, rec.stop(decode, t0));
    if (!pkt) return;
    ++counts.decode_ok;
    if (!pkt->is_ipv4()) return;
    const std::uint16_t src = pkt->src_port(), dst = pkt->dst_port();
    if (pkt->is_udp() && src == 53) {
      t0 = rec.now();
      dns::MessageParseError error = dns::MessageParseError::kNone;
      const bool ok = dns::scan_response(pkt->payload, scratch, error);
      rec.span(input, "dns.scan", "core.sniffer", 2, t0, rec.stop(scan, t0));
      if (!ok) return;
      ++counts.scan_ok;
      if (!scratch.is_response || scratch.name_len == 0) return;
      const std::size_t known = domains->size();
      t0 = rec.now();
      const core::DomainId id = domains->intern(scratch.name_view());
      rec.span(input, "core.intern", "core.sniffer", 2, t0, rec.stop(intern, t0));
      counts.interned_new += domains->size() > known;
      t0 = rec.now();
      resolver.insert(pkt->dst_v4(), id, scratch.addresses, pkt->timestamp);
      rec.span(input, "core.resolver.insert", "core.sniffer", 2, t0,
               rec.stop(insert, t0));
      return;
    }
    if (src == 53 || dst == 53 || !table) return;  // queries, DNS over TCP
    nested = 0;
    t0 = rec.now();
    flows.on_packet(*pkt);
    const std::int64_t t1 = rec.now();
    rec.record(*table, t1 - t0 - nested);
    rec.span(input, "flow.table", "core.sniffer", 2, t0, t1);
  };

  if (records) {
    const util::Duration idle = defaults.table.idle_timeout;
    in_arrival_order(
        frames, *records, on_frame,
        [&](const ArrivedRecord& arrived, std::uint64_t index) {
          std::int64_t t0 = rec.now();
          const auto oriented = orienter.orient(arrived.record);
          rec.span(index, "flowexport.orient", "pipeline.dispatch", 2, t0,
                   rec.stop(*orient, t0));
          // A record starts a flow when its 5-tuple is new or was idle
          // past the timeout: where Sniffer::on_export_record looks up.
          const auto [it, fresh] =
              record_flows.try_emplace(oriented.key, oriented.last);
          const bool starts = fresh || (oriented.first > it->second &&
                                        oriented.first - it->second > idle);
          it->second = std::max(it->second, oriented.last);
          if (!starts) return;
          t0 = rec.now();
          counts.hits += resolver
                             .lookup_at_or_before(oriented.key.client_ip,
                                                  oriented.key.server_ip,
                                                  oriented.first)
                             .has_value();
          ++counts.lookups;
          rec.span(index, "core.resolver.lookup", "core.sniffer", 2, t0,
                   rec.stop(lookup, t0));
        });
  } else {
    for (std::size_t i = 0; i < frames.size(); ++i) on_frame(i, i);
    nested = 0;
    const std::int64_t t0 = rec.now();
    flows.flush();
    table->extra_ns += rec.now() - t0 - nested;
  }
  counts.inserts = resolver.stats().inserts;
  counts.evictions = resolver.stats().evictions;
  counts.wall_s = seconds_since(start);
  return counts;
}

/// The Sniffer alone on the workload's inputs, for workloads whose main
/// path runs it on worker threads: the umbrella the inner layers sit in.
double replay_sniffer(const FrameArena& frames,
                      const std::vector<ArrivedRecord>* records,
                      Recorder& rec) {
  Layer& umbrella = rec.layer("core.sniffer", "replay", false);
  Layer& record_layer = rec.layer("core.sniffer.record", "replay", false);
  const std::int64_t start = now_ns();
  core::SnifferConfig config;
  config.dns_only = records != nullptr;
  core::Sniffer sniffer{config};
  flowexport::RecordOrienter orienter;
  const auto on_frame = [&](std::size_t i, std::uint64_t) {
    const std::int64_t t0 = rec.now();
    sniffer.on_frame(frames.frame(i), frames.stamps[i]);
    rec.stop(umbrella, t0);
  };
  if (records) {
    in_arrival_order(frames, *records, on_frame,
                     [&](const ArrivedRecord& arrived, std::uint64_t) {
                       const auto oriented = orienter.orient(arrived.record);
                       const std::int64_t t0 = rec.now();
                       sniffer.on_export_record(oriented, arrived.arrival);
                       rec.stop(record_layer, t0);
                     });
  } else {
    for (std::size_t i = 0; i < frames.size(); ++i) on_frame(i, i);
  }
  const std::int64_t t0 = rec.now();
  sniffer.finish();
  rec.stop(umbrella, t0);
  return seconds_since(start);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::string json = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    json += "{\"name\": " + json_string(s.name) +
            ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(s.tid) +
            ", \"ts\": " +
            json_number(static_cast<double>(s.start_ns - origin) * 1e-3) +
            ", \"dur\": " + json_number(static_cast<double>(s.dur_ns) * 1e-3) +
            ", \"args\": {\"input\": " + std::to_string(s.input) +
            ", \"parent\": " + json_string(s.parent) + "}}" +
            (i + 1 < spans.size() ? ",\n" : "\n");
  }
  json += "]}\n";
  if (!write_file(path, json))
    std::fprintf(stderr, "dnh_bench trace: cannot write %s\n", path.c_str());
}

std::string fixed(double value, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Ledger build_ledger(const Workload& workload, const Inputs& inputs,
                    const RunResult& e2e, const std::string& spans_path) {
  Recorder rec{true};
  const auto inputs_n = static_cast<double>(workload_inputs(workload, inputs));
  const bool live = workload.engine == Engine::kLive;
  const bool direct = workload.jobs == 1 && !workload.flow_export && !live;
  const TsvSummary& reference =
      workload.flow_export ? inputs.export_ref : inputs.capture_ref;
  Metrics ratios;
  std::vector<std::string> problems;

  std::int64_t load_read_ns = 0;
  const FrameArena frames =
      load_frames(workload.flow_export ? inputs.dns_pcap : inputs.capture_pcap,
                  &load_read_ns);
  std::vector<ArrivedRecord> records;
  if (workload.flow_export) records = load_records(inputs.flows_dnhx);
  const std::vector<ArrivedRecord>* records_in =
      workload.flow_export ? &records : nullptr;

  // The end-to-end time the main-path layers must add up to. For live,
  // one pass of the feed at the offered rate (construction excluded).
  // For the CLI, the median wall of `dnhunter export` runs made right
  // around the replay, less the set-up time measured by the untraced run:
  // the host's speed drifts, so the CLI is timed next to the replay.
  double path_s = inputs_n / e2e.metrics.at("inputs_per_s").value;
  double untraced_s = 0, traced_s = 0;
  std::optional<pipeline::PipelineStats> stats;
  if (live) {
    // Open loop: tracing shows as less idle time, not a longer run, so
    // per-call layers carry the floor charge.
    untraced_s = run_feed(frames, 1).wall_s;
    FeedTrace trace;
    FeedResult traced = run_feed(frames, 1, &trace);
    traced_s = traced.wall_s;
    stats = traced.stats;
    Layer& idle = rec.layer("generator.idle", "main", true);
    idle.calls = frames.size();
    idle.extra_ns = trace.idle_ns;
    Layer raw;
    raw.charge_ns = rec.floor_ns();
    for (const std::uint32_t ns : trace.dispatch_ns) raw.record(ns);
    split_dispatch(rec, {&raw});
    for (std::size_t k = 0; k < trace.span_starts.size(); ++k) {
      const std::int64_t start = trace.span_starts[k];
      rec.span(k * kSpanEvery, "pipeline.dispatch", "", 1, start,
               start + trace.dispatch_ns[k * kSpanEvery]);
    }
    rec.layer("pipeline.finish", "main", true).record(trace.finish_ns);
    rec.layer("pipeline.construct", "main", false)
        .record(static_cast<std::int64_t>(traced.setup_s * 1e9));
    Layer& sink = rec.layer("pipeline.sink", "merge", false);
    for (const std::uint32_t ns : trace.sink_ns) sink.record(ns);
    Layer& read = rec.layer("pcap.read", "main", false);
    read.calls = frames.size();
    read.extra_ns = load_read_ns;
    // Tails from the untraced run, which has the most windows.
    for (const auto& [name, from] :
         {std::pair{"pipeline.window.latency_p90_ms", "window_latency_p90_ms_raw"},
          std::pair{"pipeline.window.latency_p99_ms", "window_latency_p99_ms_raw"},
          std::pair{"pipeline.window.latency_samples", "window_latency_samples"},
          std::pair{"pipeline.dispatch.lag_p99_us", "dispatch_lag_p99_us"}})
      if (const auto it = e2e.diagnostics.find(from); it != e2e.diagnostics.end())
        ratios[name] = it->second;
    if (traced.dropped == 0) {
      std::int64_t canon_ns = 0, write_ns = 0;
      const TsvSummary tsv = windows_to_tsv(
          traced.early_windows, traced.timed_start,
          output_dir() + "/live-j2-trace.tsv", &canon_ns, &write_ns);
      rec.layer("pipeline.canonicalize", "main", false).record(canon_ns);
      rec.layer("core.flowdb_io.write", "main", false).record(write_ns);
      if (tsv.sha256 != reference.sha256)
        problems.push_back("traced live windows differ from the reference");
    } else {
      problems.push_back("traced live feed dropped frames");
    }
  } else {
    const std::string tsv = output_dir() + "/" + workload.name + "-trace.tsv";
    std::vector<double> cli_walls;
    const auto time_cli = [&] {
      const std::string out = output_dir() + "/" + workload.name + "-ledger";
      const ChildRun child =
          run_child(cli_command(workload, inputs, false, out + ".tsv"),
                    out + ".stdout", out + ".stderr");
      std::error_code ec;
      std::filesystem::remove(out + ".tsv", ec);
      if (child.exit_code == 0)
        cli_walls.push_back(child.wall_s);
      else
        problems.push_back("dnhunter export failed (see " + out + ".stderr)");
    };
    time_cli();
    time_cli();
    TsvSummary traced_tsv;
    std::tie(traced_s, untraced_s) = calibrated(rec, [&](Recorder& r) {
      PathRun run = cli_path(workload, inputs, tsv, r);
      if (&r == &rec) {
        traced_tsv = run.tsv;
        stats = run.stats;
      }
      return run.wall_s;
    });
    time_cli();
    const auto setup = e2e.diagnostics.find("setup_s_raw");
    path_s = median(cli_walls) -
             (setup != e2e.diagnostics.end() ? setup->second.value : 0.0);
    if (traced_tsv.sha256 != reference.sha256)
      problems.push_back("traced replay TSV differs from the reference");
    if (!direct)
      split_dispatch(rec, {rec.find("pipeline.dispatch.frame"),
                           rec.find("pipeline.dispatch.record")});
  }

  InnerCounts counts;
  calibrated(rec, [&](Recorder& r) {
    const InnerCounts run = replay_inner_layers(frames, records_in, r);
    if (&r == &rec) counts = run;
    return run.wall_s;
  });
  if (!direct)
    calibrated(rec, [&](Recorder& r) {
      return replay_sniffer(frames, records_in, r);
    });

  // core.sniffer.self: the umbrella (on_frame/finish, plus on_export_record
  // for flow export) less the inner layers it contains. Lookups run inside
  // FlowTable::on_packet (already taken off flow.table) or inside
  // on_export_record.
  {
    const Layer& umbrella = *rec.find("core.sniffer");
    double outer = umbrella.busy_ns();
    if (const Layer* on_record = rec.find("core.sniffer.record"))
      outer += on_record->busy_ns();
    double inner = 0;
    for (const char* name :
         {"packet.decode", "dns.scan", "core.intern", "core.resolver.insert",
          "core.resolver.lookup", "flow.table"})
      if (const Layer* layer = rec.find(name)) inner += layer->busy_ns();
    Layer& self =
        rec.layer("core.sniffer.self", umbrella.thread, umbrella.on_path);
    self.calls = umbrella.calls;
    self.extra_ns = static_cast<std::int64_t>(std::max(0.0, outer - inner));
  }

  const auto calls_of = [&](const char* name) {
    return static_cast<double>(rec.find(name)->calls);
  };
  ratios["packet.decode.ok_ratio"] = {
      ratio(static_cast<double>(counts.decode_ok), calls_of("packet.decode")),
      "ratio"};
  ratios["dns.scan.ok_ratio"] = {
      ratio(static_cast<double>(counts.scan_ok), calls_of("dns.scan")), "ratio"};
  ratios["core.intern.new_ratio"] = {
      ratio(static_cast<double>(counts.interned_new), calls_of("core.intern")),
      "ratio"};
  ratios["core.resolver.lookup.hit_ratio"] = {
      ratio(static_cast<double>(counts.hits), static_cast<double>(counts.lookups)),
      "ratio"};
  ratios["core.resolver.insert.eviction_ratio"] = {
      ratio(static_cast<double>(counts.evictions),
            static_cast<double>(counts.inserts)),
      "ratio"};
  if (stats) {
    std::uint64_t blocked = 0, processed_max = 0, processed_sum = 0;
    std::size_t high_water = 0;
    for (const auto& shard : stats->shards) {
      blocked += shard.blocked_pushes;
      high_water = std::max(high_water, shard.queue_high_water);
      processed_max = std::max(processed_max, shard.frames_processed);
      processed_sum += shard.frames_processed;
    }
    ratios["pipeline.ring.blocked_per_kframe"] = {
        ratio(static_cast<double>(blocked) * 1000,
              static_cast<double>(stats->frames_dispatched)),
        "count"};
    ratios["pipeline.ring.blocked_pushes"] = {static_cast<double>(blocked),
                                              "count"};
    ratios["pipeline.ring.queue_high_water"] = {
        static_cast<double>(high_water), "count"};
    ratios["pipeline.shard.skew"] = {
        ratio(static_cast<double>(processed_max) *
                  static_cast<double>(stats->shards.size()),
              static_cast<double>(processed_sum)),
        "ratio"};
    Layer& merge = rec.layer("pipeline.merge", "merge", false);
    merge.calls = stats->windows_merged;
    merge.extra_ns = stats->merge_total.total_micros() * 1000;
    if (stats->windows_spilled)
      ratios["pipeline.spill.bytes_per_window"] = {
          ratio(static_cast<double>(stats->spill_bytes),
                static_cast<double>(stats->windows_spilled)),
          "B"};
  }

  // Rows, closure and the top three. Raw dispatch layers were folded into
  // pipeline.dispatch / pipeline.ring.wait, and layers the workload never
  // called are not rows.
  Metrics all = ratios;
  double on_path_ns = 0;
  std::vector<const Layer*> rows;
  for (const Layer& layer : rec.layers()) {
    if (layer.name.rfind("pipeline.dispatch.", 0) == 0 || layer.calls == 0)
      continue;
    rows.push_back(&layer);
    const double busy = layer.busy_ns();
    if (layer.on_path && layer.thread == "main" &&
        layer.name != "core.sniffer.self")
      on_path_ns += busy;
    const std::string& n = layer.name;
    all[n + ".calls"] = {static_cast<double>(layer.calls), "count"};
    all[n + ".ns_per_call_p50"] = {layer.quantile_ns(0.5), "ns"};
    all[n + ".ns_per_call_p99"] = {layer.quantile_ns(0.99), "ns"};
    all[n + ".ns_per_input"] = {busy / inputs_n, "ns"};
    all[n + ".share"] = {ratio(busy, traced_s * 1e9), "ratio"};
  }
  all["trace.closure_ratio"] = {ratio(on_path_ns * 1e-9, path_s), "ratio"};
  all["trace.overhead_ratio"] = {ratio(traced_s, untraced_s), "ratio"};

  // The umbrella is covered by its parts, generator idle is not program
  // work, and main-thread calls off the main path (set-up, live's load
  // and TSV check) are not in the end-to-end time: none competes for the
  // top three.
  std::vector<const Layer*> ranked;
  for (const Layer* layer : rows)
    if (layer->name != "core.sniffer" && layer->name != "generator.idle" &&
        (layer->on_path || layer->thread != "main"))
      ranked.push_back(layer);
  std::sort(ranked.begin(), ranked.end(), [](const Layer* a, const Layer* b) {
    return a->busy_ns() > b->busy_ns();
  });
  ranked.resize(std::min<std::size_t>(ranked.size(), 3));

  Ledger ledger;
  for (const char* name : kPerLayerMetrics) {
    const auto it = all.find(name);
    if (it == all.end()) {
      problems.push_back(std::string{"ledger lacks "} + name);
      continue;
    }
    ledger.per_layer[name] = it->second;
  }
  for (const auto& [name, unit] : kPerLayerMetricsIfCalled) {
    const auto it = all.find(name);
    ledger.per_layer[name] = it != all.end() ? it->second : Metric{0, unit};
  }

  util::TextTable table{{"layer", "thread", "on path", "calls", "p50 ns",
                         "p99 ns", "ns/input", "share"}};
  std::string layers_json;
  for (const Layer* layer : rows) {
    const std::string& n = layer->name;
    table.add_row({n, layer->thread, layer->on_path ? "yes" : "-",
                   std::to_string(layer->calls),
                   fixed(all[n + ".ns_per_call_p50"].value, 0),
                   fixed(all[n + ".ns_per_call_p99"].value, 0),
                   fixed(all[n + ".ns_per_input"].value, 1),
                   fixed(all[n + ".share"].value * 100, 1) + "%"});
    if (!layers_json.empty()) layers_json += ",\n    ";
    layers_json +=
        "{\"name\": " + json_string(n) + ", \"thread\": " +
        json_string(layer->thread) + ", \"on_path\": " +
        (layer->on_path ? "true" : "false") +
        ", \"calls\": " + std::to_string(layer->calls) +
        ", \"ns_per_call_p50\": " + json_number(all[n + ".ns_per_call_p50"].value) +
        ", \"ns_per_call_p99\": " + json_number(all[n + ".ns_per_call_p99"].value) +
        ", \"ns_per_input\": " + json_number(all[n + ".ns_per_input"].value) +
        ", \"share\": " + json_number(all[n + ".share"].value) +
        ", \"clock_charge_ns\": " + std::to_string(layer->charge_ns) + "}";
  }
  std::string top_json, top_text;
  for (const Layer* layer : ranked) {
    top_json +=
        std::string{top_json.empty() ? "" : ", "} + json_string(layer->name);
    top_text += (top_text.empty() ? "" : ", ") + layer->name + " (" +
                fixed(all[layer->name + ".share"].value * 100, 1) + "%)";
  }
  std::string problems_json;
  for (const auto& problem : problems)
    problems_json += std::string{problems_json.empty() ? "" : ", "} +
                     json_string(problem);

  ledger.table = table.render() + "ratios and diagnostics:\n";
  for (const auto& [name, metric] : ratios)
    ledger.table += "  " + name + " = " + json_number(metric.value) + " " +
                    metric.unit + "\n";
  ledger.table +=
      "trace.closure_ratio = " + fixed(all["trace.closure_ratio"].value, 3) +
      " (main-path layers / " + fixed(path_s, 3) +
      " s end-to-end), trace.overhead_ratio = " +
      fixed(all["trace.overhead_ratio"].value, 3) + "\ntop layers by share: " +
      top_text + "\n";
  for (const auto& problem : problems)
    ledger.table += "PROBLEM: " + problem + "\n";

  ledger.json =
      "{\"workload\": " + json_string(workload.name) +
      ", \"inputs\": " + json_number(inputs_n) +
      ", \"clock_floor_ns\": " + std::to_string(rec.floor_ns()) +
      ", \"end_to_end_path_s\": " + json_number(path_s) +
      ", \"traced_wall_s\": " + json_number(traced_s) +
      ", \"untraced_wall_s\": " + json_number(untraced_s) +
      ", \"closure_ratio\": " + json_number(all["trace.closure_ratio"].value) +
      ", \"overhead_ratio\": " + json_number(all["trace.overhead_ratio"].value) +
      ", \"top_layers\": [" + top_json + "]" +
      ", \"problems\": [" + problems_json + "]" +
      ",\n  \"ratios\": " + metrics_json(ratios) +
      ",\n  \"layers\": [\n    " + layers_json + "]}";
  write_spans(spans_path, rec.spans());
  ledger.problems = std::move(problems);
  return ledger;
}

}  // namespace dnh::e2e
