#include "core/sniffer.hpp"

#include <algorithm>

#include "baseline/cert_inspection.hpp"
#include "baseline/dpi.hpp"
#include "dns/message.hpp"
#include "obs/flight.hpp"
#include "dns/wire_scan.hpp"
#include "packet/decode.hpp"
#include "pcap/pcapng.hpp"

namespace dnh::core {

namespace {

// Process-wide hot-path counters (one naming scheme for what the ad-hoc
// SnifferStats/DegradationStats fields record; the structs remain the
// merge/test plumbing, the registry is the live export surface — see
// docs/observability.md for the field-to-metric mapping). Handles resolve
// once; each bump is a thread-local relaxed increment.
struct SnifferMetrics {
  obs::Registry& r = obs::Registry::global();
  obs::Counter frames = r.counter("dnh_frames_total");
  obs::Counter ts_regressions = r.counter("dnh_timestamp_regressions_total");
  obs::Counter decode_truncated =
      r.counter("dnh_decode_errors_total{kind=truncated}");
  obs::Counter decode_bad_ip =
      r.counter("dnh_decode_errors_total{kind=bad_ip}");
  obs::Counter decode_bad_l4 =
      r.counter("dnh_decode_errors_total{kind=bad_l4}");
  obs::Counter decode_unsupported =
      r.counter("dnh_decode_errors_total{kind=unsupported}");
  obs::Counter dns_responses = r.counter("dnh_dns_responses_total");
  obs::Counter dns_queries = r.counter("dnh_dns_queries_total");
  obs::Counter dns_tcp_messages = r.counter("dnh_dns_tcp_messages_total");
  obs::Counter dns_err_truncated =
      r.counter("dnh_dns_parse_errors_total{kind=truncated}");
  obs::Counter dns_err_count_lie =
      r.counter("dnh_dns_parse_errors_total{kind=count_lie}");
  obs::Counter dns_err_pointer_loop =
      r.counter("dnh_dns_parse_errors_total{kind=pointer_loop}");
  obs::Counter dns_err_pointer_range =
      r.counter("dnh_dns_parse_errors_total{kind=pointer_out_of_range}");
  obs::Counter dns_err_bad_name =
      r.counter("dnh_dns_parse_errors_total{kind=bad_name}");
  obs::Counter dns_err_not_response =
      r.counter("dnh_dns_parse_errors_total{kind=not_a_response}");
  obs::Counter dns_log_evictions = r.counter("dnh_dns_log_evictions_total");
  obs::Counter tcp_dns_overflows = r.counter("dnh_tcp_dns_overflows_total");
  obs::Counter tcp_buffer_evictions =
      r.counter("dnh_tcp_dns_buffer_evictions_total");
  obs::Counter flows_exported = r.counter("dnh_flows_exported_total");
  obs::Counter flows_tagged_start =
      r.counter("dnh_flows_tagged_start_total");
  obs::Counter flows_tagged_late = r.counter("dnh_flows_tagged_late_total");
  obs::Counter export_records_ingested =
      r.counter("dnh_flowexport_records_ingested_total");
  obs::Histogram decode_ns = r.histogram("dnh_stage_decode_ns");
  obs::Histogram dns_parse_ns = r.histogram("dnh_stage_dns_parse_ns");
};

SnifferMetrics& metrics() {
  static SnifferMetrics m;
  return m;
}

std::string shard_gauge_name(const char* base, std::size_t shard) {
  return std::string{base} + "{shard=" + std::to_string(shard) + "}";
}

}  // namespace

Sniffer::Sniffer(SnifferConfig config)
    : config_{config},
      domains_{std::make_shared<DomainTable>()},
      resolver_{config.clist_size, domains_},
      table_{config.table},
      database_{domains_} {
  // Pre-size the TCP-DNS buffer table so steady state never rehashes; it
  // is hard-capped at max_tcp_dns_buffers.
  tcp_dns_buffers_.reserve(
      std::min<std::size_t>(config_.max_tcp_dns_buffers, 1 << 16));
  table_.set_flow_start_observer([this](flow::FlowRecord& flow) {
    on_flow_start(flow,
                  resolver_.lookup(flow.key.client_ip, flow.key.server_ip));
  });
  table_.set_exporter(
      [this](flow::FlowRecord&& flow) { on_flow_export(std::move(flow)); });
  obs::Registry& registry = obs::Registry::global();
  const std::size_t shard = config_.metrics_shard;
  resolver_cache_gauge_ =
      registry.gauge(shard_gauge_name("dnh_resolver_cache_size", shard));
  resolver_clients_gauge_ =
      registry.gauge(shard_gauge_name("dnh_resolver_clients", shard));
  flow_table_gauge_ =
      registry.gauge(shard_gauge_name("dnh_flow_table_live", shard));
  dns_log_gauge_ =
      registry.gauge(shard_gauge_name("dnh_dns_log_size", shard));
  tcp_buffers_gauge_ =
      registry.gauge(shard_gauge_name("dnh_tcp_dns_buffers", shard));
  pending_tags_gauge_ =
      registry.gauge(shard_gauge_name("dnh_pending_tags", shard));
  domain_table_bytes_gauge_ =
      registry.gauge(shard_gauge_name("dnh_domain_table_bytes", shard));
  domain_table_size_gauge_ =
      registry.gauge(shard_gauge_name("dnh_domain_table_size", shard));
}

void Sniffer::publish_gauges() {
  // Clist occupancy: fills monotonically, then stays full (FIFO recycle).
  const std::uint64_t inserted = resolver_.stats().inserts;
  const std::uint64_t capacity = resolver_.capacity();
  resolver_cache_gauge_.set(
      static_cast<std::int64_t>(inserted < capacity ? inserted : capacity));
  resolver_clients_gauge_.set(
      static_cast<std::int64_t>(resolver_.client_count()));
  flow_table_gauge_.set(static_cast<std::int64_t>(table_.live_flows()));
  dns_log_gauge_.set(static_cast<std::int64_t>(dns_log_.size()));
  tcp_buffers_gauge_.set(
      static_cast<std::int64_t>(tcp_dns_buffers_.size()));
  pending_tags_gauge_.set(static_cast<std::int64_t>(start_tagged_live_));
  domain_table_bytes_gauge_.set(
      static_cast<std::int64_t>(domains_->arena_bytes()));
  domain_table_size_gauge_.set(static_cast<std::int64_t>(domains_->size()));
  // Piggybacked on the gauge cadence (every 4096 frames): a cheap "this
  // shard was sniffing at T" marker for stall forensics.
  obs::trace_event(obs::TraceStage::kShard, obs::TraceKind::kSniffProgress,
                   obs::kNoSeq, static_cast<unsigned>(config_.metrics_shard),
                   stats_.frames);
}

void Sniffer::on_frame(net::BytesView frame, util::Timestamp ts) {
  SnifferMetrics& m = metrics();
  ++stats_.frames;
  m.frames.inc();
  if ((stats_.frames & (kGaugePublishInterval - 1)) == 0) publish_gauges();
  // Clock sanity: capture replay and fault injection can both deliver
  // frames out of order; the flow table tolerates it, but it is a
  // degradation signal worth surfacing.
  if (have_last_frame_ts_ && ts < last_frame_ts_) {
    ++stats_.degradation.timestamp_regressions;
    m.ts_regressions.inc();
  } else {
    last_frame_ts_ = ts;
  }
  have_last_frame_ts_ = true;

  packet::DecodeFailure failure = packet::DecodeFailure::kNone;
  obs::SpanTimer decode_span{m.decode_ns, decode_gate_};
  const auto pkt = packet::decode_frame(frame, ts, failure);
  decode_span.stop();
  if (!pkt) {
    ++stats_.decode_failures;
    switch (failure) {
      case packet::DecodeFailure::kTruncatedL2:
        ++stats_.degradation.frames_truncated;
        m.decode_truncated.inc();
        break;
      case packet::DecodeFailure::kBadIpHeader:
        ++stats_.degradation.bad_ip_headers;
        m.decode_bad_ip.inc();
        break;
      case packet::DecodeFailure::kBadL4Header:
        ++stats_.degradation.bad_l4_headers;
        m.decode_bad_l4.inc();
        break;
      case packet::DecodeFailure::kUnsupported:
      case packet::DecodeFailure::kNone:
        ++stats_.degradation.unsupported_frames;
        m.decode_unsupported.inc();
        break;
    }
    return;
  }
  if (!pkt->is_ipv4()) return;  // the generator emits IPv4 only

  if (pkt->is_udp()) {
    if (pkt->udp().src_port == dns::kDnsPort) {
      on_dns_packet(*pkt);
      return;
    }
    if (pkt->udp().dst_port == dns::kDnsPort) {
      ++stats_.dns_queries;  // queries carry no answers; nothing to store
      m.dns_queries.inc();
      return;
    }
  }
  if (pkt->is_tcp() && (pkt->tcp().src_port == dns::kDnsPort ||
                        pkt->tcp().dst_port == dns::kDnsPort)) {
    // DNS over TCP (truncated-response retries): responses are labeled
    // input, not traffic to tag.
    if (pkt->tcp().src_port == dns::kDnsPort) {
      on_tcp_dns_segment(*pkt);
    } else {
      ++stats_.dns_queries;
      m.dns_queries.inc();
    }
    return;
  }
  if (config_.dns_only) return;  // flows arrive via on_export_record
  table_.on_packet(*pkt);
}

// dnh-analyze: hot
void Sniffer::on_export_record(const flow::OrientedRecord& record,
                               util::Timestamp arrival) {
  ++stats_.export_records;
  metrics().export_records_ingested.inc();

  if (flow::FlowRecord* fresh = table_.on_record(record)) {
    // Start-tag parity with the packet path: resolver insertions are
    // stream-ordered, so the newest entry at-or-before the flow's first
    // packet is exactly what the packet path's lookup() saw at that instant
    // — even though the export record reaches us seconds later.
    on_flow_start(*fresh, resolver_.lookup_at_or_before(
                              record.key.client_ip, record.key.server_ip,
                              record.first));
  }

  if (stats_.export_records % config_.table.sweep_interval_packets == 0) {
    // Memory bound only: the export-time label is a cutoff query at the
    // flow's last packet, so exporting early or late cannot change it.
    table_.sweep_idle(arrival);
    publish_gauges();
  }
}

// dnh-analyze: hot
void Sniffer::handle_dns_message(net::BytesView wire,
                                 net::Ipv4Address client,
                                 util::Timestamp ts) {
  SnifferMetrics& m = metrics();
  dns::MessageParseError parse_error = dns::MessageParseError::kNone;
  obs::SpanTimer parse_span{m.dns_parse_ns, dns_gate_};
  const bool parsed = dns::scan_response(wire, dns_scratch_, parse_error);
  parse_span.stop();
  if (!parsed) {
    ++stats_.dns_parse_failures;
    switch (parse_error) {
      case dns::MessageParseError::kTruncated:
        ++stats_.degradation.dns_truncated;
        m.dns_err_truncated.inc();
        break;
      case dns::MessageParseError::kCountLie:
        ++stats_.degradation.dns_count_lies;
        m.dns_err_count_lie.inc();
        break;
      case dns::MessageParseError::kPointerLoop:
        ++stats_.degradation.dns_pointer_loops;
        m.dns_err_pointer_loop.inc();
        break;
      case dns::MessageParseError::kPointerOutOfRange:
        ++stats_.degradation.dns_pointer_out_of_range;
        m.dns_err_pointer_range.inc();
        break;
      case dns::MessageParseError::kBadName:
      case dns::MessageParseError::kNone:
        ++stats_.degradation.dns_bad_names;
        m.dns_err_bad_name.inc();
        break;
    }
    return;
  }
  if (!dns_scratch_.is_response) {
    // Well-formed but not a response on the response port: odd, not hostile.
    ++stats_.dns_parse_failures;
    m.dns_err_not_response.inc();
    return;
  }
  ++stats_.dns_responses;
  m.dns_responses.inc();
  if (dns_scratch_.name_len == 0)
    return;  // no question section: nothing to key on

  const DomainId fqdn = domains_->intern(dns_scratch_.name_view());
  resolver_.insert(client, fqdn, dns_scratch_.addresses, ts);
  if (config_.record_dns_log) {
    if (config_.max_dns_log > 0 && dns_log_.size() >= config_.max_dns_log) {
      // Halving eviction keeps amortized cost O(1) per event and retains
      // the recent half the delay analytics care most about.
      const std::size_t evict = dns_log_.size() / 2;
      dns_log_.erase(dns_log_.begin(),
                     dns_log_.begin() + static_cast<std::ptrdiff_t>(evict));
      stats_.degradation.dns_log_evictions += evict;
      m.dns_log_evictions.add(evict);
    }
    dns_log_.push_back(
        {ts, client, domains_->view(fqdn), dns_scratch_.addresses, fqdn});
  }
}

void Sniffer::on_dns_packet(const packet::DecodedPacket& pkt) {
  handle_dns_message(pkt.payload, pkt.dst_v4(), pkt.timestamp);
}

void Sniffer::on_tcp_dns_segment(const packet::DecodedPacket& pkt) {
  if (pkt.payload.empty()) return;  // handshake/teardown segments
  const net::Ipv4Address client = pkt.dst_v4();
  const std::uint64_t key =
      (std::uint64_t{client.value()} << 16) | pkt.dst_port();
  if (config_.max_tcp_dns_buffers > 0 &&
      tcp_dns_buffers_.size() >= config_.max_tcp_dns_buffers &&
      !tcp_dns_buffers_.count(key)) {
    // At capacity and this is a new connection: evict one buffer so an
    // adversary opening endless half-streams cannot grow state unboundedly.
    tcp_dns_buffers_.erase(tcp_dns_buffers_.begin());
    ++stats_.degradation.tcp_dns_buffer_evictions;
    metrics().tcp_buffer_evictions.inc();
  }
  net::Bytes& buffer = tcp_dns_buffers_[key];
  if (buffer.size() + pkt.payload.size() > 65536 + 2) {
    buffer.clear();  // runaway stream: drop and resync
    ++stats_.degradation.tcp_dns_overflows;
    metrics().tcp_dns_overflows.inc();
    return;
  }
  buffer.insert(buffer.end(), pkt.payload.begin(), pkt.payload.end());

  // Drain complete length-prefixed messages (RFC 1035 4.2.2).
  while (buffer.size() >= 2) {
    const std::size_t length =
        (std::size_t{buffer[0]} << 8) | buffer[1];
    if (buffer.size() < 2 + length) break;
    handle_dns_message(net::BytesView{buffer.data() + 2, length}, client,
                       pkt.timestamp);
    ++stats_.dns_tcp_messages;
    metrics().dns_tcp_messages.inc();
    buffer.erase(buffer.begin(), buffer.begin() + 2 + length);
  }
  if (buffer.empty()) tcp_dns_buffers_.erase(key);
}

void Sniffer::on_flow_start(flow::FlowRecord& flow,
                            const std::optional<ResolverHit>& hit) {
  if (hit) {
    flow.start_fqdn = hit->fqdn_id;
    flow.start_response_time = hit->response_time;
    ++start_tagged_live_;
  }
  if (flow_start_hook_)
    flow_start_hook_(flow, hit ? hit->fqdn : std::string_view{});
}

void Sniffer::on_flow_export(flow::FlowRecord&& flow) {
  SnifferMetrics& m = metrics();
  ++stats_.flows_exported;
  m.flows_exported.inc();
  TaggedFlow tagged;
  tagged.key = flow.key;
  tagged.first_packet = flow.first_packet;
  tagged.last_packet = flow.last_packet;
  tagged.packets_c2s = flow.packets_c2s;
  tagged.packets_s2c = flow.packets_s2c;
  tagged.bytes_c2s = flow.bytes_c2s;
  tagged.bytes_s2c = flow.bytes_s2c;

  if (flow.start_fqdn != kEmptyDomainId) {
    tagged.fqdn_id = flow.start_fqdn;
    tagged.fqdn = domains_->view(tagged.fqdn_id);
    tagged.dns_response_time = flow.start_response_time;
    tagged.tagged_at_start = true;
    ++stats_.flows_tagged_at_start;
    m.flows_tagged_start.inc();
    --start_tagged_live_;
  } else {
    // Late retry: the response may have been sniffed after the first
    // packet (e.g. flow start raced the DNS answer). Only responses
    // observed during the flow's lifetime qualify — a response that
    // arrived after the flow's last packet cannot have named it, and
    // accepting it would make the label depend on WHEN the export fires
    // (sweep cadence), breaking the parallel pipeline's guarantee that
    // sharded and single-threaded runs label identically.
    if (const auto hit = resolver_.lookup_at_or_before(
            flow.key.client_ip, flow.key.server_ip, flow.last_packet)) {
      tagged.fqdn_id = hit->fqdn_id;
      tagged.fqdn = hit->fqdn;
      tagged.dns_response_time = hit->response_time;
      ++stats_.flows_tagged_at_export;
      m.flows_tagged_late.inc();
    }
  }

  tagged.protocol = baseline::classify(flow);
  // dnh-analyze: allow(alloc, baseline DPI labeling runs once per expired
  // flow, amortized across the flow's packets; the per-packet ingest path
  // above stays allocation-free)
  if (auto label = baseline::dpi_label(flow)) {
    tagged.dpi_label = std::move(*label);
  }
  if (tagged.protocol == flow::ProtocolClass::kTls) {
    // dnh-analyze: allow(alloc, certificate parse is once per expired TLS
    // flow, same amortization argument as the DPI label above)
    if (const auto info = baseline::inspect_certificate(flow)) {
      tagged.has_certificate = true;
      tagged.cert_cn = info->subject_cn;
      tagged.cert_san = info->san_dns;
    }
  }
  database_.add(std::move(tagged));
}

bool Sniffer::process_pcap(const std::string& path) {
  // Accepts classic pcap and pcapng transparently. In resync mode a
  // damaged file is read to the end and the damage lands in the
  // degradation counters instead of error().
  pcap::CaptureReadOptions options;
  options.resync = config_.resync_capture;
  pcap::CaptureReadReport report;
  const bool ok = pcap::read_capture_views(
      path,
      [this](const pcap::FrameView& frame) {
        on_frame(frame.data, frame.timestamp);
      },
      options, report);
  stats_.degradation.capture_resyncs += report.corruption.resyncs;
  stats_.degradation.capture_bytes_skipped += report.corruption.bytes_skipped;
  stats_.degradation.capture_truncated_tails +=
      report.corruption.truncated_tail;
  error_ = std::move(report.error);
  return ok;
}

void Sniffer::finish() {
  table_.flush();
  publish_gauges();
}

}  // namespace dnh::core
