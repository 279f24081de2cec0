// The DN-Hunter Real-Time Sniffer (paper Fig. 1): DNS Response Sniffer +
// Flow Sniffer + Flow Tagger feeding the labeled Flow Database.
//
// Consumes a packet stream (live, or a pcap file — identical code path),
// maintains the DNS Resolver replica of client caches, tags each flow at
// its FIRST packet when the resolver already knows the (client, server)
// pair — the property that enables proactive per-flow policy — and exports
// finished flows into the FlowDatabase enriched with DPI/cert-inspection
// baseline fields for the comparison analytics.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/domain_table.hpp"
#include "core/flowdb.hpp"
#include "core/resolver.hpp"
#include "dns/wire_scan.hpp"
#include "flow/table.hpp"
#include "net/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/flat_hash.hpp"
#include "util/time.hpp"

namespace dnh::core {

/// One sniffed DNS response, retained for the off-line delay/dimensioning
/// analytics (Figs. 12-14, Tab. 9, Sec. 6).
struct DnsEvent {
  util::Timestamp time;
  net::Ipv4Address client;
  /// View into the sniffer's DomainTable arena; valid while the table
  /// lives (the sniffer's FlowDatabase shares and thereby retains it).
  std::string_view fqdn;
  std::vector<net::Ipv4Address> servers;
  /// Interned id of `fqdn` in that table.
  DomainId fqdn_id = kEmptyDomainId;
};

struct SnifferConfig {
  /// Clist size L (paper Sec. 6 dimensions this against cache lifetime).
  /// L is an upper bound on the Clist's committed memory, not an up-front
  /// cost: a slot is committed when the first DNS response reaches it.
  std::size_t clist_size = 1 << 20;
  flow::TableConfig table;
  /// Retain the DNS event log for off-line analytics (costs memory).
  bool record_dns_log = true;
  /// Bounded-memory guard on the DNS event log: when full, the oldest half
  /// is evicted (counted in DegradationStats::dns_log_evictions) so a
  /// months-long run cannot exhaust memory. 0 disables the cap.
  std::size_t max_dns_log = 4u << 20;
  /// Cap on concurrent DNS-over-TCP reassembly buffers; an adversary
  /// opening many half-finished TCP/53 streams must not grow state
  /// unboundedly. Oldest-arbitrary eviction past this point.
  std::size_t max_tcp_dns_buffers = 4096;
  /// Read damaged pcap files in skip-and-resync mode instead of aborting
  /// at the first corrupt record (see pcap::Reader::Mode).
  bool resync_capture = false;
  /// Shard label on this sniffer's per-instance gauges
  /// (`dnh_resolver_cache_size{shard=N}`, ...). The sharded pipeline sets
  /// its worker index; the single-threaded path keeps 0. Counters are
  /// process-wide and unlabeled — they sum across shards by construction.
  std::size_t metrics_shard = 0;
  /// Flow-export ingest mode: packets feed only the DNS side (resolver,
  /// event log); the flow table never sees them. Flows arrive pre-summarized
  /// through on_export_record() instead, so running the full capture through
  /// on_frame() cannot double-count traffic the router already exported.
  bool dns_only = false;
};

/// Typed accounting of every malformed input the pipeline survived. One
/// counter per fault class — "how degraded is this capture?" must be
/// answerable without grepping logs. Zero across the board on clean input.
struct DegradationStats {
  // Frame/packet layer (each also counts once in decode_failures).
  std::uint64_t frames_truncated = 0;   ///< frame ends inside L2 headers
  std::uint64_t bad_ip_headers = 0;     ///< IPv4/IPv6 header malformed
  std::uint64_t bad_l4_headers = 0;     ///< TCP/UDP header malformed
  std::uint64_t unsupported_frames = 0; ///< benign non-IP/TCP/UDP traffic
  std::uint64_t timestamp_regressions = 0;  ///< frame ts before predecessor

  // DNS wire layer (each also counts once in dns_parse_failures).
  std::uint64_t dns_truncated = 0;            ///< message/record cut short
  std::uint64_t dns_pointer_loops = 0;        ///< compression pointer cycle
  std::uint64_t dns_pointer_out_of_range = 0; ///< pointer past the message
  std::uint64_t dns_bad_names = 0;            ///< reserved labels/limits
  std::uint64_t dns_count_lies = 0;           ///< implausible section counts

  // Bounded-memory guards.
  std::uint64_t tcp_dns_overflows = 0;        ///< runaway streams reset
  std::uint64_t tcp_dns_buffer_evictions = 0; ///< buffers evicted at cap
  std::uint64_t dns_log_evictions = 0;        ///< DnsEvents evicted at cap

  // Capture container layer (pcap resync mode).
  std::uint64_t capture_resyncs = 0;         ///< corrupt records skipped
  std::uint64_t capture_bytes_skipped = 0;   ///< bytes lost to corruption
  std::uint64_t capture_truncated_tails = 0; ///< files ending mid-record

  // Parallel-pipeline load shedding (pipeline::BackpressurePolicy::kDrop).
  // Counted here so "how degraded is this run?" has one answer whether the
  // damage came from the wire or from overload. Not part of
  // malformed_total(): shed load is a capacity event, not hostile input.
  std::uint64_t pipeline_frames_dropped = 0;  ///< frames shed at full queues

  /// Total hostile-or-corrupt events (excludes benign unsupported frames
  /// and byte counts).
  std::uint64_t malformed_total() const noexcept {
    return frames_truncated + bad_ip_headers + bad_l4_headers +
           timestamp_regressions + dns_truncated + dns_pointer_loops +
           dns_pointer_out_of_range + dns_bad_names + dns_count_lies +
           tcp_dns_overflows + capture_resyncs + capture_truncated_tails;
  }
};

struct SnifferStats {
  std::uint64_t frames = 0;
  std::uint64_t decode_failures = 0;  ///< non-IP/TCP/UDP or malformed
  std::uint64_t dns_responses = 0;
  std::uint64_t dns_parse_failures = 0;
  std::uint64_t dns_queries = 0;  ///< client->server DNS packets (not stored)
  std::uint64_t dns_tcp_messages = 0;  ///< responses carried over TCP
  std::uint64_t flows_exported = 0;
  std::uint64_t flows_tagged_at_start = 0;
  std::uint64_t flows_tagged_at_export = 0;  ///< late tag (rare)
  std::uint64_t export_records = 0;  ///< flow-export records ingested
  DegradationStats degradation;  ///< typed malformed-input accounting
};

class Sniffer {
 public:
  /// Invoked at each flow's first packet (a record flow's first record,
  /// already merged) with the label DN-Hunter already has ("" when
  /// unknown) — the hook a live policy enforcer attaches to.
  using FlowStartHook =
      std::function<void(const flow::FlowRecord&, std::string_view fqdn)>;

  explicit Sniffer(SnifferConfig config = {});

  /// Feeds one link-layer frame.
  void on_frame(net::BytesView frame, util::Timestamp ts);

  /// Feeds one oriented flow-export record (NetFlow/IPFIX ingest). Both
  /// directions of a flow merge in the flow table under the oriented key
  /// (FlowTable::on_record) until an arrival-driven idle gap, the idle
  /// sweep or finish() exports it through the same tagging/export path
  /// packets take. `arrival` is when the export datagram reached the
  /// collector (drives the idle sweep only — tag decisions depend solely
  /// on the record's own timestamps).
  void on_export_record(const flow::OrientedRecord& record,
                        util::Timestamp arrival);

  /// Streams a pcap file through the sniffer. Returns false if the file
  /// cannot be opened or is corrupt (partial processing may have occurred;
  /// see `error()`).
  bool process_pcap(const std::string& path);

  /// Flushes still-open flows into the database (end of capture).
  void finish();

  void set_flow_start_hook(FlowStartHook hook) {
    flow_start_hook_ = std::move(hook);
  }

  const FlowDatabase& database() const noexcept { return database_; }
  FlowDatabase& database() noexcept { return database_; }

  /// Moves the accumulated flow database out and starts a fresh one; the
  /// resolver and live flow table are untouched (window rotation for
  /// long-running deployments — see pipeline::PipelineConfig::window). The
  /// fresh database shares the sniffer's DomainTable, so labels interned
  /// in earlier windows stay valid and are not re-copied.
  FlowDatabase take_database() {
    FlowDatabase out = std::move(database_);
    database_ = FlowDatabase{domains_};
    return out;
  }

  /// The interner shared by this sniffer's resolver, DNS log and
  /// databases. DnsEvent/TaggedFlow views point into it.
  const std::shared_ptr<DomainTable>& domain_table() const noexcept {
    return domains_;
  }

  /// Moves the DNS event log out and starts a fresh one.
  std::vector<DnsEvent> take_dns_log() {
    std::vector<DnsEvent> out = std::move(dns_log_);
    dns_log_.clear();
    return out;
  }
  const DnsResolver& resolver() const noexcept { return resolver_; }
  const std::vector<DnsEvent>& dns_log() const noexcept { return dns_log_; }
  const SnifferStats& stats() const noexcept { return stats_; }
  const DegradationStats& degradation() const noexcept {
    return stats_.degradation;
  }
  const std::string& error() const noexcept { return error_; }

 private:
  /// Publishes this sniffer's state gauges (resolver/cache/table sizes)
  /// from the owning thread; called every kGaugePublishInterval frames
  /// and at finish() so the metrics exporter sees live-ish values without
  /// racing the hot path.
  void publish_gauges();
  static constexpr std::uint64_t kGaugePublishInterval = 4096;

  void on_dns_packet(const packet::DecodedPacket& pkt);
  void on_tcp_dns_segment(const packet::DecodedPacket& pkt);
  void handle_dns_message(net::BytesView wire, net::Ipv4Address client,
                          util::Timestamp ts);
  /// Writes the resolver's answer at the flow's start into the flow as its
  /// start label and fires the flow-start hook.
  void on_flow_start(flow::FlowRecord& flow,
                     const std::optional<ResolverHit>& hit);
  void on_flow_export(flow::FlowRecord&& flow);

  SnifferConfig config_;
  /// Declared before every member that shares it (resolver, database).
  std::shared_ptr<DomainTable> domains_;
  DnsResolver resolver_;
  flow::FlowTable table_;
  FlowDatabase database_;
  /// Reused decode buffers: steady-state DNS handling allocates nothing.
  dns::ResponseScratch dns_scratch_;
  std::vector<DnsEvent> dns_log_;
  /// Live flows in table_ that carry a start label (dnh_pending_tags).
  std::size_t start_tagged_live_ = 0;
  /// Per-connection reassembly of length-prefixed DNS-over-TCP responses,
  /// keyed by (clientIP, client port): a flat open-addressing table
  /// (docs/performance.md "Flat-hash hot path") probed per TCP-DNS
  /// segment.
  // dnh-analyze: bounded(max_tcp_dns_buffers) oldest-arbitrary eviction at
  // the cap, counted in tcp_dns_buffer_evictions.
  util::FlatHash<std::uint64_t, net::Bytes> tcp_dns_buffers_;
  FlowStartHook flow_start_hook_;
  SnifferStats stats_;
  bool have_last_frame_ts_ = false;
  util::Timestamp last_frame_ts_;
  std::string error_;

  // Observability (docs/observability.md): sampled span gates are owned
  // here because a Sniffer is single-threaded; per-shard gauges carry the
  // {shard=N} label from config_.metrics_shard.
  obs::SampleGate decode_gate_{64};
  obs::SampleGate dns_gate_{16};
  obs::Gauge resolver_cache_gauge_;
  obs::Gauge resolver_clients_gauge_;
  obs::Gauge flow_table_gauge_;
  obs::Gauge dns_log_gauge_;
  obs::Gauge tcp_buffers_gauge_;
  obs::Gauge pending_tags_gauge_;
  obs::Gauge domain_table_bytes_gauge_;
  obs::Gauge domain_table_size_gauge_;
};

}  // namespace dnh::core
