// NetFlow-v5 + IPFIX-lite flow-export codec.
//
// Routers summarize traffic as *flow records* (NetFlow/IPFIX) instead of
// packets; FlowDNS-style deployments join those records with sniffed DNS
// to tag flows ISP-wide without full capture. This module speaks the two
// wire formats that matter:
//
//  - NetFlow v5: fixed 24-byte header + 48-byte records, timestamps
//    relative to router sysuptime (resolved against the header's wall
//    clock), at most 30 records per datagram.
//  - IPFIX (RFC 7011), the "lite" profile: message/set framing, template
//    sets (id 2) defining data-record layouts, data sets referencing
//    them. Only the ten information elements the analyzer needs are
//    interpreted; unknown IEs are skipped by their declared lengths, and
//    enterprise-specific fields are tolerated. Variable-length fields and
//    options templates are out of scope (options sets are skipped whole).
//
// Decoding is zero-copy over the datagram buffer and returns typed
// `ExportParseError`s in the style of the dns/pcap parsers: corrupt input
// is an expected condition, accounted per-kind, never an exception. The
// IPFIX template cache is bounded with FIFO eviction so a hostile or
// looping exporter cannot grow memory without limit; a data set whose
// template is unknown (lost datagram, evicted entry) cannot even be
// delimited into records, so it is skipped whole and counted as
// `kUnknownTemplate` — the typed degradation the chaos tests assert on.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/bytes.hpp"
#include "net/ip.hpp"
#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace dnh::flowexport {

/// Typed decode failures, mirroring dns::ParseError / pcap corruption
/// classes. `kNone` means the datagram decoded cleanly.
enum class ExportParseError : std::uint8_t {
  kNone = 0,
  kTruncated,        ///< datagram shorter than its headers claim
  kBadVersion,       ///< neither NetFlow v5 nor IPFIX (version 10)
  kCountLie,         ///< v5 header count exceeds what the datagram holds
  kBadSetLength,     ///< IPFIX set length < 4 or past the message end
  kBadTemplate,      ///< malformed template record (0 fields, truncated,
                     ///< variable-length field in the lite profile)
  kUnknownTemplate,  ///< data set references a template we do not hold
  kBadRecord,        ///< record slice failed to decode
};
constexpr std::size_t kExportParseErrorKinds = 8;

/// Stable lower_snake name for stats/metric labels ("unknown_template").
std::string_view export_parse_error_name(ExportParseError e) noexcept;

/// One flow record in wire-neutral, absolute-time form. Directionless:
/// src/dst are as the router observed them; orientation into
/// client->server happens downstream (orient.hpp).
struct ExportRecord {
  net::Ipv4Address src_ip;
  net::Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 6;   ///< IP protocol (6 TCP, 17 UDP)
  std::uint8_t tcp_flags = 0;  ///< cumulative OR over the flow
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  util::Timestamp first;  ///< first packet of the flow (ms precision)
  util::Timestamp last;   ///< last packet of the flow (ms precision)
};

/// IPFIX information elements of the lite profile.
enum IpfixIe : std::uint16_t {
  kIeOctetDeltaCount = 1,
  kIePacketDeltaCount = 2,
  kIeProtocolIdentifier = 4,
  kIeTcpControlBits = 6,
  kIeSourceTransportPort = 7,
  kIeSourceIpv4Address = 8,
  kIeDestinationTransportPort = 11,
  kIeDestinationIpv4Address = 12,
  kIeFlowStartMilliseconds = 152,
  kIeFlowEndMilliseconds = 153,
};

struct DecoderConfig {
  /// Maximum (observation domain, template id) entries held; beyond this
  /// the oldest entry is evicted FIFO. Bounds decoder memory against
  /// template churn from many exporters.
  std::size_t template_cache_capacity = 1024;
  /// Registry shard label for the template-cache gauge (multi-decoder
  /// processes keep their gauges apart the same way sniffer shards do).
  std::size_t metrics_shard = 0;
};

/// Deterministic, exactly-once decode accounting (the struct the tests
/// assert on; registry counters carry the same values live).
struct ExportDecoderStats {
  std::uint64_t datagrams = 0;
  std::uint64_t records_v5 = 0;
  std::uint64_t records_ipfix = 0;
  std::uint64_t templates_added = 0;
  std::uint64_t templates_refreshed = 0;
  std::uint64_t templates_evicted = 0;
  std::uint64_t options_sets_skipped = 0;
  /// Indexed by ExportParseError; [0] (kNone) stays zero.
  std::array<std::uint64_t, kExportParseErrorKinds> errors{};

  std::uint64_t records() const noexcept { return records_v5 + records_ipfix; }
  std::uint64_t parse_errors() const noexcept {
    std::uint64_t n = 0;
    for (const auto e : errors) n += e;
    return n;
  }
};

/// Streaming decoder: feed datagrams in arrival order, collect records.
/// Template state persists across datagrams (that is the point of IPFIX);
/// everything else is per-datagram.
class ExportDecoder {
 public:
  explicit ExportDecoder(DecoderConfig config = {});

  /// Decodes one export datagram, appending its records to `out`.
  /// Returns the first error encountered (`kNone` for a clean decode);
  /// records decoded before the error are kept — degradation is partial,
  /// never all-or-nothing.
  ExportParseError on_datagram(net::BytesView data,
                               std::vector<ExportRecord>& out);

  const ExportDecoderStats& stats() const noexcept { return stats_; }
  std::size_t template_cache_size() const noexcept {
    return templates_.size();
  }

 private:
  struct TemplateField {
    std::uint16_t ie = 0;
    std::uint16_t length = 0;
  };
  struct Template {
    std::vector<TemplateField> fields;
    std::size_t record_length = 0;
  };

  ExportParseError decode_v5(net::ByteReader& r,
                             std::vector<ExportRecord>& out);
  ExportParseError decode_ipfix(net::BytesView message,
                                std::vector<ExportRecord>& out);
  ExportParseError decode_template_set(net::BytesView set,
                                       std::uint32_t domain);
  void decode_data_set(net::BytesView set, const Template& tmpl,
                       util::Timestamp export_time,
                       std::vector<ExportRecord>& out);
  void remember_template(std::uint64_t key, Template tmpl);
  void note_error(ExportParseError e);
  void publish_gauge();

  DecoderConfig config_;
  ExportDecoderStats stats_;
  // Keyed by (observation domain << 16) | template id. Capacity-capped
  // with FIFO eviction via insertion_order_ (the bound the chaos tests
  // and lint fixtures exercise).
  // dnh-analyze: bounded(template_cache_capacity)
  std::unordered_map<std::uint64_t, Template> templates_;
  // dnh-analyze: bounded(template_cache_capacity)
  std::deque<std::uint64_t> insertion_order_;
  obs::Gauge template_cache_gauge_;
};

/// Wire formats the encoder can emit (the decoder auto-detects).
enum class ExportFormat : std::uint8_t { kV5, kIpfix };
std::string_view export_format_name(ExportFormat f) noexcept;

struct EncoderConfig {
  ExportFormat format = ExportFormat::kV5;
  /// Records per datagram (v5 caps at 30 on the wire; IPFIX follows the
  /// same batching so datagram pacing matches across formats).
  std::size_t max_records_per_datagram = 30;
  /// IPFIX: re-emit the template set every N datagrams, so decoders that
  /// joined late (or lost the first datagram) eventually resynchronize —
  /// the property the template-loss chaos mode leans on.
  std::size_t template_refresh_interval = 16;
  std::uint32_t observation_domain = 1;
};

/// One encoded export datagram plus the router clock it was sent at.
struct ExportDatagram {
  util::Timestamp export_time;
  net::Bytes payload;
};

/// Batches records into wire datagrams. Records must be added in
/// non-decreasing `last` order (routers export flows as they expire);
/// each datagram's export time is its newest record's `last` plus the
/// configured delay, emulating the router's expiry cadence.
class ExportEncoder {
 public:
  explicit ExportEncoder(EncoderConfig config = {});

  /// Queues one record; may seal a datagram into the output list.
  void add(const ExportRecord& record);
  /// Seals any partial datagram.
  void flush();
  /// Datagrams sealed so far, in export-time order (moves them out).
  std::vector<ExportDatagram> take_datagrams();

  std::uint64_t records_encoded() const noexcept { return records_; }

 private:
  void seal();
  net::Bytes encode_v5(const std::vector<ExportRecord>& batch,
                       util::Timestamp export_time);
  net::Bytes encode_ipfix(const std::vector<ExportRecord>& batch,
                          util::Timestamp export_time, bool with_template);

  EncoderConfig config_;
  std::vector<ExportRecord> pending_;
  std::vector<ExportDatagram> sealed_;
  std::uint64_t records_ = 0;
  std::uint64_t datagrams_ = 0;
  std::uint32_t sequence_v5_ = 0;     ///< v5: cumulative record count
  std::uint32_t sequence_ipfix_ = 0;  ///< IPFIX: data-record count
};

/// How long after a flow's last packet the router exports it (applied by
/// the encoder when stamping datagram export times).
inline constexpr util::Duration kExportDelay = util::Duration::seconds(1.0);

}  // namespace dnh::flowexport
