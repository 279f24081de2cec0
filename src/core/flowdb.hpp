// The labeled Flow Database (paper Fig. 1): the sniffer's output store that
// the off-line analyzer mines. Holds each finished flow with its FQDN tag
// and protocol class, with secondary indexes matching the analytics
// algorithms' query patterns (by 2nd-level domain for Alg. 2, by serverIP
// for Alg. 3, by destination port for Alg. 4).
//
// FQDN storage is interned: every label lives once in the database's
// DomainTable and flows carry a DomainId plus a string_view into the
// table's arena. add() re-interns whatever text the caller supplies, so a
// producer's fqdn view only has to stay valid across the add() call; the
// indexes hash 32-bit ids instead of full strings.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/domain_table.hpp"
#include "flow/flow.hpp"
#include "net/ip.hpp"
#include "util/time.hpp"

namespace dnh::core {

/// One finished, labeled flow.
struct TaggedFlow {
  flow::FlowKey key;
  util::Timestamp first_packet;
  util::Timestamp last_packet;
  std::uint64_t packets_c2s = 0;
  std::uint64_t packets_s2c = 0;
  std::uint64_t bytes_c2s = 0;
  std::uint64_t bytes_s2c = 0;
  flow::ProtocolClass protocol = flow::ProtocolClass::kUnknown;

  /// DN-Hunter label; empty when the lookup missed. Once the flow is in a
  /// FlowDatabase this view points into the database's DomainTable (valid
  /// for the database's lifetime); before add(), it points at whatever
  /// the producer staged and only needs to outlive the add() call.
  std::string_view fqdn;
  /// Interned id of `fqdn` in the owning database's DomainTable;
  /// kEmptyDomainId (= unlabeled) until add() assigns it.
  DomainId fqdn_id = kEmptyDomainId;
  /// When the DNS response that produced the label was sniffed; only
  /// meaningful when `fqdn` is non-empty.
  util::Timestamp dns_response_time;
  /// True when the label was already available at the flow's first packet
  /// (the "identify flows before they begin" property).
  bool tagged_at_start = false;

  // Baseline-derived fields, filled by the sniffer at export time so the
  // analyzer does not need to retain payload bytes:
  /// What a DPI box would label the flow (HTTP Host / TLS SNI); empty when
  /// the payload exposes nothing.
  std::string dpi_label;
  /// Leaf-certificate subject CN from the TLS handshake, if one was seen.
  std::string cert_cn;
  /// Leaf-certificate subjectAltName dNSNames.
  std::vector<std::string> cert_san;
  /// True if the server sent a certificate (false for resumed sessions).
  bool has_certificate = false;

  bool labeled() const noexcept { return !fqdn.empty(); }
  /// The organization part of the label ("scholar.google.com"->"google.com").
  std::string_view second_level() const;
};

/// Append-only store with secondary indexes built on first query.
///
/// add() only interns the label and appends the flow: the ingest, merge
/// and export paths never read an index, so they never pay for one. The
/// first query that reads an index builds all four (fqdn, 2nd-level
/// domain, server, port) over every flow, interning each label's 2nd-level
/// domain on the way; from then on add() keeps them current, and
/// take_flows() drops them. Queries return stable flow indices.
///
/// Because a const query may build the indexes, a database — like its
/// DomainTable — is used by one thread at a time, queries included; the
/// pipeline's hand-offs move whole databases between threads.
class FlowDatabase {
 public:
  using FlowIndex = std::uint32_t;

  /// Standalone database with its own private DomainTable.
  FlowDatabase() : table_{std::make_shared<DomainTable>()} {}

  /// Database sharing a caller-owned table (the Sniffer hands its own so
  /// resolver hits and flow labels intern once, and so window rotation
  /// keeps one arena across databases).
  explicit FlowDatabase(std::shared_ptr<DomainTable> table)
      : table_{std::move(table)} {}

  /// Adds a flow: the flow's fqdn text is interned into this database's
  /// DomainTable and its view/id rebound to the arena copy; the indexes
  /// are updated only once a query has built them. Returns the flow's
  /// index.
  FlowIndex add(TaggedFlow flow);

  /// Moves every flow out and resets the database (indexes dropped).
  /// The DomainTable is retained — the moved-out flows' fqdn views point
  /// into it, so re-adding them (the merge stage, canonicalize()) stays
  /// valid. Used by the parallel pipeline's merge stage to re-add
  /// per-shard flows in canonical order without copying them.
  std::vector<TaggedFlow> take_flows();

  /// Reserves room for `flows` flows, so a caller that knows the final
  /// count (canonicalize, the k-way merge) moves each flow exactly once.
  void reserve(std::size_t flows) { flows_.reserve(flows); }

  /// The interner backing this database's fqdn views.
  const std::shared_ptr<DomainTable>& domain_table() const noexcept {
    return table_;
  }

  const std::vector<TaggedFlow>& flows() const noexcept { return flows_; }
  const TaggedFlow& flow(FlowIndex i) const { return flows_.at(i); }
  std::size_t size() const noexcept { return flows_.size(); }

  /// Flows whose label's 2nd-level domain is `sld` (Alg. 2 line 5).
  const std::vector<FlowIndex>& by_second_level(std::string_view sld) const;

  /// Flows labeled exactly `fqdn`.
  const std::vector<FlowIndex>& by_fqdn(std::string_view fqdn) const;

  /// Flows to a given server address (Alg. 3 line 4).
  const std::vector<FlowIndex>& by_server(net::Ipv4Address server) const;

  /// Flows to a given destination (server) port (Alg. 4 line 4).
  const std::vector<FlowIndex>& by_server_port(std::uint16_t port) const;

  // Distinct-value queries return SORTED deduplicated vectors instead of
  // the node-per-element std::set they used to build: one contiguous
  // allocation plus a sort, and FQDNs stay interned 32-bit DomainIds (use
  // fqdn_views() to materialize text at the presentation boundary).

  /// Distinct server IPs observed serving `fqdn`, ascending.
  std::vector<net::Ipv4Address> servers_for_fqdn(
      std::string_view fqdn) const;

  /// Distinct server IPs observed for a whole organization (2LD),
  /// ascending.
  std::vector<net::Ipv4Address> servers_for_second_level(
      std::string_view sld) const;

  /// Distinct FQDNs observed on a server, as interned ids (ascending by
  /// id — an arbitrary but stable order).
  std::vector<DomainId> fqdns_on_server(net::Ipv4Address server) const;

  /// All distinct labels in the database, as interned ids (ascending).
  std::vector<DomainId> distinct_fqdns() const;

  /// Thin string adapter for the id-returning queries: maps each id to
  /// its arena view (valid for the DomainTable's lifetime), sorted
  /// lexicographically — the order the old set<string> API surfaced.
  std::vector<std::string_view> fqdn_views(
      std::span<const DomainId> ids) const;

  /// Ports seen, most flows first.
  std::vector<std::pair<std::uint16_t, std::size_t>> ports_by_flow_count()
      const;

 private:
  /// Builds the indexes over every flow unless a query already has.
  void ensure_indexed() const;
  /// Adds flow `index` to the built indexes.
  void index_flow(FlowIndex index) const;

  std::shared_ptr<DomainTable> table_;
  std::vector<TaggedFlow> flows_;
  // Query-side state, built by ensure_indexed() and dropped by
  // take_flows(); mutable because the const queries build it.
  mutable bool indexed_ = false;
  // dnh-analyze: bounded(take_database) the database grows with its window
  // and is moved out whole on rotation; indexes die with the flows.
  mutable std::unordered_map<DomainId, std::vector<FlowIndex>> fqdn_index_;
  // dnh-analyze: bounded(take_database)
  mutable std::unordered_map<DomainId, std::vector<FlowIndex>> sld_index_;
  // dnh-analyze: bounded(take_database)
  mutable std::unordered_map<net::Ipv4Address, std::vector<FlowIndex>>
      server_index_;
  // dnh-analyze: bounded(take_database)
  mutable std::map<std::uint16_t, std::vector<FlowIndex>> port_index_;
  static const std::vector<FlowIndex> kEmpty;
};

}  // namespace dnh::core
