// Orienting directionless export records into client->server flow keys.
//
// The pcap path orients flows from the TCP handshake (flow::orient): the
// SYN sender is the client. A flow record cannot do that — the router
// aggregates both directions' flags into one OR'd byte — so orientation
// falls back to port structure, with a sticky first-record rule breaking
// the ties:
//
//   1. Exactly one endpoint on a well-known port (< 1024): that side is
//      the server (same signal flow::orient uses when no SYN was seen).
//   2. Otherwise, exactly one endpoint in the ephemeral range (>= 49152):
//      that side is the client.
//   3. Otherwise (both ambiguous — peer-to-peer pairs), the *first*
//      record seen for the pair pins its source as the client. Exporters
//      emit the client->server direction of a flow first (ours does, and
//      routers export in flow-start order), so the pin agrees with the
//      pcap path's SYN orientation.
//
// The orienter is stateful so the two directions' records — and every
// later record of a long flow — resolve to the SAME oriented key. State
// is bounded: pairs idle longer than `idle_timeout` are re-inferred on
// arrival (a pure function of record timestamps, so results do not
// depend on sweep scheduling) and swept on a record-count cadence.
// One orienter must see ALL records of a pair — it lives at the pipeline
// dispatcher, upstream of sharding, which also makes `--jobs N`
// orientation identical to `--jobs 1`.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "flow/flow.hpp"
#include "flowexport/wire.hpp"
#include "util/time.hpp"

namespace dnh::flowexport {

struct OrienterConfig {
  /// A pair idle longer than this is forgotten and re-inferred; matches
  /// flow::TableConfig::idle_timeout so orientation splits exactly where
  /// the flow table splits flows.
  util::Duration idle_timeout = util::Duration::minutes(5);
  /// Sweep the pair map every N records (amortized bound on map size).
  std::size_t sweep_interval_records = 8192;
};

class RecordOrienter {
 public:
  explicit RecordOrienter(OrienterConfig config = {});

  /// Orients one record. Deterministic given the record sequence.
  flow::OrientedRecord orient(const ExportRecord& record);

  std::size_t live_pairs() const noexcept { return pairs_.size(); }

 private:
  struct PairKey {
    std::uint64_t lo = 0;  ///< packed (ip,port) of the smaller endpoint
    std::uint64_t hi = 0;  ///< packed (ip,port) of the larger endpoint
    std::uint8_t protocol = 0;
    bool operator==(const PairKey&) const noexcept = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const noexcept {
      std::uint64_t h = k.lo * 0x9e3779b97f4a7c15ULL;
      h ^= k.hi + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h ^ k.protocol);
    }
  };
  struct PairState {
    bool src_is_client = true;  ///< for the record that created the pair
    bool lo_is_client = true;   ///< canonical: which endpoint is client
    util::Timestamp last_seen;
  };

  void sweep(util::Timestamp now);

  OrienterConfig config_;
  // dnh-analyze: bounded(sweep_interval_records)
  std::unordered_map<PairKey, PairState, PairKeyHash> pairs_;
  std::uint64_t records_ = 0;
};

}  // namespace dnh::flowexport
