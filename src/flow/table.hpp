// The Flow Sniffer's flow table: reconstructs layer-4 flows from decoded
// packets (paper Sec. 3.1, "Flow sniffer" block).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "flow/flow.hpp"
#include "packet/decode.hpp"
#include "util/flat_hash.hpp"

namespace dnh::flow {

/// Configuration for flow reconstruction.
struct TableConfig {
  /// Max payload bytes retained per direction for DPI/cert inspection.
  std::size_t head_bytes = 4096;
  /// Flows idle longer than this are exported and dropped. Splitting is
  /// arrival-driven (a packet resuming an expired 5-tuple starts a new
  /// flow), so flow boundaries depend only on packet timestamps; the
  /// periodic sweep merely bounds memory for flows that never resume.
  util::Duration idle_timeout = util::Duration::minutes(5);
  /// Idle sweep cadence, counted in processed packets.
  std::uint64_t sweep_interval_packets = 8192;
  /// Pre-sized flow-table capacity (concurrent live flows expected per
  /// sniffer/shard): steady state then never rehashes. Growth past it is
  /// automatic, just amortized instead of free.
  std::size_t expected_flows = 4096;
};

/// Reconstructs flows from a packet stream, or merges them from flow-export
/// records, and exports them on completion (FIN/FIN or RST, packets only),
/// idle timeout, or final flush.
class FlowTable {
 public:
  /// Export sink; receives each finished flow exactly once.
  using Exporter = std::function<void(FlowRecord&&)>;
  /// Observer invoked once per packet-derived flow, on its first packet
  /// (before any payload): the tagger hook — "identify flows even before
  /// they begin". It may write the flow's start label.
  using FlowStartObserver = std::function<void(FlowRecord&)>;

  explicit FlowTable(TableConfig config = {});

  void set_exporter(Exporter exporter) { exporter_ = std::move(exporter); }
  void set_flow_start_observer(FlowStartObserver obs) {
    on_flow_start_ = std::move(obs);
  }

  /// Consumes one decoded packet. Non-TCP/UDP packets must be filtered by
  /// the caller (decode_frame already drops them).
  void on_packet(const packet::DecodedPacket& pkt);

  /// Merges one flow-export record into the flow under its oriented key,
  /// splitting on an idle gap as on_packet does. Flags never close a record
  /// flow, and no sweep runs here. Returns the flow this record opened
  /// (valid until the table next changes) for the caller to tag, or
  /// nullptr when it merged into a live one.
  FlowRecord* on_record(const OrientedRecord& record);

  /// Exports, in key order, every flow idle longer than idle_timeout at
  /// `now`: on_packet's cadence, or a record feeder's own.
  void sweep_idle(util::Timestamp now);

  /// Exports every live flow, in key order (end of trace).
  void flush();

  std::size_t live_flows() const noexcept { return flows_.size(); }
  std::uint64_t flows_seen() const noexcept { return flows_seen_; }
  std::uint64_t packets_processed() const noexcept { return packets_; }

 private:
  void export_flow(FlowRecord&& record);
  /// Exports the flows under `keys`, sorted first for a deterministic order.
  void export_sorted(std::vector<FlowKey>& keys);

  /// Per-direction TCP head reassembly: real captures reorder and
  /// retransmit; blindly appending payloads would corrupt the head bytes
  /// the DPI/cert-inspection baselines parse. We track the next expected
  /// sequence number and park a bounded set of out-of-order segments.
  struct DirectionReasm {
    std::uint32_t next_seq = 0;
    bool synced = false;    ///< next_seq is initialized
    bool gave_up = false;   ///< capture gap (snaplen truncation): stop
    // dnh-analyze: bounded(kMaxPending) at most 8 parked segments per
    // direction; past that the head gives up (table.cpp).
    std::map<std::uint32_t, net::Bytes> pending;
  };
  struct ReasmState {
    DirectionReasm dir[2];  ///< [0] = c2s, [1] = s2c
  };
  void append_head(FlowRecord& flow, bool c2s,
                   const packet::DecodedPacket& pkt);

  TableConfig config_;
  // Flat open-addressing tables (docs/performance.md "Flat-hash hot
  // path"): every packet probes flows_ once (twice on orientation miss),
  // every record once, so the lookup structure is the per-input cost
  // center. Export order stays deterministic because flush() and
  // sweep_idle() sort keys before exporting — iteration order never
  // reaches the output.
  // dnh-analyze: bounded(sweep_idle) idle flows exported and erased on the
  // sweep cadence; reasm_ entries die with their flow.
  util::FlatHash<FlowKey, FlowRecord> flows_;
  // dnh-analyze: bounded(sweep_idle)
  util::FlatHash<FlowKey, ReasmState> reasm_;
  Exporter exporter_;
  FlowStartObserver on_flow_start_;
  std::uint64_t flows_seen_ = 0;
  std::uint64_t packets_ = 0;
};

/// Orients a packet's addresses into a FlowKey plus direction.
/// `client_to_server` is true when the packet travels client->server.
struct OrientedKey {
  FlowKey key;
  bool client_to_server = true;
};

/// Orientation rules, in priority order: pure SYN marks the sender as the
/// client; otherwise the lower port number is taken as the server side
/// (ports below 1024 always win); ties fall back to address ordering.
OrientedKey orient(const packet::DecodedPacket& pkt);

/// The same rules on bare header fields: true when the packet's source is
/// the client. `tcp_flags` is the TCP flags byte, 0 for UDP. orient() and
/// the pipeline dispatcher (on a packet::HeaderPeek) both call this, so a
/// frame's shard and its flow's orientation can never disagree.
bool source_is_client(net::Ipv4Address src, std::uint16_t src_port,
                      net::Ipv4Address dst, std::uint16_t dst_port,
                      std::uint8_t tcp_flags) noexcept;

}  // namespace dnh::flow
