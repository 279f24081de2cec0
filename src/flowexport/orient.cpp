#include "flowexport/orient.hpp"

#include <vector>

namespace dnh::flowexport {

namespace {

/// Packs one endpoint so endpoints order lexicographically by (ip, port).
std::uint64_t pack_endpoint(net::Ipv4Address ip, std::uint16_t port) {
  return (std::uint64_t{ip.value()} << 16) | port;
}

/// Stateless part of the rule: which endpoint the ports say is the
/// client, or "ambiguous" (rule 3 applies).
enum class PortVerdict { kSrcClient, kDstClient, kAmbiguous };

PortVerdict port_verdict(const ExportRecord& rec) {
  const bool src_wk = rec.src_port < 1024;
  const bool dst_wk = rec.dst_port < 1024;
  if (src_wk != dst_wk)  // exactly one well-known side: it is the server
    return src_wk ? PortVerdict::kDstClient : PortVerdict::kSrcClient;
  const bool src_eph = rec.src_port >= 49152;
  const bool dst_eph = rec.dst_port >= 49152;
  if (src_eph != dst_eph)  // exactly one ephemeral side: it is the client
    return src_eph ? PortVerdict::kSrcClient : PortVerdict::kDstClient;
  return PortVerdict::kAmbiguous;
}

}  // namespace

RecordOrienter::RecordOrienter(OrienterConfig config) : config_{config} {
  if (config_.sweep_interval_records == 0)
    config_.sweep_interval_records = 1;
}

flow::OrientedRecord RecordOrienter::orient(const ExportRecord& record) {
  ++records_;
  if (records_ % config_.sweep_interval_records == 0) sweep(record.last);

  const std::uint64_t src = pack_endpoint(record.src_ip, record.src_port);
  const std::uint64_t dst = pack_endpoint(record.dst_ip, record.dst_port);
  const bool src_is_lo = src <= dst;
  PairKey key;
  key.lo = src_is_lo ? src : dst;
  key.hi = src_is_lo ? dst : src;
  key.protocol = record.protocol;

  auto it = pairs_.find(key);
  const bool stale =
      it != pairs_.end() &&
      record.first - it->second.last_seen > config_.idle_timeout;
  if (it == pairs_.end() || stale) {
    // Infer orientation from this record (an idle gap re-infers: pure
    // function of timestamps, so independent of sweep cadence).
    PairState state;
    switch (port_verdict(record)) {
      case PortVerdict::kSrcClient: state.src_is_client = true; break;
      case PortVerdict::kDstClient: state.src_is_client = false; break;
      case PortVerdict::kAmbiguous: state.src_is_client = true; break;
    }
    state.lo_is_client = state.src_is_client == src_is_lo;
    state.last_seen = record.last;
    if (it == pairs_.end())
      it = pairs_.emplace(key, state).first;
    else
      it->second = state;
  }
  PairState& state = it->second;
  if (record.last > state.last_seen) state.last_seen = record.last;

  flow::OrientedRecord out;
  out.from_client = src_is_lo == state.lo_is_client;
  if (out.from_client) {
    out.key.client_ip = record.src_ip;
    out.key.client_port = record.src_port;
    out.key.server_ip = record.dst_ip;
    out.key.server_port = record.dst_port;
  } else {
    out.key.client_ip = record.dst_ip;
    out.key.client_port = record.dst_port;
    out.key.server_ip = record.src_ip;
    out.key.server_port = record.src_port;
  }
  out.key.transport =
      record.protocol == 17 ? flow::Transport::kUdp : flow::Transport::kTcp;
  out.packets = record.packets;
  out.bytes = record.bytes;
  out.tcp_flags = record.tcp_flags;
  out.first = record.first;
  out.last = record.last;
  return out;
}

void RecordOrienter::sweep(util::Timestamp now) {
  std::vector<PairKey> dead;
  for (const auto& [key, state] : pairs_)
    if (now - state.last_seen > config_.idle_timeout) dead.push_back(key);
  for (const PairKey& key : dead) pairs_.erase(key);
}

}  // namespace dnh::flowexport
