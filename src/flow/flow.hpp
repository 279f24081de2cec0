// Flow identity and per-flow state.
//
// Flows are oriented client->server (the paper's 5-tuple Fid with clientIP
// first): orientation is inferred from the TCP handshake when visible, with
// a well-known-port heuristic as fallback for flows whose start predates
// the capture.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "net/bytes.hpp"
#include "net/ip.hpp"
#include "util/time.hpp"

namespace dnh::flow {

enum class Transport : std::uint8_t { kTcp, kUdp };

/// Traffic classes used throughout the evaluation (Tab. 2 buckets).
enum class ProtocolClass : std::uint8_t {
  kUnknown,
  kHttp,
  kTls,
  kP2p,
  kDns,
  kOther,
};

/// Human-readable class name ("HTTP", "TLS", ...).
std::string_view protocol_class_name(ProtocolClass c) noexcept;

/// Oriented 5-tuple.
struct FlowKey {
  net::Ipv4Address client_ip;
  net::Ipv4Address server_ip;
  std::uint16_t client_port = 0;
  std::uint16_t server_port = 0;
  Transport transport = Transport::kTcp;

  auto operator<=>(const FlowKey&) const noexcept = default;
};

/// Aggregated per-flow state. Byte counts are wire bytes at the IP layer
/// (total-length field), so truncated captures still measure true volume.
struct FlowRecord {
  FlowKey key;
  util::Timestamp first_packet;
  util::Timestamp last_packet;
  std::uint64_t packets_c2s = 0;
  std::uint64_t packets_s2c = 0;
  std::uint64_t bytes_c2s = 0;
  std::uint64_t bytes_s2c = 0;

  // First captured payload bytes per direction (bounded), for DPI-style
  // classification and TLS certificate inspection.
  net::Bytes head_c2s;
  net::Bytes head_s2c;

  bool saw_syn = false;
  bool saw_fin_client = false;
  bool saw_fin_server = false;
  bool saw_rst = false;

  // The Flow Tagger's label at the flow's first packet, written by the
  // flow-start observer: the interned id of the domain (a core::DomainId;
  // 0, the empty name, when the resolver knew none) and the time of the
  // DNS response it came from.
  std::uint32_t start_fqdn = 0;
  util::Timestamp start_response_time;

  std::uint64_t total_packets() const noexcept {
    return packets_c2s + packets_s2c;
  }
  std::uint64_t total_bytes() const noexcept {
    return bytes_c2s + bytes_s2c;
  }
  bool finished() const noexcept {
    return saw_rst || (saw_fin_client && saw_fin_server);
  }
};

/// One direction of one flow as a flow exporter (NetFlow/IPFIX) summarized
/// it, resolved into the oriented flow world by flowexport::RecordOrienter.
struct OrientedRecord {
  FlowKey key;              ///< oriented client->server
  bool from_client = true;  ///< this record's src->dst direction
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint8_t tcp_flags = 0;
  util::Timestamp first;
  util::Timestamp last;
};

}  // namespace dnh::flow

template <>
struct std::hash<dnh::flow::FlowKey> {
  std::size_t operator()(const dnh::flow::FlowKey& k) const noexcept {
    std::uint64_t h = k.client_ip.value();
    h = h * 0x9e3779b97f4a7c15ULL ^ k.server_ip.value();
    h = h * 0x9e3779b97f4a7c15ULL ^
        ((std::uint64_t{k.client_port} << 17) | k.server_port);
    h = h * 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(k.transport);
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};
