// Full-frame decoder: Ethernet -> IPv4/IPv6 -> TCP/UDP -> payload view.
#pragma once

#include <optional>
#include <variant>

#include "net/bytes.hpp"
#include "packet/headers.hpp"
#include "util/time.hpp"

namespace dnh::packet {

/// A decoded frame. `payload` is a view into the frame buffer passed to
/// `decode_frame` and is only valid while that buffer lives — the sniffer
/// processes one frame at a time, copying anything it needs to keep.
struct DecodedPacket {
  util::Timestamp timestamp;
  EthernetHeader eth;
  std::variant<Ipv4Header, Ipv6Header> ip;
  std::variant<std::monostate, TcpHeader, UdpHeader> l4;
  net::BytesView payload;  ///< L4 payload bytes actually captured
  std::uint32_t wire_payload_length = 0;  ///< L4 payload bytes on the wire

  bool is_ipv4() const noexcept {
    return std::holds_alternative<Ipv4Header>(ip);
  }
  const Ipv4Header& ipv4() const { return std::get<Ipv4Header>(ip); }

  bool is_tcp() const noexcept {
    return std::holds_alternative<TcpHeader>(l4);
  }
  bool is_udp() const noexcept {
    return std::holds_alternative<UdpHeader>(l4);
  }
  const TcpHeader& tcp() const { return std::get<TcpHeader>(l4); }
  const UdpHeader& udp() const { return std::get<UdpHeader>(l4); }

  /// Source/destination addresses for the IPv4 case (our generator emits
  /// only IPv4; the v6 decode path exists for live-capture completeness).
  net::Ipv4Address src_v4() const { return ipv4().src; }
  net::Ipv4Address dst_v4() const { return ipv4().dst; }

  std::uint16_t src_port() const;
  std::uint16_t dst_port() const;
};

/// Why a frame failed to decode. "Unsupported" covers well-formed traffic
/// we deliberately ignore (ARP, ICMP, non-Ethernet-II); the other values
/// are genuine malformation, which degraded-mode accounting tracks
/// separately from benign noise.
enum class DecodeFailure {
  kNone = 0,
  kTruncatedL2,   ///< frame ends inside the Ethernet/VLAN headers
  kBadIpHeader,   ///< IPv4/IPv6 header truncated or inconsistent
  kBadL4Header,   ///< TCP/UDP header truncated or inconsistent
  kUnsupported,   ///< non-IP ethertype or non-TCP/UDP protocol
};

/// Decodes an Ethernet frame captured at `ts`. Returns nullopt for frames
/// that are not IPv4/IPv6 over Ethernet II carrying TCP or UDP, and for any
/// truncated/malformed header. The decoder is tolerant of frames captured
/// with a short snaplen: a payload shorter than the IP length field yields a
/// partial `payload` view with `wire_payload_length` reporting the true size.
std::optional<DecodedPacket> decode_frame(net::BytesView frame,
                                          util::Timestamp ts);

/// As above, classifying any failure into `failure` (kNone on success) so
/// callers can separate hostile/corrupt frames from merely-ignored ones.
std::optional<DecodedPacket> decode_frame(net::BytesView frame,
                                          util::Timestamp ts,
                                          DecodeFailure& failure);

/// The routing fields of an IPv4 TCP/UDP frame, read at fixed offsets.
struct HeaderPeek {
  net::Ipv4Address src;
  net::Ipv4Address dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;   ///< kProtoTcp or kProtoUdp
  std::uint8_t tcp_flags = 0;  ///< wire flags byte; 0 for UDP

  bool is_tcp() const noexcept { return protocol == kProtoTcp; }
};

/// Reads the routing fields without decoding the frame: no payload view,
/// no header structs. Accepts exactly the frames for which decode_frame
/// returns an IPv4 TCP or UDP packet (the same VLAN-tag limit and IHL,
/// total-length, TCP data-offset and UDP-length checks), and then every
/// field equals the decoded one. Returns false for everything else.
bool peek_headers(net::BytesView frame, HeaderPeek& out) noexcept;

}  // namespace dnh::packet
