#include "packet/decode.hpp"

#include <algorithm>
#include <cstddef>

namespace dnh::packet {

std::uint16_t DecodedPacket::src_port() const {
  if (is_tcp()) return tcp().src_port;
  if (is_udp()) return udp().src_port;
  return 0;
}

std::uint16_t DecodedPacket::dst_port() const {
  if (is_tcp()) return tcp().dst_port;
  if (is_udp()) return udp().dst_port;
  return 0;
}

std::optional<DecodedPacket> decode_frame(net::BytesView frame,
                                          util::Timestamp ts) {
  DecodeFailure failure = DecodeFailure::kNone;
  return decode_frame(frame, ts, failure);
}

std::optional<DecodedPacket> decode_frame(net::BytesView frame,
                                          util::Timestamp ts,
                                          DecodeFailure& failure) {
  failure = DecodeFailure::kNone;
  net::ByteReader r{frame};
  DecodedPacket pkt;
  pkt.timestamp = ts;

  const auto eth = EthernetHeader::parse(r);
  if (!eth) {
    failure = DecodeFailure::kTruncatedL2;
    return std::nullopt;
  }
  pkt.eth = *eth;

  // Strip 802.1Q / 802.1ad VLAN tags (captures at ISP PoPs usually carry
  // at least one): each tag is 2 bytes of TCI + the real EtherType.
  int vlan_tags = 0;
  while ((pkt.eth.ether_type == 0x8100 || pkt.eth.ether_type == 0x88a8) &&
         vlan_tags < 4) {
    r.skip(2);  // priority/DEI/VLAN-id
    pkt.eth.ether_type = r.read_u16();
    if (!r.ok()) {
      failure = DecodeFailure::kTruncatedL2;
      return std::nullopt;
    }
    ++vlan_tags;
  }

  std::uint8_t l4_proto = 0;
  std::uint32_t ip_payload_len = 0;
  if (pkt.eth.ether_type == kEtherTypeIpv4) {
    const auto ip4 = Ipv4Header::parse(r);
    if (!ip4) {
      failure = DecodeFailure::kBadIpHeader;
      return std::nullopt;
    }
    l4_proto = ip4->protocol;
    ip_payload_len = ip4->payload_length();
    pkt.ip = *ip4;
  } else if (pkt.eth.ether_type == kEtherTypeIpv6) {
    const auto ip6 = Ipv6Header::parse(r);
    if (!ip6) {
      failure = DecodeFailure::kBadIpHeader;
      return std::nullopt;
    }
    l4_proto = ip6->next_header;
    ip_payload_len = ip6->payload_length;
    pkt.ip = *ip6;
  } else {
    failure = DecodeFailure::kUnsupported;
    return std::nullopt;  // ARP etc: not traffic we model
  }

  std::uint32_t l4_header_len = 0;
  if (l4_proto == kProtoTcp) {
    const auto tcp = TcpHeader::parse(r);
    if (!tcp) {
      failure = DecodeFailure::kBadL4Header;
      return std::nullopt;
    }
    l4_header_len = tcp->header_length;
    pkt.l4 = *tcp;
  } else if (l4_proto == kProtoUdp) {
    const auto udp = UdpHeader::parse(r);
    if (!udp) {
      failure = DecodeFailure::kBadL4Header;
      return std::nullopt;
    }
    l4_header_len = 8;
    // UDP carries its own length; prefer it when consistent.
    if (udp->length >= 8 && udp->length <= ip_payload_len)
      ip_payload_len = udp->length;
    pkt.l4 = *udp;
  } else {
    failure = DecodeFailure::kUnsupported;
    return std::nullopt;  // ICMP etc: ignored by the flow sniffer
  }

  pkt.wire_payload_length =
      ip_payload_len >= l4_header_len ? ip_payload_len - l4_header_len : 0;
  const std::size_t captured =
      std::min<std::size_t>(pkt.wire_payload_length, r.remaining());
  pkt.payload = r.read_bytes(captured);
  return pkt;
}

namespace {

std::uint16_t be16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

}  // namespace

bool peek_headers(net::BytesView frame, HeaderPeek& out) noexcept {
  // Every check below mirrors one in decode_frame / the header parsers;
  // tests/test_packet.cpp holds the differential test that keeps them
  // in step.
  const std::uint8_t* p = frame.data();
  const std::size_t n = frame.size();
  std::size_t off = 12;  // EtherType of the untagged Ethernet II header
  if (n < off + 2) return false;
  std::uint16_t ether_type = be16(p + off);
  off += 2;
  for (int tags = 0; (ether_type == 0x8100 || ether_type == 0x88a8) &&
                     tags < 4;
       ++tags) {
    if (n < off + 4) return false;
    ether_type = be16(p + off + 2);
    off += 4;
  }
  if (ether_type != kEtherTypeIpv4) return false;

  // IPv4: version 4, IHL >= 5, header (options included) captured, and a
  // total length that covers the header.
  if (n < off + 20) return false;
  const std::uint8_t* ip = p + off;
  if ((ip[0] >> 4) != 4) return false;
  const std::size_t ihl = std::size_t{ip[0] & 0x0fu} * 4;
  if (ihl < 20 || n < off + ihl) return false;
  if (be16(ip + 2) < ihl) return false;
  const std::uint8_t protocol = ip[9];
  off += ihl;

  const std::uint8_t* l4 = p + off;
  if (protocol == kProtoTcp) {
    if (n < off + 20) return false;
    const std::size_t data_offset = (std::size_t{l4[12]} >> 4) * 4;
    if (data_offset < 20 || n < off + data_offset) return false;
    out.tcp_flags = l4[13];
  } else if (protocol == kProtoUdp) {
    if (n < off + 8) return false;
    if (be16(l4 + 4) < 8) return false;
    out.tcp_flags = 0;
  } else {
    return false;
  }
  out.src = net::Ipv4Address{be32(ip + 12)};
  out.dst = net::Ipv4Address{be32(ip + 16)};
  out.src_port = be16(l4);
  out.dst_port = be16(l4 + 2);
  out.protocol = protocol;
  return true;
}

}  // namespace dnh::packet
