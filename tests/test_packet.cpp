#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "net/checksum.hpp"
#include "packet/build.hpp"
#include "packet/decode.hpp"
#include "packet/headers.hpp"
#include "util/rng.hpp"

namespace dnh::packet {
namespace {

FrameSpec test_spec() {
  FrameSpec spec;
  spec.src_mac = net::MacAddress::from_index(1);
  spec.dst_mac = net::MacAddress::from_index(2);
  spec.src_ip = net::Ipv4Address{10, 0, 0, 1};
  spec.dst_ip = net::Ipv4Address{93, 184, 216, 34};
  spec.src_port = 49152;
  spec.dst_port = 80;
  spec.ip_id = 7;
  return spec;
}

TEST(Build, UdpFrameDecodesBack) {
  const net::Bytes payload{1, 2, 3, 4, 5};
  const auto frame = build_udp_frame(test_spec(), payload);
  const auto pkt = decode_frame(frame, util::Timestamp::from_seconds(10));
  ASSERT_TRUE(pkt);
  EXPECT_TRUE(pkt->is_ipv4());
  EXPECT_TRUE(pkt->is_udp());
  EXPECT_EQ(pkt->src_v4().to_string(), "10.0.0.1");
  EXPECT_EQ(pkt->dst_v4().to_string(), "93.184.216.34");
  EXPECT_EQ(pkt->src_port(), 49152);
  EXPECT_EQ(pkt->dst_port(), 80);
  EXPECT_EQ(net::as_string(pkt->payload), std::string("\x01\x02\x03\x04\x05"));
  EXPECT_EQ(pkt->wire_payload_length, 5u);
  EXPECT_EQ(pkt->timestamp.seconds_since_epoch(), 10);
}

TEST(Build, TcpFrameDecodesBack) {
  const auto frame =
      build_tcp_frame(test_spec(), tcpflags::kSyn, 1234, 0, {});
  const auto pkt = decode_frame(frame, {});
  ASSERT_TRUE(pkt);
  ASSERT_TRUE(pkt->is_tcp());
  EXPECT_TRUE(pkt->tcp().syn());
  EXPECT_FALSE(pkt->tcp().ack_flag());
  EXPECT_EQ(pkt->tcp().seq, 1234u);
  EXPECT_EQ(pkt->wire_payload_length, 0u);
}

TEST(Build, TcpPayloadRoundTrip) {
  const std::string http = "GET / HTTP/1.1\r\nHost: example.com\r\n\r\n";
  const auto frame =
      build_tcp_frame(test_spec(), tcpflags::kAck | tcpflags::kPsh, 1, 1,
                      net::as_bytes(http));
  const auto pkt = decode_frame(frame, {});
  ASSERT_TRUE(pkt);
  EXPECT_EQ(net::as_string(pkt->payload), http);
}

TEST(Build, ClaimedWireLengthExceedsCaptured) {
  // A "bulk data" packet: claims 1460 payload bytes, captures none.
  const auto frame = build_tcp_frame(test_spec(), tcpflags::kAck, 1, 1, {},
                                     1460);
  const auto pkt = decode_frame(frame, {});
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->wire_payload_length, 1460u);
  EXPECT_TRUE(pkt->payload.empty());
  EXPECT_EQ(pkt->ipv4().total_length, 20 + 20 + 1460);
}

TEST(Build, Ipv4HeaderChecksumIsValid) {
  const auto frame = build_udp_frame(test_spec(), {});
  // IP header starts after the 14-byte Ethernet header.
  const net::BytesView ip_header{frame.data() + 14, 20};
  EXPECT_EQ(net::internet_checksum(ip_header), 0);
}

TEST(Build, TcpChecksumVerifies) {
  const std::string payload = "ab";
  const auto spec = test_spec();
  const auto frame = build_tcp_frame(spec, tcpflags::kAck, 5, 6,
                                     net::as_bytes(payload));
  const net::BytesView segment{frame.data() + 34, frame.size() - 34};
  EXPECT_EQ(net::l4_checksum_v4(spec.src_ip, spec.dst_ip, kProtoTcp, segment),
            0);
}

TEST(Decode, RejectsTruncatedEthernet) {
  const net::Bytes junk{1, 2, 3};
  EXPECT_FALSE(decode_frame(junk, {}));
}

TEST(Decode, RejectsNonIpEtherType) {
  net::ByteWriter w;
  EthernetHeader eth;
  eth.ether_type = 0x0806;  // ARP
  eth.serialize(w);
  w.write_u32(0);
  EXPECT_FALSE(decode_frame(w.data(), {}));
}

TEST(Decode, RejectsTruncatedIpHeader) {
  auto frame = build_udp_frame(test_spec(), {});
  frame.resize(20);  // cuts into the IP header
  EXPECT_FALSE(decode_frame(frame, {}));
}

TEST(Decode, RejectsNonTcpUdpProtocol) {
  auto frame = build_udp_frame(test_spec(), {});
  frame[14 + 9] = 1;  // protocol = ICMP
  EXPECT_FALSE(decode_frame(frame, {}));
}

TEST(Decode, RejectsBadIpVersion) {
  auto frame = build_udp_frame(test_spec(), {});
  frame[14] = 0x55;  // version 5
  EXPECT_FALSE(decode_frame(frame, {}));
}

TEST(Decode, ToleratesShortSnaplenCapture) {
  const std::string payload(100, 'x');
  auto frame = build_tcp_frame(test_spec(), tcpflags::kAck, 1, 1,
                               net::as_bytes(payload));
  frame.resize(frame.size() - 60);  // simulate snaplen truncation
  const auto pkt = decode_frame(frame, {});
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->wire_payload_length, 100u);
  EXPECT_EQ(pkt->payload.size(), 40u);
}

TEST(Headers, Ipv4WithOptionsParses) {
  net::ByteWriter w;
  w.write_u8(0x46);  // version 4, IHL 6 (24 bytes)
  w.write_u8(0);
  w.write_u16(24 + 4);  // total length: header + 4 payload bytes
  w.write_u16(1);
  w.write_u16(0x4000);
  w.write_u8(64);
  w.write_u8(kProtoUdp);
  w.write_u16(0);
  w.write_ipv4(net::Ipv4Address{1, 1, 1, 1});
  w.write_ipv4(net::Ipv4Address{2, 2, 2, 2});
  w.write_u32(0x01010100);  // 4 bytes of options
  w.write_u32(0xdeadbeef);  // payload

  net::ByteReader r{w.data()};
  const auto h = Ipv4Header::parse(r);
  ASSERT_TRUE(h);
  EXPECT_EQ(h->header_length, 24);
  EXPECT_EQ(h->payload_length(), 4);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);  // positioned after options
}

TEST(Headers, TcpWithOptionsParses) {
  net::ByteWriter w;
  w.write_u16(1000);
  w.write_u16(2000);
  w.write_u32(1);
  w.write_u32(2);
  w.write_u8(0x70);  // data offset 7 words = 28 bytes
  w.write_u8(tcpflags::kSyn);
  w.write_u16(1024);
  w.write_u32(0);
  w.write_u64(0x0204058401010101ULL);  // 8 bytes of options

  net::ByteReader r{w.data()};
  const auto h = TcpHeader::parse(r);
  ASSERT_TRUE(h);
  EXPECT_EQ(h->header_length, 28);
  EXPECT_TRUE(h->syn());
  EXPECT_TRUE(r.at_end());
}

TEST(Headers, TcpRejectsBadDataOffset) {
  net::ByteWriter w;
  w.write_u16(1);
  w.write_u16(2);
  w.write_u32(0);
  w.write_u32(0);
  w.write_u8(0x10);  // data offset 1 word = 4 bytes: invalid
  w.write_u8(0);
  w.write_u16(0);
  w.write_u32(0);
  net::ByteReader r{w.data()};
  EXPECT_FALSE(TcpHeader::parse(r));
}

TEST(Headers, UdpRejectsLengthBelowHeader) {
  net::ByteWriter w;
  w.write_u16(1);
  w.write_u16(2);
  w.write_u16(4);  // < 8
  w.write_u16(0);
  net::ByteReader r{w.data()};
  EXPECT_FALSE(UdpHeader::parse(r));
}

TEST(Headers, Ipv6RoundTrip) {
  Ipv6Header h;
  h.payload_length = 32;
  h.next_header = kProtoTcp;
  h.src = net::Ipv6Address::mapped_from(net::Ipv4Address{1, 2, 3, 4});
  h.dst = net::Ipv6Address::mapped_from(net::Ipv4Address{5, 6, 7, 8});
  net::ByteWriter w;
  h.serialize(w);
  net::ByteReader r{w.data()};
  const auto parsed = Ipv6Header::parse(r);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->payload_length, 32);
  EXPECT_EQ(parsed->next_header, kProtoTcp);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
}

TEST(Headers, EthernetRoundTrip) {
  EthernetHeader eth;
  eth.src = net::MacAddress::from_index(42);
  eth.dst = net::MacAddress::from_index(43);
  eth.ether_type = kEtherTypeIpv4;
  net::ByteWriter w;
  eth.serialize(w);
  net::ByteReader r{w.data()};
  const auto parsed = EthernetHeader::parse(r);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->src, eth.src);
  EXPECT_EQ(parsed->dst, eth.dst);
  EXPECT_EQ(parsed->ether_type, kEtherTypeIpv4);
}

TEST(Build, MakePcapFrameSetsWireLength) {
  auto frame = build_tcp_frame(test_spec(), tcpflags::kAck, 1, 1, {}, 1460);
  const std::size_t captured = frame.size();
  const auto pf = make_pcap_frame(util::Timestamp::from_seconds(1),
                                  std::move(frame), 1460);
  EXPECT_EQ(pf.data.size(), captured);
  EXPECT_EQ(pf.original_length, captured + 1460);
}

}  // namespace
}  // namespace dnh::packet

namespace dnh::packet {
namespace {

TEST(Decode, StripsSingleVlanTag) {
  // Build a normal frame, then splice a 802.1Q tag after the MACs.
  auto frame = build_udp_frame(test_spec(), net::Bytes{7, 7});
  net::Bytes tagged(frame.begin(), frame.begin() + 12);
  tagged.push_back(0x81);  // TPID 0x8100
  tagged.push_back(0x00);
  tagged.push_back(0x00);  // TCI: vlan 42
  tagged.push_back(0x2a);
  tagged.insert(tagged.end(), frame.begin() + 12, frame.end());

  const auto pkt = decode_frame(tagged, {});
  ASSERT_TRUE(pkt);
  EXPECT_TRUE(pkt->is_udp());
  EXPECT_EQ(net::as_string(pkt->payload), std::string("\x07\x07"));
}

TEST(Decode, StripsQinQDoubleTag) {
  auto frame = build_udp_frame(test_spec(), {});
  net::Bytes tagged(frame.begin(), frame.begin() + 12);
  const std::uint8_t tags[] = {0x88, 0xa8, 0x00, 0x64,   // 802.1ad outer
                               0x81, 0x00, 0x00, 0x2a};  // 802.1Q inner
  tagged.insert(tagged.end(), std::begin(tags), std::end(tags));
  tagged.insert(tagged.end(), frame.begin() + 12, frame.end());
  const auto pkt = decode_frame(tagged, {});
  ASSERT_TRUE(pkt);
  EXPECT_TRUE(pkt->is_udp());
}

TEST(Decode, RejectsTruncatedVlanTag) {
  auto frame = build_udp_frame(test_spec(), {});
  net::Bytes tagged(frame.begin(), frame.begin() + 12);
  tagged.push_back(0x81);
  tagged.push_back(0x00);
  tagged.push_back(0x00);  // tag cut short
  EXPECT_FALSE(decode_frame(tagged, {}));
}

// ---- header peek vs decode_frame ------------------------------------------
//
// peek_headers must accept exactly the frames decode_frame decodes as IPv4
// TCP/UDP, with identical routing fields: the pipeline dispatcher routes
// on the peek while each shard's flow table orients on the decode.

/// decode_frame's answer, reduced to the fields peek_headers reports.
std::optional<HeaderPeek> decoded_peek(net::BytesView frame) {
  const auto pkt = decode_frame(frame, {});
  if (!pkt || !pkt->is_ipv4()) return std::nullopt;
  HeaderPeek out;
  out.src = pkt->src_v4();
  out.dst = pkt->dst_v4();
  out.src_port = pkt->src_port();
  out.dst_port = pkt->dst_port();
  out.protocol = pkt->is_tcp() ? kProtoTcp : kProtoUdp;
  out.tcp_flags = pkt->is_tcp() ? pkt->tcp().flags : 0;
  return out;
}

/// Tallies, per input class, how many frames both sides accepted and
/// rejected, so a test can prove it exercised both outcomes.
struct PeekTally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

void expect_peek_matches_decode(net::BytesView frame, PeekTally& tally,
                                const std::string& what) {
  HeaderPeek peek;
  const bool accepted = peek_headers(frame, peek);
  const auto ref = decoded_peek(frame);
  ASSERT_EQ(accepted, ref.has_value()) << what << " (" << frame.size()
                                       << " bytes)";
  if (!ref) {
    ++tally.rejected;
    return;
  }
  ++tally.accepted;
  EXPECT_EQ(peek.src, ref->src) << what;
  EXPECT_EQ(peek.dst, ref->dst) << what;
  EXPECT_EQ(peek.src_port, ref->src_port) << what;
  EXPECT_EQ(peek.dst_port, ref->dst_port) << what;
  EXPECT_EQ(peek.protocol, ref->protocol) << what;
  EXPECT_EQ(peek.tcp_flags, ref->tcp_flags) << what;
}

FrameSpec random_spec(util::Rng& rng) {
  FrameSpec spec = test_spec();
  spec.src_ip = net::Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())};
  spec.dst_ip = net::Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())};
  spec.src_port = static_cast<std::uint16_t>(rng.next_u64());
  spec.dst_port = static_cast<std::uint16_t>(rng.next_u64());
  return spec;
}

/// A valid TCP or UDP frame with a random 5-tuple, flags and payload.
net::Bytes random_frame(util::Rng& rng) {
  const net::Bytes payload(rng.index(40), 0x5a);
  if (rng.chance(0.5)) return build_udp_frame(random_spec(rng), payload);
  return build_tcp_frame(random_spec(rng),
                         static_cast<std::uint8_t>(rng.next_u64()),
                         static_cast<std::uint32_t>(rng.next_u64()), 0,
                         payload);
}

/// Inserts `tags` 802.1Q/802.1ad tags after the MAC addresses.
net::Bytes with_vlan_tags(net::Bytes frame, int tags, util::Rng& rng) {
  for (int i = 0; i < tags; ++i) {
    const std::uint16_t tpid = rng.chance(0.5) ? 0x8100 : 0x88a8;
    const net::Bytes tag{static_cast<std::uint8_t>(tpid >> 8),
                         static_cast<std::uint8_t>(tpid & 0xff),
                         static_cast<std::uint8_t>(rng.next_u64()),
                         static_cast<std::uint8_t>(rng.next_u64())};
    frame.insert(frame.begin() + 12, tag.begin(), tag.end());
  }
  return frame;
}

TEST(HeaderPeek, AgreesWithDecodeOnValidAndVlanTaggedFrames) {
  util::Rng rng{1301};
  PeekTally tally;
  for (int i = 0; i < 2000; ++i) {
    const int tags = static_cast<int>(rng.index(6));  // 0..5; 5 is one too many
    const net::Bytes frame = with_vlan_tags(random_frame(rng), tags, rng);
    expect_peek_matches_decode(frame, tally,
                               std::to_string(tags) + " VLAN tags");
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);  // the 5-tag frames
}

TEST(HeaderPeek, AgreesWithDecodeOnEveryTruncation) {
  util::Rng rng{1302};
  PeekTally tally;
  for (int i = 0; i < 40; ++i) {
    const net::Bytes frame =
        with_vlan_tags(random_frame(rng), static_cast<int>(rng.index(3)), rng);
    for (std::size_t len = 0; len <= frame.size(); ++len)
      expect_peek_matches_decode(net::BytesView{frame.data(), len}, tally,
                                 "truncated at " + std::to_string(len));
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(HeaderPeek, AgreesWithDecodeOnMutatedFrames) {
  util::Rng rng{1303};
  PeekTally tally;
  for (int i = 0; i < 20000; ++i) {
    net::Bytes frame =
        with_vlan_tags(random_frame(rng), static_cast<int>(rng.index(2)), rng);
    // Mutations land in the headers (first 64 bytes), where the checks are.
    const int flips = 1 + static_cast<int>(rng.index(3));
    for (int f = 0; f < flips; ++f)
      frame[rng.index(std::min<std::size_t>(frame.size(), 64))] =
          static_cast<std::uint8_t>(rng.next_u64());
    expect_peek_matches_decode(frame, tally, "mutated");
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(HeaderPeek, AgreesWithDecodeOnRandomBytes) {
  util::Rng rng{1304};
  PeekTally tally;
  for (int i = 0; i < 20000; ++i) {
    net::Bytes frame(rng.index(96));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u64());
    // Half the inputs get an IPv4 EtherType and version nibble, so random
    // bytes reach the IP and L4 checks instead of stopping at L2.
    if (frame.size() > 14 && rng.chance(0.5)) {
      frame[12] = 0x08;
      frame[13] = 0x00;
      frame[14] = static_cast<std::uint8_t>(0x40 | (frame[14] & 0x0f));
      if (frame.size() > 23)
        frame[23] = rng.chance(0.5) ? kProtoTcp : kProtoUdp;
    }
    expect_peek_matches_decode(frame, tally, "random bytes");
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(HeaderPeek, RejectsIpv6ThatDecodeAccepts) {
  net::ByteWriter w;
  EthernetHeader eth;
  eth.ether_type = kEtherTypeIpv6;
  eth.serialize(w);
  Ipv6Header ip6;
  ip6.payload_length = 20;
  ip6.next_header = kProtoTcp;
  ip6.serialize(w);
  TcpHeader tcp;
  tcp.src_port = 443;
  tcp.dst_port = 50000;
  tcp.serialize(w);
  const net::Bytes frame = w.take();
  ASSERT_TRUE(decode_frame(frame, {}));  // a valid IPv6 TCP packet...
  PeekTally tally;
  expect_peek_matches_decode(frame, tally, "ipv6");  // ...but not IPv4
  EXPECT_EQ(tally.rejected, 1u);
}

TEST(HeaderPeek, AgreesWithDecodeWhenLengthFieldsLie) {
  util::Rng rng{1305};
  PeekTally tally;
  constexpr std::size_t kIp = 14;  // untagged Ethernet
  for (int i = 0; i < 200; ++i) {
    const net::Bytes payload(rng.index(64), 0xa5);
    const FrameSpec spec = random_spec(rng);
    const net::Bytes tcp =
        build_tcp_frame(spec, tcpflags::kSyn, 1, 0, payload);
    const net::Bytes udp = build_udp_frame(spec, payload);
    for (std::uint8_t ihl = 0; ihl < 16; ++ihl) {  // IHL: 0..60 bytes
      net::Bytes frame = rng.chance(0.5) ? tcp : udp;
      frame[kIp] = static_cast<std::uint8_t>(0x40 | ihl);
      expect_peek_matches_decode(frame, tally, "ihl " + std::to_string(ihl));
    }
    for (std::uint8_t offset = 0; offset < 16; ++offset) {  // TCP data offset
      net::Bytes frame = tcp;
      frame[kIp + 20 + 12] = static_cast<std::uint8_t>(offset << 4);
      expect_peek_matches_decode(frame, tally,
                                 "tcp offset " + std::to_string(offset));
    }
    for (const std::uint16_t length :
         {0, 1, 7, 8, 9, 0xffff,
          static_cast<int>(rng.next_u64() & 0xffff)}) {  // UDP length
      net::Bytes frame = udp;
      frame[kIp + 20 + 4] = static_cast<std::uint8_t>(length >> 8);
      frame[kIp + 20 + 5] = static_cast<std::uint8_t>(length);
      expect_peek_matches_decode(frame, tally,
                                 "udp length " + std::to_string(length));
    }
    for (const std::uint16_t total : {0, 19, 20, 21, 0xffff}) {  // IPv4 total
      net::Bytes frame = rng.chance(0.5) ? tcp : udp;
      frame[kIp + 2] = static_cast<std::uint8_t>(total >> 8);
      frame[kIp + 3] = static_cast<std::uint8_t>(total);
      expect_peek_matches_decode(frame, tally,
                                 "total length " + std::to_string(total));
    }
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

}  // namespace
}  // namespace dnh::packet
