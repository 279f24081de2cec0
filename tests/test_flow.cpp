#include <gtest/gtest.h>

#include <vector>

#include "flow/table.hpp"
#include "packet/build.hpp"
#include "packet/decode.hpp"

namespace dnh::flow {
namespace {

using packet::tcpflags::kAck;
using packet::tcpflags::kFin;
using packet::tcpflags::kPsh;
using packet::tcpflags::kRst;
using packet::tcpflags::kSyn;

const net::Ipv4Address kClient{10, 0, 0, 5};
const net::Ipv4Address kServer{93, 184, 216, 34};

packet::FrameSpec spec(net::Ipv4Address src, net::Ipv4Address dst,
                       std::uint16_t sport, std::uint16_t dport) {
  packet::FrameSpec s;
  s.src_mac = net::MacAddress::from_index(1);
  s.dst_mac = net::MacAddress::from_index(2);
  s.src_ip = src;
  s.dst_ip = dst;
  s.src_port = sport;
  s.dst_port = dport;
  return s;
}

packet::DecodedPacket tcp_pkt(net::Ipv4Address src, net::Ipv4Address dst,
                              std::uint16_t sport, std::uint16_t dport,
                              std::uint8_t flags, std::int64_t t_us,
                              net::BytesView payload = {},
                              std::uint32_t wire_len = 0) {
  static std::vector<net::Bytes> keepalive;  // frames must outlive views
  keepalive.push_back(packet::build_tcp_frame(spec(src, dst, sport, dport),
                                              flags, 0, 0, payload, wire_len));
  const auto pkt = packet::decode_frame(keepalive.back(),
                                        util::Timestamp::from_micros(t_us));
  EXPECT_TRUE(pkt);
  return *pkt;
}

/// Emits a complete client<->server TCP exchange into the table.
void run_session(FlowTable& table, std::uint16_t cport = 50000) {
  table.on_packet(tcp_pkt(kClient, kServer, cport, 80, kSyn, 1000));
  table.on_packet(tcp_pkt(kServer, kClient, 80, cport, kSyn | kAck, 2000));
  table.on_packet(tcp_pkt(kClient, kServer, cport, 80, kAck, 3000));
  const std::string req = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  table.on_packet(tcp_pkt(kClient, kServer, cport, 80, kAck | kPsh, 4000,
                          net::as_bytes(req)));
  table.on_packet(
      tcp_pkt(kServer, kClient, 80, cport, kAck, 5000, {}, 1460));
  table.on_packet(tcp_pkt(kClient, kServer, cport, 80, kFin | kAck, 6000));
  table.on_packet(tcp_pkt(kServer, kClient, 80, cport, kFin | kAck, 7000));
}

TEST(Orient, SynSenderIsClient) {
  const auto pkt = tcp_pkt(kClient, kServer, 50000, 80, kSyn, 0);
  const auto oriented = orient(pkt);
  EXPECT_EQ(oriented.key.client_ip, kClient);
  EXPECT_EQ(oriented.key.server_port, 80);
  EXPECT_TRUE(oriented.client_to_server);
}

TEST(Orient, SynAckSenderIsServer) {
  const auto pkt = tcp_pkt(kServer, kClient, 80, 50000, kSyn | kAck, 0);
  const auto oriented = orient(pkt);
  EXPECT_EQ(oriented.key.client_ip, kClient);
  EXPECT_FALSE(oriented.client_to_server);
}

TEST(Orient, WellKnownPortHeuristic) {
  // Mid-stream packet (no SYN): port 443 side is the server.
  const auto pkt = tcp_pkt(kServer, kClient, 443, 51000, kAck, 0);
  const auto oriented = orient(pkt);
  EXPECT_EQ(oriented.key.server_ip, kServer);
  EXPECT_EQ(oriented.key.server_port, 443);
  EXPECT_FALSE(oriented.client_to_server);
}

TEST(Orient, HighPortsLowerIsServer) {
  const auto pkt = tcp_pkt(kClient, kServer, 51000, 6969, kAck, 0);
  const auto oriented = orient(pkt);
  EXPECT_EQ(oriented.key.server_port, 6969);
  EXPECT_TRUE(oriented.client_to_server);
}

TEST(FlowTable, CompleteSessionExportsOneFlow) {
  FlowTable table;
  std::vector<FlowRecord> exported;
  table.set_exporter([&](FlowRecord&& f) { exported.push_back(std::move(f)); });
  run_session(table);

  ASSERT_EQ(exported.size(), 1u);
  const auto& f = exported[0];
  EXPECT_EQ(f.key.client_ip, kClient);
  EXPECT_EQ(f.key.server_ip, kServer);
  EXPECT_EQ(f.key.server_port, 80);
  EXPECT_EQ(f.packets_c2s, 4u);
  EXPECT_EQ(f.packets_s2c, 3u);
  EXPECT_TRUE(f.saw_syn);
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(f.first_packet.micros_since_epoch(), 1000);
  EXPECT_EQ(f.last_packet.micros_since_epoch(), 7000);
  EXPECT_EQ(table.live_flows(), 0u);
  EXPECT_EQ(table.flows_seen(), 1u);
}

TEST(FlowTable, WireBytesCountClaimedLength) {
  FlowTable table;
  std::vector<FlowRecord> exported;
  table.set_exporter([&](FlowRecord&& f) { exported.push_back(std::move(f)); });
  run_session(table);
  ASSERT_EQ(exported.size(), 1u);
  // The s2c data packet claimed 1460 wire payload bytes: 20 IP + 20 TCP +
  // 1460 = 1500, plus SYN/ACK (40) and FIN (40).
  EXPECT_EQ(exported[0].bytes_s2c, 1500u + 40u + 40u);
}

TEST(FlowTable, HeadPayloadCaptured) {
  FlowTable table;
  std::vector<FlowRecord> exported;
  table.set_exporter([&](FlowRecord&& f) { exported.push_back(std::move(f)); });
  run_session(table);
  ASSERT_EQ(exported.size(), 1u);
  const std::string head{exported[0].head_c2s.begin(),
                         exported[0].head_c2s.end()};
  EXPECT_EQ(head.substr(0, 4), "GET ");
}

TEST(FlowTable, HeadPayloadBounded) {
  TableConfig config;
  config.head_bytes = 10;
  FlowTable table{config};
  std::vector<FlowRecord> exported;
  table.set_exporter([&](FlowRecord&& f) { exported.push_back(std::move(f)); });

  const std::string big(100, 'x');
  table.on_packet(tcp_pkt(kClient, kServer, 50000, 80, kSyn, 0));
  table.on_packet(tcp_pkt(kClient, kServer, 50000, 80, kAck | kPsh, 1,
                          net::as_bytes(big)));
  table.flush();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].head_c2s.size(), 10u);
}

TEST(FlowTable, RstTerminatesFlow) {
  FlowTable table;
  int exports = 0;
  table.set_exporter([&](FlowRecord&& f) {
    ++exports;
    EXPECT_TRUE(f.saw_rst);
  });
  table.on_packet(tcp_pkt(kClient, kServer, 50000, 80, kSyn, 0));
  table.on_packet(tcp_pkt(kServer, kClient, 80, 50000, kRst, 1));
  EXPECT_EQ(exports, 1);
  EXPECT_EQ(table.live_flows(), 0u);
}

TEST(FlowTable, MidStreamPacketsJoinExistingFlow) {
  FlowTable table;
  table.on_packet(tcp_pkt(kClient, kServer, 50000, 80, kSyn, 0));
  // Mid-stream packets in both directions keep mapping to the same flow.
  table.on_packet(tcp_pkt(kServer, kClient, 80, 50000, kAck, 1));
  table.on_packet(tcp_pkt(kClient, kServer, 50000, 80, kAck, 2));
  EXPECT_EQ(table.flows_seen(), 1u);
  EXPECT_EQ(table.live_flows(), 1u);
}

TEST(FlowTable, DistinctPortsAreDistinctFlows) {
  FlowTable table;
  run_session(table, 50000);
  run_session(table, 50001);
  EXPECT_EQ(table.flows_seen(), 2u);
}

TEST(FlowTable, FlowStartObserverFiresOnceAtFirstPacket) {
  FlowTable table;
  int starts = 0;
  util::Timestamp first_seen;
  table.set_flow_start_observer([&](const FlowRecord& f) {
    ++starts;
    first_seen = f.first_packet;
    EXPECT_EQ(f.total_packets(), 1u);
  });
  run_session(table);
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(first_seen.micros_since_epoch(), 1000);
}

TEST(FlowTable, IdleFlowsSweptAfterTimeout) {
  TableConfig config;
  config.idle_timeout = util::Duration::seconds(10);
  config.sweep_interval_packets = 1;  // sweep on every packet
  FlowTable table{config};
  std::vector<FlowRecord> exported;
  table.set_exporter([&](FlowRecord&& f) { exported.push_back(std::move(f)); });

  table.on_packet(tcp_pkt(kClient, kServer, 50000, 80, kSyn, 0));
  // A later unrelated packet 60s on triggers the sweep.
  table.on_packet(
      tcp_pkt(kClient, kServer, 50001, 80, kSyn, 60'000'000));
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].key.client_port, 50000);
  EXPECT_EQ(table.live_flows(), 1u);
}

TEST(FlowTable, IdleSweepExportsInKeyOrder) {
  TableConfig config;
  config.idle_timeout = util::Duration::seconds(10);
  constexpr std::uint16_t kFlows = 64;
  config.sweep_interval_packets = kFlows + 1;  // sweep at the late packet
  FlowTable table{config};
  std::vector<FlowRecord> exported;
  table.set_exporter([&](FlowRecord&& f) { exported.push_back(std::move(f)); });
  // Client ports in a scrambled order, so neither arrival order nor hash
  // slot order is key order.
  for (std::uint16_t i = 0; i < kFlows; ++i) {
    const auto port = static_cast<std::uint16_t>(50000 + (i * 37) % kFlows);
    table.on_packet(tcp_pkt(kClient, kServer, port, 80, kSyn, i));
  }
  table.on_packet(tcp_pkt(kClient, kServer, 60000, 80, kSyn, 60'000'000));
  ASSERT_EQ(exported.size(), kFlows);
  for (std::uint16_t i = 0; i < kFlows; ++i)
    EXPECT_EQ(exported[i].key.client_port, 50000 + i) << "export " << i;
  EXPECT_EQ(table.live_flows(), 1u);
}

TEST(FlowTable, FlushExportsEverythingDeterministically) {
  FlowTable table;
  std::vector<FlowRecord> exported;
  table.set_exporter([&](FlowRecord&& f) { exported.push_back(std::move(f)); });
  table.on_packet(tcp_pkt(kClient, kServer, 50002, 80, kSyn, 0));
  table.on_packet(tcp_pkt(kClient, kServer, 50001, 80, kSyn, 1));
  table.on_packet(tcp_pkt(kClient, kServer, 50003, 80, kSyn, 2));
  table.flush();
  ASSERT_EQ(exported.size(), 3u);
  // Sorted by key: ports ascending.
  EXPECT_EQ(exported[0].key.client_port, 50001);
  EXPECT_EQ(exported[1].key.client_port, 50002);
  EXPECT_EQ(exported[2].key.client_port, 50003);
  EXPECT_EQ(table.live_flows(), 0u);
}

TEST(FlowTable, UdpFlowTracked) {
  FlowTable table;
  std::vector<FlowRecord> exported;
  table.set_exporter([&](FlowRecord&& f) { exported.push_back(std::move(f)); });

  static net::Bytes frame = packet::build_udp_frame(
      spec(kClient, kServer, 40000, 53), net::Bytes{1, 2, 3});
  const auto pkt = packet::decode_frame(frame, util::Timestamp::from_micros(5));
  ASSERT_TRUE(pkt);
  table.on_packet(*pkt);
  table.flush();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].key.transport, Transport::kUdp);
  EXPECT_EQ(exported[0].key.server_port, 53);
}

TEST(FlowKey, HashDiffersAcrossPorts) {
  const std::hash<FlowKey> h;
  FlowKey a;
  a.client_ip = kClient;
  a.server_ip = kServer;
  a.client_port = 1;
  a.server_port = 80;
  FlowKey b = a;
  b.client_port = 2;
  EXPECT_NE(h(a), h(b));
}

TEST(ProtocolClassNames, AllNamed) {
  EXPECT_EQ(protocol_class_name(ProtocolClass::kHttp), "HTTP");
  EXPECT_EQ(protocol_class_name(ProtocolClass::kTls), "TLS");
  EXPECT_EQ(protocol_class_name(ProtocolClass::kP2p), "P2P");
  EXPECT_EQ(protocol_class_name(ProtocolClass::kDns), "DNS");
  EXPECT_EQ(protocol_class_name(ProtocolClass::kOther), "OTHER");
  EXPECT_EQ(protocol_class_name(ProtocolClass::kUnknown), "UNKNOWN");
}

}  // namespace
}  // namespace dnh::flow

namespace dnh::flow {
namespace {

packet::DecodedPacket tcp_seq_pkt(net::Ipv4Address src, net::Ipv4Address dst,
                                  std::uint16_t sport, std::uint16_t dport,
                                  std::uint8_t flags, std::uint32_t seq,
                                  std::int64_t t_us,
                                  net::BytesView payload = {}) {
  static std::vector<net::Bytes> keepalive;
  keepalive.push_back(packet::build_tcp_frame(spec(src, dst, sport, dport),
                                              flags, seq, 1, payload));
  const auto pkt = packet::decode_frame(keepalive.back(),
                                        util::Timestamp::from_micros(t_us));
  EXPECT_TRUE(pkt);
  return *pkt;
}

std::string exported_head(FlowTable& table) {
  std::string head;
  table.set_exporter([&](FlowRecord&& f) {
    head.assign(f.head_c2s.begin(), f.head_c2s.end());
  });
  table.flush();
  return head;
}

TEST(Reassembly, OutOfOrderSegmentsReorderedIntoHead) {
  using namespace packet::tcpflags;
  FlowTable table;
  table.on_packet(tcp_seq_pkt(kClient, kServer, 50000, 80, kSyn, 0, 0));
  // Payload arrives as segment B (seq 11) before segment A (seq 1).
  table.on_packet(tcp_seq_pkt(kClient, kServer, 50000, 80, kAck, 11, 2,
                              net::as_bytes(" HTTP/1.1\r\n\r\n")));
  table.on_packet(tcp_seq_pkt(kClient, kServer, 50000, 80, kAck, 1, 3,
                              net::as_bytes("GET /order")));
  EXPECT_EQ(exported_head(table), "GET /order HTTP/1.1\r\n\r\n");
}

TEST(Reassembly, RetransmissionsDoNotDuplicate) {
  using namespace packet::tcpflags;
  FlowTable table;
  table.on_packet(tcp_seq_pkt(kClient, kServer, 50000, 80, kAck, 1, 1,
                              net::as_bytes("hello")));
  table.on_packet(tcp_seq_pkt(kClient, kServer, 50000, 80, kAck, 1, 2,
                              net::as_bytes("hello")));  // retransmit
  table.on_packet(tcp_seq_pkt(kClient, kServer, 50000, 80, kAck, 6, 3,
                              net::as_bytes(" world")));
  EXPECT_EQ(exported_head(table), "hello world");
}

TEST(Reassembly, GapFromTruncatedSegmentStopsHead) {
  using namespace packet::tcpflags;
  FlowTable table;
  table.on_packet(tcp_seq_pkt(kClient, kServer, 50000, 80, kAck, 1, 1,
                              net::as_bytes("start")));
  // Claimed 1000 wire bytes, nothing captured: unfillable hole.
  static net::Bytes truncated = packet::build_tcp_frame(
      spec(kClient, kServer, 50000, 80), kAck, 6, 1, {}, 1000);
  const auto pkt =
      packet::decode_frame(truncated, util::Timestamp::from_micros(2));
  table.on_packet(*pkt);
  // Later contiguous-looking data must NOT be appended past the hole.
  table.on_packet(tcp_seq_pkt(kClient, kServer, 50000, 80, kAck, 1006, 3,
                              net::as_bytes("after-hole")));
  EXPECT_EQ(exported_head(table), "start");
}

TEST(Reassembly, PendingBufferBounded) {
  using namespace packet::tcpflags;
  FlowTable table;
  table.on_packet(tcp_seq_pkt(kClient, kServer, 50000, 80, kSyn, 0, 0));
  // 20 segments delivered in fully reversed order: most exceed the parked
  // budget and are dropped; nothing crashes, and only the bounded suffix
  // chain that reconnects to seq 1 is recovered.
  for (int i = 19; i >= 0; --i) {
    table.on_packet(tcp_seq_pkt(
        kClient, kServer, 50000, 80, kAck,
        1 + static_cast<std::uint32_t>(i) * 10, 20 - i,
        net::as_bytes("0123456789")));
  }
  const std::string head = exported_head(table);
  // The in-order segment (seq 1) is always recovered; at most 8 parked
  // segments can extend it.
  EXPECT_GE(head.size(), 10u);
  EXPECT_LE(head.size(), 10u * 9);
}

TEST(Reassembly, UdpStillAppendsInArrivalOrder) {
  FlowTable table;
  static net::Bytes f1 = packet::build_udp_frame(
      spec(kClient, kServer, 40000, 9000), net::as_bytes("ab"));
  static net::Bytes f2 = packet::build_udp_frame(
      spec(kClient, kServer, 40000, 9000), net::as_bytes("cd"));
  table.on_packet(*packet::decode_frame(f1, util::Timestamp::from_micros(1)));
  table.on_packet(*packet::decode_frame(f2, util::Timestamp::from_micros(2)));
  EXPECT_EQ(exported_head(table), "abcd");
}

}  // namespace
}  // namespace dnh::flow
