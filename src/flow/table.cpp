#include "flow/table.hpp"

#include <algorithm>
#include <vector>

namespace dnh::flow {

FlowTable::FlowTable(TableConfig config) : config_{config} {
  // Size from config so steady state never rehashes (reasm state exists
  // only for TCP flows still filling their head bytes — typically a
  // fraction of live flows).
  flows_.reserve(config_.expected_flows);
  reasm_.reserve(config_.expected_flows / 4 + 1);
}

bool source_is_client(net::Ipv4Address src, std::uint16_t src_port,
                      net::Ipv4Address dst, std::uint16_t dst_port,
                      std::uint8_t tcp_flags) noexcept {
  const bool syn = tcp_flags & packet::tcpflags::kSyn;
  const bool ack = tcp_flags & packet::tcpflags::kAck;
  if (syn) return !ack;  // SYN sender initiates; SYN/ACK sender serves
  if ((src_port < 1024) != (dst_port < 1024)) return dst_port < 1024;
  if (src_port != dst_port) return dst_port < src_port;
  return src < dst;
}

OrientedKey orient(const packet::DecodedPacket& pkt) {
  OrientedKey out;
  const auto src = pkt.src_v4();
  const auto dst = pkt.dst_v4();
  const std::uint16_t sport = pkt.src_port();
  const std::uint16_t dport = pkt.dst_port();
  out.key.transport = pkt.is_tcp() ? Transport::kTcp : Transport::kUdp;

  const bool src_is_client = source_is_client(
      src, sport, dst, dport, pkt.is_tcp() ? pkt.tcp().flags : 0);

  if (src_is_client) {
    out.key.client_ip = src;
    out.key.server_ip = dst;
    out.key.client_port = sport;
    out.key.server_port = dport;
    out.client_to_server = true;
  } else {
    out.key.client_ip = dst;
    out.key.server_ip = src;
    out.key.client_port = dport;
    out.key.server_port = sport;
    out.client_to_server = false;
  }
  return out;
}

void FlowTable::on_packet(const packet::DecodedPacket& pkt) {
  ++packets_;

  // Prefer an existing flow in either orientation over re-inferring: a
  // mid-flow packet must never fork a second record.
  OrientedKey oriented = orient(pkt);
  auto it = flows_.find(oriented.key);
  if (it == flows_.end()) {
    FlowKey flipped;
    flipped.client_ip = oriented.key.server_ip;
    flipped.server_ip = oriented.key.client_ip;
    flipped.client_port = oriented.key.server_port;
    flipped.server_port = oriented.key.client_port;
    flipped.transport = oriented.key.transport;
    const auto flipped_it = flows_.find(flipped);
    if (flipped_it != flows_.end()) {
      it = flipped_it;
      oriented.key = flipped;
      oriented.client_to_server = !oriented.client_to_server;
    }
  }

  // Arrival-driven idle split: a packet resuming a 5-tuple that has been
  // idle past the timeout starts a NEW flow, regardless of whether a sweep
  // already exported the old one. This makes flow boundaries a pure
  // function of the packet stream (timestamps), not of sweep cadence —
  // the property the sharded pipeline's deterministic merge relies on,
  // since per-shard tables sweep at different stream points than one
  // global table would.
  if (it != flows_.end() &&
      pkt.timestamp - it->second.last_packet > config_.idle_timeout) {
    FlowRecord done = std::move(it->second);
    flows_.erase(it);
    export_flow(std::move(done));
    // Re-infer orientation for the fresh flow from this packet alone.
    oriented = orient(pkt);
    it = flows_.end();
  }

  const bool is_new = it == flows_.end();
  if (is_new) {
    FlowRecord record;
    record.key = oriented.key;
    record.first_packet = pkt.timestamp;
    it = flows_.emplace(oriented.key, std::move(record)).first;
    ++flows_seen_;
  }

  FlowRecord& flow = it->second;
  flow.last_packet = std::max(flow.last_packet, pkt.timestamp);
  // Wire bytes at the IP layer: header + claimed payload.
  const std::uint64_t wire_bytes =
      pkt.is_ipv4() ? pkt.ipv4().total_length
                    : 40 + std::get<packet::Ipv6Header>(pkt.ip).payload_length;

  append_head(flow, oriented.client_to_server, pkt);

  if (oriented.client_to_server) {
    ++flow.packets_c2s;
    flow.bytes_c2s += wire_bytes;
  } else {
    ++flow.packets_s2c;
    flow.bytes_s2c += wire_bytes;
  }

  if (pkt.is_tcp()) {
    const auto& tcp = pkt.tcp();
    if (tcp.syn()) flow.saw_syn = true;
    if (tcp.rst()) flow.saw_rst = true;
    if (tcp.fin()) {
      if (oriented.client_to_server)
        flow.saw_fin_client = true;
      else
        flow.saw_fin_server = true;
    }
  }

  if (is_new && on_flow_start_) on_flow_start_(flow);

  if (flow.finished()) {
    FlowRecord done = std::move(it->second);
    flows_.erase(it);
    export_flow(std::move(done));
  }

  if (packets_ % config_.sweep_interval_packets == 0)
    sweep_idle(pkt.timestamp);
}

void FlowTable::append_head(FlowRecord& flow, bool c2s,
                            const packet::DecodedPacket& pkt) {
  net::Bytes& head = c2s ? flow.head_c2s : flow.head_s2c;
  if (head.size() >= config_.head_bytes) return;

  auto take_into_head = [&](net::BytesView payload) {
    const std::size_t take = std::min<std::size_t>(
        payload.size(), config_.head_bytes - head.size());
    head.insert(head.end(), payload.begin(), payload.begin() + take);
  };

  // UDP has no sequencing: datagrams append in arrival order.
  if (!pkt.is_tcp()) {
    if (!pkt.payload.empty()) take_into_head(pkt.payload);
    return;
  }

  DirectionReasm& reasm = reasm_[flow.key].dir[c2s ? 0 : 1];
  if (reasm.gave_up) return;
  const std::uint32_t seq = pkt.tcp().seq;
  // A SYN pins the stream origin exactly (data starts at ISN+1); without
  // one (mid-stream capture) the first payload segment seen anchors it.
  if (pkt.tcp().syn()) {
    reasm.next_seq = seq + 1;
    reasm.synced = true;
  }
  if (pkt.payload.empty() && pkt.wire_payload_length == 0) return;
  if (!reasm.synced) {
    reasm.next_seq = seq;
    reasm.synced = true;
  }

  constexpr std::size_t kMaxPending = 8;
  // Tolerate stacks whose first data segment does not sit at ISN+1 (TCP
  // fast open, odd middleboxes): while nothing has been captured yet, a
  // "too old" payload re-anchors the stream instead of being dropped.
  if (seq != reasm.next_seq && head.empty() && reasm.pending.empty() &&
      !pkt.payload.empty() && seq < reasm.next_seq) {
    reasm.next_seq = seq;
  }
  if (seq == reasm.next_seq) {
    take_into_head(pkt.payload);
    // Sequence advances by the WIRE length; a snaplen-truncated segment
    // leaves an unfillable hole, so head capture stops there.
    reasm.next_seq += pkt.wire_payload_length;
    if (pkt.payload.size() < pkt.wire_payload_length) {
      reasm.gave_up = true;
      reasm.pending.clear();
      return;
    }
    // Drain any parked segments that are now contiguous.
    auto it = reasm.pending.find(reasm.next_seq);
    while (it != reasm.pending.end()) {
      take_into_head(it->second);
      reasm.next_seq += static_cast<std::uint32_t>(it->second.size());
      reasm.pending.erase(it);
      it = reasm.pending.find(reasm.next_seq);
    }
  } else if (seq > reasm.next_seq && !pkt.payload.empty() &&
             pkt.payload.size() == pkt.wire_payload_length &&
             reasm.pending.size() < kMaxPending) {
    reasm.pending.emplace(
        seq, net::Bytes{pkt.payload.begin(), pkt.payload.end()});
  }
  // seq < next_seq: retransmission of already-consumed data — ignore.
}

FlowRecord* FlowTable::on_record(const OrientedRecord& record) {
  auto it = flows_.find(record.key);
  // Arrival-driven idle split, as in on_packet: record timestamps alone
  // decide flow boundaries, never sweep cadence.
  if (it != flows_.end() &&
      record.first - it->second.last_packet > config_.idle_timeout) {
    FlowRecord done = std::move(it->second);
    flows_.erase(it);
    export_flow(std::move(done));
    it = flows_.end();
  }

  const bool is_new = it == flows_.end();
  if (is_new) {
    FlowRecord fresh;
    fresh.key = record.key;
    fresh.first_packet = record.first;
    fresh.last_packet = record.last;
    it = flows_.emplace(record.key, std::move(fresh)).first;
    ++flows_seen_;
  }

  FlowRecord& flow = it->second;
  flow.first_packet = std::min(flow.first_packet, record.first);
  flow.last_packet = std::max(flow.last_packet, record.last);
  if (record.from_client) {
    flow.packets_c2s += record.packets;
    flow.bytes_c2s += record.bytes;
  } else {
    flow.packets_s2c += record.packets;
    flow.bytes_s2c += record.bytes;
  }
  // An exporter ORs a slice's flags into one byte: its FIN or RST says
  // nothing about slices of this flow still in flight.
  if (record.key.transport == Transport::kTcp) {
    if (record.tcp_flags & packet::tcpflags::kSyn) flow.saw_syn = true;
    if (record.tcp_flags & packet::tcpflags::kRst) flow.saw_rst = true;
    if (record.tcp_flags & packet::tcpflags::kFin) {
      if (record.from_client)
        flow.saw_fin_client = true;
      else
        flow.saw_fin_server = true;
    }
  }
  return is_new ? &flow : nullptr;
}

void FlowTable::sweep_idle(util::Timestamp now) {
  std::vector<FlowKey> stale;
  for (const auto& [key, flow] : flows_) {
    if (now - flow.last_packet > config_.idle_timeout) stale.push_back(key);
  }
  export_sorted(stale);
}

void FlowTable::flush() {
  std::vector<FlowKey> keys;
  keys.reserve(flows_.size());
  for (const auto& [key, _] : flows_) keys.push_back(key);
  export_sorted(keys);
}

void FlowTable::export_sorted(std::vector<FlowKey>& keys) {
  // Deterministic export order regardless of hash-map iteration.
  std::sort(keys.begin(), keys.end());
  for (const auto& key : keys) {
    auto it = flows_.find(key);
    FlowRecord done = std::move(it->second);
    flows_.erase(it);
    export_flow(std::move(done));
  }
}

void FlowTable::export_flow(FlowRecord&& record) {
  reasm_.erase(record.key);  // idle-swept and flushed flows too
  if (exporter_) exporter_(std::move(record));
}

}  // namespace dnh::flow
