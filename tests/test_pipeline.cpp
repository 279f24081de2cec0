// Tests for the sharded parallel ingestion pipeline: SPSC ring semantics,
// dispatch determinism, the merge stage's bit-identity guarantee against
// the single-threaded Sniffer, and backpressure accounting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "core/flowdb_io.hpp"
#include "core/sniffer.hpp"
#include "dns/message.hpp"
#include "faultinject/faultinject.hpp"
#include "flow/table.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "packet/build.hpp"
#include "packet/decode.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/spsc_ring.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"

namespace dnh {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- SpscRing

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(pipeline::SpscRing<int>{1}.capacity(), 2u);
  EXPECT_EQ(pipeline::SpscRing<int>{2}.capacity(), 2u);
  EXPECT_EQ(pipeline::SpscRing<int>{3}.capacity(), 4u);
  EXPECT_EQ(pipeline::SpscRing<int>{1000}.capacity(), 1024u);
}

TEST(SpscRing, FifoOrderAndFullEmpty) {
  pipeline::SpscRing<int> ring{4};
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));  // starts empty
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_FALSE(ring.try_push(99));  // full at capacity
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));  // drained
  // Wrap-around: cursors keep counting past capacity.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(lap * 10 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
  }
}

TEST(SpscRing, ProduceRecyclesSlotStorage) {
  pipeline::SpscRing<std::vector<int>> ring{2};
  ASSERT_TRUE(ring.try_produce([](std::vector<int>& slot) {
    slot.assign(100, 7);
  }));
  ASSERT_TRUE(ring.try_consume([](std::vector<int>& slot) {
    EXPECT_EQ(slot.size(), 100u);
  }));
  // The consumed slot keeps its heap buffer; the next lap's producer sees
  // capacity it can reuse without allocating.
  ASSERT_TRUE(ring.try_push(std::vector<int>{}));  // advance to slot 1
  std::vector<int> sink;
  ASSERT_TRUE(ring.try_pop(sink));
  bool recycled_capacity = false;
  ASSERT_TRUE(ring.try_produce([&](std::vector<int>& slot) {
    recycled_capacity = slot.capacity() >= 100;
    slot.assign(3, 1);
  }));
  EXPECT_TRUE(recycled_capacity);
}

TEST(SpscRing, CrossThreadStressPreservesSequence) {
  constexpr int kItems = 200000;
  pipeline::SpscRing<int> ring{64};
  std::thread producer{[&] {
    for (int i = 0; i < kItems;) {
      if (ring.try_push(int{i})) ++i;
    }
  }};
  std::int64_t sum = 0;
  int expected = 0;
  while (expected < kItems) {
    int value = -1;
    if (!ring.try_pop(value)) continue;
    ASSERT_EQ(value, expected);  // strict FIFO across threads
    sum += value;
    ++expected;
  }
  producer.join();
  EXPECT_EQ(sum, std::int64_t{kItems} * (kItems - 1) / 2);
}

// ------------------------------------------------------- pipeline fixture

trafficgen::TraceProfile pipeline_profile() {
  auto p = trafficgen::profile_eu1_ftth();
  p.name = "pipeline";
  p.duration = util::Duration::minutes(40);
  p.n_clients = 50;
  return p;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = fs::temp_directory_path() /
           ("dnh_pipeline_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    pcap_path_ = (dir_ / "trace.pcap").string();
    trafficgen::Simulator sim{pipeline_profile()};
    ASSERT_TRUE(sim.write_pcap(pcap_path_));
    frames_ = new std::vector<pcap::Frame>;
    std::string error;
    ASSERT_TRUE(pcap::read_any_capture(
        pcap_path_,
        [&](const pcap::Frame& frame) { frames_->push_back(frame); },
        error));
    ASSERT_GT(frames_->size(), 1000u);
  }
  static void TearDownTestSuite() {
    delete frames_;
    frames_ = nullptr;
    fs::remove_all(dir_);
  }

  /// Canonicalized single-threaded reference result.
  struct Baseline {
    core::FlowDatabase db;
    std::vector<core::DnsEvent> dns_log;
    core::SnifferStats stats;
  };
  static Baseline run_baseline() {
    core::Sniffer sniffer;
    for (const auto& frame : *frames_)
      sniffer.on_frame(frame.data, frame.timestamp);
    sniffer.finish();
    Baseline out;
    out.stats = sniffer.stats();
    out.db = sniffer.take_database();
    out.dns_log = sniffer.take_dns_log();
    pipeline::canonicalize(out.db);
    pipeline::canonicalize(out.dns_log);
    return out;
  }

  static std::string tsv(const core::FlowDatabase& db) {
    std::ostringstream out;
    core::write_flow_tsv(db, out);
    return out.str();
  }

  static void expect_stats_equal(const core::SnifferStats& a,
                                 const core::SnifferStats& b) {
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.decode_failures, b.decode_failures);
    EXPECT_EQ(a.dns_responses, b.dns_responses);
    EXPECT_EQ(a.dns_parse_failures, b.dns_parse_failures);
    EXPECT_EQ(a.dns_queries, b.dns_queries);
    EXPECT_EQ(a.dns_tcp_messages, b.dns_tcp_messages);
    EXPECT_EQ(a.flows_exported, b.flows_exported);
    EXPECT_EQ(a.flows_tagged_at_start, b.flows_tagged_at_start);
    EXPECT_EQ(a.flows_tagged_at_export, b.flows_tagged_at_export);
    EXPECT_EQ(a.degradation.malformed_total(),
              b.degradation.malformed_total());
    EXPECT_EQ(a.degradation.unsupported_frames,
              b.degradation.unsupported_frames);
  }

  static fs::path dir_;
  static std::string pcap_path_;
  static std::vector<pcap::Frame>* frames_;
};

fs::path PipelineTest::dir_;
std::string PipelineTest::pcap_path_;
std::vector<pcap::Frame>* PipelineTest::frames_ = nullptr;

// ------------------------------------------------------------ dispatching

TEST_F(PipelineTest, ShardForIsDeterministicAndCoversShards) {
  std::vector<std::size_t> counts(4, 0);
  for (const auto& frame : *frames_) {
    const std::size_t shard = pipeline::ShardedAnalyzer::shard_for(
        frame.data, 4);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, pipeline::ShardedAnalyzer::shard_for(frame.data, 4));
    ++counts[shard];
    EXPECT_EQ(pipeline::ShardedAnalyzer::shard_for(frame.data, 1), 0u);
  }
  // 50 clients hashed over 4 shards: every shard must see traffic.
  for (std::size_t shard = 0; shard < 4; ++shard)
    EXPECT_GT(counts[shard], 0u) << "shard " << shard << " got no frames";
}

// The dispatcher routes on a fixed-offset header peek. Its shard sequence
// must equal what the pre-peek dispatcher computed from a full decode:
// client by the DNS-port rule or flow::orient, affinity by direction-free
// 5-tuple with idle expiry and a periodic sweep. A short idle timeout and
// a second, shifted pass of the capture make both expiry paths happen: a
// pin dropped by the sweep, and a pin found expired and re-homed in place.
TEST_F(PipelineTest, RouteFrameMatchesDecodeBasedReference) {
  constexpr std::size_t kShards = 3;
  // The dispatcher's client-address hash (splitmix64), restated here.
  const auto reference_shard = [](net::Ipv4Address client) {
    std::uint64_t x = client.value() + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>((x ^ (x >> 31)) % kShards);
  };
  struct Pin {
    std::size_t shard = 0;
    util::Timestamp last;
  };
  struct Paths {
    std::size_t swept = 0;    // pins dropped by the periodic sweep
    std::size_t rehomed = 0;  // pins found expired and re-homed in place
  };
  const auto check = [&](std::uint64_t sweep_interval) {
    pipeline::PipelineConfig config;
    config.shards = kShards;
    config.sniffer.table.idle_timeout = util::Duration::seconds(20);
    config.sniffer.table.sweep_interval_packets = sweep_interval;
    const util::Duration idle = config.sniffer.table.idle_timeout;
    pipeline::ShardedAnalyzer analyzer{config, nullptr};
    std::map<flow::FlowKey, Pin> pins;
    std::uint64_t routed = 0;
    Paths paths;
    std::vector<std::size_t> counts(kShards, 0);
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& frame : *frames_) {
        const util::Timestamp ts =
            frame.timestamp + util::Duration::minutes(60 * pass);
        std::size_t expected = 0;
        const auto pkt = packet::decode_frame(frame.data, ts);
        if (pkt && pkt->is_ipv4()) {
          if (++routed % sweep_interval == 0)
            paths.swept += std::erase_if(pins, [&](const auto& entry) {
              return ts - entry.second.last > idle;
            });
          flow::FlowKey key;
          key.transport =
              pkt->is_tcp() ? flow::Transport::kTcp : flow::Transport::kUdp;
          key.client_ip = pkt->src_v4();
          key.client_port = pkt->src_port();
          key.server_ip = pkt->dst_v4();
          key.server_port = pkt->dst_port();
          if (std::tie(key.server_ip, key.server_port) <
              std::tie(key.client_ip, key.client_port)) {
            std::swap(key.client_ip, key.server_ip);
            std::swap(key.client_port, key.server_port);
          }
          net::Ipv4Address client = flow::orient(*pkt).key.client_ip;
          if (pkt->src_port() == dns::kDnsPort) {
            client = pkt->dst_v4();
          } else if (pkt->dst_port() == dns::kDnsPort) {
            client = pkt->src_v4();
          }
          const auto it = pins.find(key);
          if (it == pins.end() || ts - it->second.last > idle) {
            if (it != pins.end()) ++paths.rehomed;
            pins[key] = Pin{reference_shard(client), ts};
          } else if (ts > it->second.last) {
            it->second.last = ts;
          }
          expected = pins[key].shard;
        }
        EXPECT_EQ(analyzer.route_frame(frame.data, ts), expected)
            << "pass " << pass << ", frame at " << ts.micros_since_epoch()
            << "us";
        if (HasFailure()) return paths;
        ++counts[expected];
      }
    }
    analyzer.finish();
    for (std::size_t shard = 0; shard < kShards; ++shard)
      EXPECT_GT(counts[shard], 0u) << "shard " << shard;
    return paths;
  };
  EXPECT_GT(check(1024).swept, 0u) << "the sweep never dropped a pin";
  // Effectively no sweep: every resumed 5-tuple meets its expired pin.
  EXPECT_GT(check(std::uint64_t{1} << 40).rehomed, 0u)
      << "idle re-homing never exercised";
}

// Connections whose two ports are both ephemeral with server > client are
// the trap for per-packet dispatch: the SYN orients by its flags (sender =
// client) while data packets orient by the port heuristic (higher port =
// client), so the two directions hash to DIFFERENT shards and the
// connection would fork into half-flows. The affinity table must pin the
// whole connection to the first packet's shard.
TEST_F(PipelineTest, AmbiguousPortConnectionsDoNotForkAcrossShards) {
  using namespace packet::tcpflags;
  constexpr std::size_t kConnections = 32;
  std::vector<pcap::Frame> frames;
  bool directions_disagree = false;
  for (std::size_t i = 0; i < kConnections; ++i) {
    packet::FrameSpec c2s;
    c2s.src_ip = net::Ipv4Address(0x0a000001 + (static_cast<std::uint32_t>(i) << 8));
    c2s.dst_ip = net::Ipv4Address(0xcb000002 + (static_cast<std::uint32_t>(i) << 8));
    c2s.src_port = static_cast<std::uint16_t>(50000 + i);  // client (SYN sender)
    c2s.dst_port = static_cast<std::uint16_t>(55000 + i);  // "server", higher port
    packet::FrameSpec s2c = c2s;
    std::swap(s2c.src_ip, s2c.dst_ip);
    std::swap(s2c.src_port, s2c.dst_port);

    const auto t = [&](int step) {
      return util::Timestamp::from_micros(1'000'000 + static_cast<std::int64_t>(i) * 10'000 + step * 1'000);
    };
    const net::Bytes payload{'h', 'i'};
    const auto push = [&](int step, net::Bytes bytes) {
      frames.push_back(packet::make_pcap_frame(t(step), std::move(bytes)));
    };
    push(0, packet::build_tcp_frame(c2s, kSyn, 0, 0, {}));
    push(1, packet::build_tcp_frame(s2c, kSyn | kAck, 0, 1, {}));
    push(2, packet::build_tcp_frame(c2s, kAck | kPsh, 1, 1, payload));
    push(3, packet::build_tcp_frame(s2c, kAck | kPsh, 1, 3, payload));
    push(4, packet::build_tcp_frame(c2s, kFin | kAck, 3, 3, {}));
    push(5, packet::build_tcp_frame(s2c, kFin | kAck, 3, 4, {}));

    // Confirm the premise: the stateless heuristic really does send the
    // two directions of some connection to different shards.
    directions_disagree |=
        pipeline::ShardedAnalyzer::shard_for(frames[frames.size() - 6].data, 8) !=
        pipeline::ShardedAnalyzer::shard_for(frames[frames.size() - 3].data, 8);
  }
  ASSERT_TRUE(directions_disagree);
  std::sort(frames.begin(), frames.end(),
            [](const pcap::Frame& a, const pcap::Frame& b) {
              return a.timestamp < b.timestamp;
            });

  core::Sniffer sniffer;
  for (const auto& frame : frames) sniffer.on_frame(frame.data, frame.timestamp);
  sniffer.finish();
  core::FlowDatabase single = sniffer.take_database();
  pipeline::canonicalize(single);
  ASSERT_EQ(single.size(), kConnections);

  pipeline::PipelineConfig config;
  config.shards = 8;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  for (const auto& frame : frames) analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();

  EXPECT_EQ(merged.db.size(), kConnections);
  EXPECT_EQ(tsv(merged.db), tsv(single));
}

// ------------------------------------------------------------ determinism

TEST_F(PipelineTest, FourShardsBitIdenticalToSingleThread) {
  const Baseline baseline = run_baseline();

  pipeline::PipelineConfig config;
  config.shards = 4;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  for (const auto& frame : *frames_)
    analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();

  EXPECT_EQ(tsv(merged.db), tsv(baseline.db));
  ASSERT_EQ(merged.dns_log.size(), baseline.dns_log.size());
  for (std::size_t i = 0; i < merged.dns_log.size(); ++i) {
    EXPECT_EQ(merged.dns_log[i].time, baseline.dns_log[i].time);
    EXPECT_EQ(merged.dns_log[i].client, baseline.dns_log[i].client);
    EXPECT_EQ(merged.dns_log[i].fqdn, baseline.dns_log[i].fqdn);
    EXPECT_EQ(merged.dns_log[i].servers, baseline.dns_log[i].servers);
  }
  expect_stats_equal(analyzer.stats().merged, baseline.stats);

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dispatched, frames_->size());
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.windows_merged, 1u);
  ASSERT_EQ(stats.shards.size(), 4u);
  std::uint64_t enqueued = 0, processed = 0;
  for (const auto& shard : stats.shards) {
    enqueued += shard.frames_enqueued;
    processed += shard.frames_processed;
    EXPECT_EQ(shard.frames_enqueued, shard.frames_processed);
  }
  EXPECT_EQ(enqueued, frames_->size());
  EXPECT_EQ(processed, frames_->size());
}

TEST_F(PipelineTest, ShardCountIsInvisibleAcrossCounts) {
  const Baseline baseline = run_baseline();
  const std::string reference = tsv(baseline.db);
  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    pipeline::PipelineConfig config;
    config.shards = shards;
    core::AnalysisWindow merged;
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
    ASSERT_TRUE(analyzer.process_pcap(pcap_path_));
    analyzer.finish();
    EXPECT_EQ(tsv(merged.db), reference) << "shards=" << shards;
    EXPECT_EQ(merged.dns_log.size(), baseline.dns_log.size());
  }
}

/// Reference rotation over a bare Sniffer: at every window boundary the
/// frame clock crosses, the database and DNS log are taken as one window
/// (open flows stay in the flow table), and finish() closes the last one.
std::vector<core::AnalysisWindow> rotate_with_sniffer(
    const std::vector<pcap::Frame>& frames, util::Duration window) {
  core::Sniffer sniffer;
  std::vector<core::AnalysisWindow> windows;
  const std::int64_t width = window.total_micros();
  util::Timestamp start = util::Timestamp::from_micros(
      frames.front().timestamp.micros_since_epoch() / width * width);
  const auto take = [&] {
    windows.push_back({start, start + window, sniffer.take_database(),
                       sniffer.take_dns_log()});
    start = start + window;
  };
  for (const auto& frame : frames) {
    while (frame.timestamp >= start + window) take();
    sniffer.on_frame(frame.data, frame.timestamp);
  }
  sniffer.finish();
  take();
  for (auto& w : windows) pipeline::canonicalize(w);
  return windows;
}

TEST_F(PipelineTest, WindowedRotationMatchesSnifferRotation) {
  const util::Duration window = util::Duration::minutes(10);
  const std::vector<core::AnalysisWindow> reference =
      rotate_with_sniffer(*frames_, window);
  ASSERT_GE(reference.size(), 4u);  // 40 min / 10 min + final partial

  for (const std::size_t shards : {1u, 3u}) {
    pipeline::PipelineConfig config;
    config.shards = shards;
    config.window = window;
    std::vector<core::AnalysisWindow> merged_windows;
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&& w) {
          merged_windows.push_back(std::move(w));
        }};
    for (const auto& frame : *frames_)
      analyzer.on_frame(frame.data, frame.timestamp);
    analyzer.finish();

    ASSERT_EQ(merged_windows.size(), reference.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < merged_windows.size(); ++i) {
      EXPECT_EQ(merged_windows[i].start, reference[i].start) << "w" << i;
      EXPECT_EQ(merged_windows[i].end, reference[i].end) << "w" << i;
      EXPECT_EQ(tsv(merged_windows[i].db), tsv(reference[i].db))
          << "shards=" << shards << " window " << i;
      EXPECT_EQ(merged_windows[i].dns_log.size(), reference[i].dns_log.size())
          << "shards=" << shards << " window " << i;
    }
    EXPECT_EQ(analyzer.stats().windows_merged, merged_windows.size());
  }
}

// ------------------------------------------------------------ inline mode

/// Thread count of this process (Linux), or 0 where /proc is absent.
std::size_t thread_count() {
  std::size_t n = 0;
  std::error_code ec;
  for (fs::directory_iterator it{"/proc/self/task", ec}, end; !ec && it != end;
       it.increment(ec))
    ++n;
  return n;
}

TEST_F(PipelineTest, InlineModeRunsOnTheCallersThread) {
  const Baseline baseline = run_baseline();
  const std::size_t threads_before = thread_count();
  pipeline::PipelineConfig config;
  config.shards = 1;
  core::AnalysisWindow merged;
  std::thread::id sink_thread;
  std::size_t threads_in_sink = 0;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) {
        sink_thread = std::this_thread::get_id();
        threads_in_sink = thread_count();
        merged = std::move(w);
      }};
  EXPECT_EQ(thread_count(), threads_before);  // no worker, merge or watchdog
  for (const auto& frame : *frames_)
    analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();

  EXPECT_EQ(sink_thread, std::this_thread::get_id());
  EXPECT_EQ(threads_in_sink, threads_before);
  EXPECT_EQ(tsv(merged.db), tsv(baseline.db));
  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frame_blocks, 0u);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].frames_enqueued, frames_->size());
  EXPECT_EQ(stats.shards[0].frames_processed, frames_->size());
  EXPECT_EQ(stats.frames_dispatched, frames_->size());
  expect_stats_equal(stats.merged, baseline.stats);
}

/// One shard with hourly windows, fed hand-built exchanges.
class PipelineInlineTest : public ::testing::Test {
 protected:
  const net::Ipv4Address kClient{10, 0, 0, 7};
  const net::Ipv4Address kResolver{10, 200, 0, 1};
  const net::Ipv4Address kServer{93, 184, 216, 34};

  static pipeline::PipelineConfig hourly() {
    pipeline::PipelineConfig config;
    config.shards = 1;
    config.window = util::Duration::hours(1);
    return config;
  }

  /// A DNS response for `fqdn` (answer kServer) reaching kClient at `t`.
  void feed_response(pipeline::ShardedAnalyzer& analyzer, std::int64_t t,
                     const std::string& fqdn) {
    const auto msg = dns::make_a_response(
        1, *dns::DnsName::from_string(fqdn), {kServer}, 300);
    packet::FrameSpec s;
    s.src_ip = kResolver;
    s.dst_ip = kClient;
    s.src_port = 53;
    s.dst_port = 33333;
    analyzer.on_frame(packet::build_udp_frame(s, msg.encode()),
                      util::Timestamp::from_seconds(t));
  }

  /// One DNS response + complete flow starting at second `t`.
  void feed_exchange(pipeline::ShardedAnalyzer& analyzer, std::int64_t t,
                     const std::string& fqdn, std::uint16_t cport) {
    feed_response(analyzer, t, fqdn);
    packet::FrameSpec s;
    s.src_ip = kClient;
    s.dst_ip = kServer;
    s.src_port = cport;
    s.dst_port = 80;
    packet::FrameSpec back = s;
    std::swap(back.src_ip, back.dst_ip);
    std::swap(back.src_port, back.dst_port);
    analyzer.on_frame(
        packet::build_tcp_frame(s, packet::tcpflags::kSyn, 0, 0, {}),
        util::Timestamp::from_seconds(t + 1));
    analyzer.on_frame(
        packet::build_tcp_frame(
            s, packet::tcpflags::kFin | packet::tcpflags::kAck, 1, 1, {}),
        util::Timestamp::from_seconds(t + 2));
    analyzer.on_frame(
        packet::build_tcp_frame(
            back, packet::tcpflags::kFin | packet::tcpflags::kAck, 1, 2, {}),
        util::Timestamp::from_seconds(t + 3));
  }
};

TEST_F(PipelineInlineTest, RotatesWindowsAndPartitionsFlows) {
  std::vector<core::AnalysisWindow> windows;
  pipeline::ShardedAnalyzer analyzer{
      hourly(), [&](core::AnalysisWindow&& window) {
        windows.push_back(std::move(window));
      }};
  feed_exchange(analyzer, 100, "early.example.com", 50000);
  feed_exchange(analyzer, 4000, "late.example.com", 50001);  // next hour
  analyzer.finish();

  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(analyzer.stats().windows_merged, 2u);
  ASSERT_EQ(windows[0].db.size(), 1u);
  EXPECT_EQ(windows[0].db.flows()[0].fqdn, "early.example.com");
  EXPECT_EQ(windows[0].dns_log.size(), 1u);
  ASSERT_EQ(windows[1].db.size(), 1u);
  EXPECT_EQ(windows[1].db.flows()[0].fqdn, "late.example.com");
  // Window boundaries aligned to the hour.
  EXPECT_EQ(windows[0].start.seconds_since_epoch() % 3600, 0);
  EXPECT_EQ(windows[0].end, windows[1].start);
}

TEST_F(PipelineInlineTest, ResolverStateSurvivesRotation) {
  std::vector<core::AnalysisWindow> windows;
  pipeline::ShardedAnalyzer analyzer{
      hourly(), [&](core::AnalysisWindow&& window) {
        windows.push_back(std::move(window));
      }};
  // Response in hour 0; the flow it labels opens in hour 1.
  feed_response(analyzer, 3500, "cached.example.com");
  packet::FrameSpec s;
  s.src_ip = kClient;
  s.dst_ip = kServer;
  s.src_port = 51000;
  s.dst_port = 80;
  analyzer.on_frame(
      packet::build_tcp_frame(s, packet::tcpflags::kSyn, 0, 0, {}),
      util::Timestamp::from_seconds(4200));
  analyzer.finish();

  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].db.size(), 0u);  // flow still open at rotation
  ASSERT_EQ(windows[1].db.size(), 1u);
  EXPECT_EQ(windows[1].db.flows()[0].fqdn, "cached.example.com");
  EXPECT_TRUE(windows[1].db.flows()[0].tagged_at_start);
}

TEST_F(PipelineInlineTest, IdleGapsDeliverEmptyWindows) {
  std::vector<core::AnalysisWindow> windows;
  pipeline::ShardedAnalyzer analyzer{
      hourly(), [&](core::AnalysisWindow&& window) {
        windows.push_back(std::move(window));
      }};
  feed_exchange(analyzer, 100, "a.example.com", 50000);
  // 3-hour silence, then traffic again.
  feed_exchange(analyzer, 3 * 3600 + 100, "b.example.com", 50001);
  analyzer.finish();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].db.size(), 1u);
  EXPECT_EQ(windows[1].db.size(), 0u);
  EXPECT_EQ(windows[2].db.size(), 0u);
  EXPECT_EQ(windows[3].db.size(), 1u);
}

TEST_F(PipelineInlineTest, RotationMovesWindowsWithoutSinkStillCounts) {
  // Null sink: rotation must still take (and drop) each window so the
  // next one starts empty — and windows_merged must keep counting.
  pipeline::ShardedAnalyzer unsinked{hourly(), nullptr};
  feed_exchange(unsinked, 100, "a.example.com", 50000);
  feed_exchange(unsinked, 4000, "b.example.com", 50001);
  unsinked.finish();
  EXPECT_EQ(unsinked.stats().windows_merged, 2u);

  // With a sink: each delivered window contains exactly its own flows
  // (take_database really cleared the previous window's state), and the
  // merged count matches the sink invocations.
  std::size_t delivered = 0;
  std::vector<std::size_t> sizes;
  pipeline::ShardedAnalyzer analyzer{
      hourly(), [&](core::AnalysisWindow&& window) {
        ++delivered;
        sizes.push_back(window.db.size());
      }};
  feed_exchange(analyzer, 100, "a.example.com", 50000);
  feed_exchange(analyzer, 4000, "b.example.com", 50001);
  analyzer.finish();
  EXPECT_EQ(analyzer.stats().windows_merged, delivered);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 1u);  // not cumulative: the move emptied window 0
}

// ----------------------------------------------------------- backpressure

TEST(PipelineBackpressure, DropPolicyShedsAndCountsFrames) {
  // Hold both workers hostage until dispatch is done: every frame beyond
  // the queue capacity MUST be shed, deterministically.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;

  pipeline::PipelineConfig config;
  config.shards = 2;
  config.queue_capacity = 2;
  config.backpressure = pipeline::BackpressurePolicy::kDrop;
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};

  // Undecodable frames all route to shard 0.
  const net::Bytes junk{0xde, 0xad};
  constexpr std::uint64_t kFrames = 100;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    analyzer.on_frame(junk, util::Timestamp::from_seconds(
                                static_cast<std::int64_t>(i)));
  {
    std::lock_guard lock{mutex};
    release = true;
  }
  cv.notify_all();
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dispatched, kFrames);
  // Queue capacity 2 with held workers: exactly kFrames - 2 shed.
  EXPECT_EQ(stats.frames_dropped, kFrames - 2);
  EXPECT_EQ(stats.shards[0].frames_dropped, kFrames - 2);
  EXPECT_EQ(stats.shards[0].frames_enqueued, 2u);
  EXPECT_EQ(stats.shards[0].queue_high_water, 2u);
  EXPECT_EQ(stats.shards[1].frames_dropped, 0u);
  // Shed load is accounted as degradation, not silently lost.
  EXPECT_EQ(stats.merged.degradation.pipeline_frames_dropped, kFrames - 2);
  EXPECT_EQ(stats.merged.frames,
            stats.frames_dispatched - stats.frames_dropped);
  // Drops are a capacity event, not malformed input: only the two junk
  // frames that reached a worker count as malformed; the 98 shed frames
  // must not inflate the total.
  EXPECT_EQ(stats.merged.degradation.malformed_total(), 2u);
}

TEST(PipelineBackpressure, BlockPolicyIsLosslessAndCountsStalls) {
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> released{false};

  // Two shards: one shard would run inline, with no ring to fill. The
  // junk frames all route to shard 0.
  pipeline::PipelineConfig config;
  config.shards = 2;
  config.queue_capacity = 2;
  config.backpressure = pipeline::BackpressurePolicy::kBlock;
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};

  // The dispatcher will block on the third frame; release the worker from
  // a helper thread once that happens.
  std::thread releaser{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      std::lock_guard lock{mutex};
      release = true;
    }
    released.store(true);
    cv.notify_all();
  }};
  const net::Bytes junk{0xde, 0xad};
  constexpr std::uint64_t kFrames = 50;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    analyzer.on_frame(junk, util::Timestamp::from_seconds(
                                static_cast<std::int64_t>(i)));
  EXPECT_TRUE(released.load());  // dispatch 50 > capacity 2 must have stalled
  releaser.join();
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.shards[0].frames_enqueued, kFrames);
  EXPECT_EQ(stats.shards[0].frames_processed, kFrames);
  EXPECT_GT(stats.shards[0].blocked_pushes, 0u);
  EXPECT_EQ(stats.merged.frames, kFrames);
  EXPECT_EQ(stats.merged.degradation.pipeline_frames_dropped, 0u);
}

// ----------------------------------------------------------- frame blocks

/// The fixture trace replicated along the time axis until the file spans
/// at least five read blocks. Each copy starts ten minutes after the
/// previous one ends, so the idle timeout splits copies into fresh flows.
std::string write_long_capture(const fs::path& dir,
                               const std::vector<pcap::Frame>& frames) {
  const std::string path = (dir / "long.pcap").string();
  auto writer = pcap::Writer::create(path);
  EXPECT_TRUE(writer);
  const std::int64_t shift =
      (frames.back().timestamp - frames.front().timestamp +
       util::Duration::minutes(10))
          .total_micros();
  std::size_t bytes = 0;
  for (std::int64_t copy = 0; bytes < 5 * pcap::kReadBlockBytes; ++copy) {
    for (pcap::Frame frame : frames) {
      frame.timestamp = frame.timestamp + util::Duration::micros(shift * copy);
      writer->write(frame);
      bytes += 16 + frame.data.size();
    }
  }
  return path;
}

/// Canonical TSV of the single-threaded Sniffer over `path`.
std::string reference_tsv(const std::string& path) {
  core::Sniffer sniffer;
  EXPECT_TRUE(sniffer.process_pcap(path)) << sniffer.error();
  sniffer.finish();
  core::FlowDatabase db = sniffer.take_database();
  pipeline::canonicalize(db);
  std::ostringstream out;
  core::write_flow_tsv(db, out);
  return out.str();
}

/// Pool size as the dispatcher last published it (atomic: safe to read
/// from a worker thread).
std::int64_t frame_blocks_gauge() {
  return obs::Registry::global().gauge("dnh_pipeline_frame_blocks").value();
}

TEST_F(PipelineTest, FrameBlocksRecycleUnderALaggingShard) {
  const std::string path = write_long_capture(dir_, *frames_);
  const std::string reference = reference_tsv(path);
  // One shard runs inline, with no pool.
  for (const std::size_t shards : {2u, 3u, 4u}) {
    // Shard 0 stays parked until the dispatcher has retired at least two
    // blocks it still references (the pool then holds three or more);
    // its ring is deep enough that the dispatcher gets that far.
    pipeline::PipelineConfig config;
    config.shards = shards;
    config.queue_capacity = 1 << 15;
    config.worker_start_hook = [](std::size_t shard) {
      if (shard != 0) return;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (frame_blocks_gauge() < 3 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    core::AnalysisWindow merged;
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
    ASSERT_TRUE(analyzer.process_pcap(path)) << analyzer.error();
    analyzer.finish();
    const auto& stats = analyzer.stats();
    EXPECT_GE(stats.frame_blocks, 3u) << "shards=" << shards;
    EXPECT_EQ(stats.frames_dropped, 0u);
    EXPECT_EQ(tsv(merged.db), reference) << "shards=" << shards;
  }
}

TEST_F(PipelineTest, FrameBlocksStayBoundedWhileParkedShardsDrop) {
  const std::string path = write_long_capture(dir_, *frames_);
  std::size_t total = 0;
  std::string error;
  ASSERT_TRUE(pcap::read_any_capture(
      path, [&](const pcap::Frame&) { ++total; }, error));

  // Both workers parked for the whole read: each ring takes exactly its
  // capacity and sheds the rest — the accounting the drop policy always
  // had. Only the blocks those first frames live in stay held; every
  // later block is free as soon as it is retired.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  pipeline::PipelineConfig config;
  config.shards = 2;
  config.queue_capacity = 256;
  config.backpressure = pipeline::BackpressurePolicy::kDrop;
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};
  ASSERT_TRUE(analyzer.process_pcap(path)) << analyzer.error();
  EXPECT_LE(frame_blocks_gauge(), 3);
  {
    std::lock_guard lock{mutex};
    release = true;
  }
  cv.notify_all();
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dispatched, total);
  EXPECT_EQ(stats.frames_dropped, total - 2 * 256);
  for (const auto& shard : stats.shards) {
    EXPECT_EQ(shard.frames_enqueued, 256u);
    EXPECT_EQ(shard.frames_processed, 256u);
  }
  EXPECT_EQ(stats.merged.frames, 2u * 256);
  EXPECT_EQ(stats.merged.degradation.pipeline_frames_dropped,
            stats.frames_dropped);
  EXPECT_LE(stats.frame_blocks, 3u);
}

TEST_F(PipelineTest, OnFrameCopiesTheCallersBuffer) {
  // One caller buffer, scribbled over after every call: the analyzer must
  // have taken its copy by the time on_frame returns.
  const std::string path = write_long_capture(dir_, *frames_);
  const std::string reference = reference_tsv(path);
  pipeline::PipelineConfig config;
  config.shards = 3;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  net::Bytes buffer;
  std::string error;
  ASSERT_TRUE(pcap::read_any_capture(
      path,
      [&](const pcap::Frame& frame) {
        buffer.assign(frame.data.begin(), frame.data.end());
        analyzer.on_frame(buffer, frame.timestamp);
        std::fill(buffer.begin(), buffer.end(), 0xee);
      },
      error));
  analyzer.finish();
  EXPECT_GE(analyzer.stats().frame_blocks, 1u);
  EXPECT_EQ(tsv(merged.db), reference);
}

TEST(PipelineFrameBlocks, StagedFramesOutliveTheirBlock) {
  // A shard's frames can still sit in the dispatcher's staging buffer
  // when their block is retired: here one shard gets three frames first
  // and none after, while ten blocks of the other shard's traffic follow.
  // Retiring must push the staged frames into the ring, or the block is
  // recycled under them. Small rings keep the busy shard close behind
  // the dispatcher, so the first block is recycled as soon as it can be.
  const fs::path dir = fs::temp_directory_path() /
                       ("dnh_pipeline_staged_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "staged.pcap").string();
  const net::Bytes payload(1000, 0x42);
  const auto frame_from = [&](std::uint8_t host, std::size_t i) {
    packet::FrameSpec spec;
    spec.src_ip = net::Ipv4Address{10, 0, 0, host};
    spec.dst_ip = net::Ipv4Address{192, 0, 2, 7};
    spec.src_port = 40'000;
    spec.dst_port = 443;
    return packet::make_pcap_frame(
        util::Timestamp::from_micros(1'000'000 +
                                     static_cast<std::int64_t>(i) * 1000),
        packet::build_udp_frame(spec, payload));
  };
  const auto shard_of = [&](std::uint8_t host) {
    return pipeline::ShardedAnalyzer::shard_for(frame_from(host, 0).data, 2);
  };
  const std::uint8_t quiet = 1;
  std::uint8_t busy = 2;
  while (shard_of(busy) == shard_of(quiet)) ++busy;
  {
    auto writer = pcap::Writer::create(path);
    ASSERT_TRUE(writer);
    std::size_t i = 0;
    for (; i < 3; ++i) writer->write(frame_from(quiet, i));
    for (; i < 10'000; ++i) writer->write(frame_from(busy, i));
  }
  ASSERT_GT(fs::file_size(path), 10 * pcap::kReadBlockBytes);

  pipeline::PipelineConfig config;
  config.shards = 2;
  config.queue_capacity = 64;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  ASSERT_TRUE(analyzer.process_pcap(path)) << analyzer.error();
  analyzer.finish();
  EXPECT_EQ(analyzer.stats().shards[shard_of(quiet)].frames_processed, 3u);
  std::ostringstream got;
  core::write_flow_tsv(merged.db, got);
  EXPECT_EQ(got.str(), reference_tsv(path));
  fs::remove_all(dir);
}

// ------------------------------------------------------------- edge cases

TEST(PipelineEdge, EmptyRunDeliversNoWindow) {
  pipeline::PipelineConfig config;
  config.shards = 3;
  std::size_t windows = 0;
  {
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&&) { ++windows; }};
    analyzer.finish();
    EXPECT_EQ(analyzer.stats().frames_dispatched, 0u);
    EXPECT_EQ(analyzer.stats().windows_merged, 0u);
  }
  EXPECT_EQ(windows, 0u);
}

TEST(PipelineEdge, DestructorFinishesWithoutExplicitCall) {
  pipeline::PipelineConfig config;
  config.shards = 2;
  std::size_t windows = 0;
  {
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&&) { ++windows; }};
    const net::Bytes junk{0x01, 0x02};
    analyzer.on_frame(junk, util::Timestamp::from_seconds(1));
    // No finish(): the destructor must flush, merge, and join.
  }
  EXPECT_EQ(windows, 1u);
}

TEST(PipelineEdge, MissingCaptureReportsError) {
  pipeline::PipelineConfig config;
  config.shards = 2;
  pipeline::ShardedAnalyzer analyzer{config, nullptr};
  EXPECT_FALSE(analyzer.process_pcap("/nonexistent/trace.pcap"));
  analyzer.finish();
  EXPECT_FALSE(analyzer.error().empty());
}

// ----------------------------------------------------------- canonicalize

TEST(Canonicalize, SortsFlowsAndRebuildsIndexes) {
  core::FlowDatabase db;
  core::TaggedFlow late;
  late.key.client_ip = net::Ipv4Address(0x0a000001);
  late.key.server_ip = net::Ipv4Address(0x08080808);
  late.key.server_port = 443;
  late.first_packet = util::Timestamp::from_seconds(200);
  late.fqdn = "b.example.com";
  core::TaggedFlow early = late;
  early.first_packet = util::Timestamp::from_seconds(100);
  early.fqdn = "a.example.com";
  db.add(late);
  db.add(early);

  pipeline::canonicalize(db);
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.flows()[0].fqdn, "a.example.com");
  EXPECT_EQ(db.flows()[1].fqdn, "b.example.com");
  // Indexes rebuilt against the new order.
  ASSERT_EQ(db.by_fqdn("b.example.com").size(), 1u);
  EXPECT_EQ(db.by_fqdn("b.example.com")[0], 1u);
  EXPECT_EQ(db.by_server_port(443).size(), 2u);
}

// ------------------------------------------------- lifecycle supervision

TEST(Supervisor, WatchdogFiresOnQuiescenceWithPendingWork) {
  obs::HeartbeatBoard board;
  board.add_stage("dispatch");
  board.add_stage("shard-0");
  std::mutex mu;
  std::condition_variable cv;
  std::optional<pipeline::StallDiagnostic> seen;
  pipeline::WatchdogConfig config;
  config.timeout = util::Duration::millis(50);
  config.poll = util::Duration::millis(10);
  config.pending = [](std::string& what) {
    what = "frames queued in shard rings";
    return true;  // work is always pending, and nothing ever beats
  };
  config.on_stall = [&](const pipeline::StallDiagnostic& diagnostic) {
    std::lock_guard<std::mutex> lock{mu};
    seen = diagnostic;
    cv.notify_one();
  };
  pipeline::Watchdog watchdog{board, config};
  {
    std::unique_lock<std::mutex> lock{mu};
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return seen.has_value(); }));
  }
  watchdog.stop();
  EXPECT_TRUE(watchdog.stalled());
  ASSERT_EQ(seen->stages.size(), 2u);
  EXPECT_EQ(seen->stages[0].name, "dispatch");
  EXPECT_EQ(seen->pending, "frames queued in shard rings");
  EXPECT_GE(seen->stalled_for.total_micros(), 50'000);
  // The rendering names the stages and the pending condition, and ships
  // the flight-recorder excerpt so a stall report is actionable on its
  // own (the forensic contract of docs/observability.md).
  const std::string text = seen->to_string();
  EXPECT_NE(text.find("shard-0"), std::string::npos);
  EXPECT_NE(text.find("frames queued"), std::string::npos);
  EXPECT_FALSE(seen->trace_excerpt.empty());
  EXPECT_NE(text.find("trace excerpt"), std::string::npos);
}

TEST(Supervisor, WatchdogStaysQuietWhenIdleOrBeating) {
  obs::HeartbeatBoard board;
  const auto stage = board.add_stage("worker");
  std::atomic<bool> fired{false};
  std::atomic<bool> pending{false};

  pipeline::WatchdogConfig config;
  config.timeout = util::Duration::millis(40);
  config.poll = util::Duration::millis(10);
  config.pending = [&](std::string&) { return pending.load(); };
  config.on_stall = [&](const pipeline::StallDiagnostic&) { fired = true; };
  pipeline::Watchdog watchdog{board, config};

  // Idle (nothing pending): quiescence is not a stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(fired.load());

  // Pending but beating: progress resets the clock.
  pending = true;
  for (int i = 0; i < 12; ++i) {
    board.beat(stage);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  watchdog.stop();
  EXPECT_FALSE(fired.load());
  EXPECT_FALSE(watchdog.stalled());
}

TEST(Supervisor, DrainFlagRoundTrip) {
  pipeline::reset_drain_flag();
  EXPECT_FALSE(pipeline::drain_requested());
  pipeline::request_drain();
  EXPECT_TRUE(pipeline::drain_requested());
  pipeline::reset_drain_flag();
  EXPECT_FALSE(pipeline::drain_requested());
}

TEST(Supervisor, DrainCheckStopsIngestionThroughTheNormalPath) {
  // A pipeline whose drain_check trips after the first frames must still
  // deliver a merged (partial) window through finish(), not hang or drop
  // the sink.
  auto profile = trafficgen::profile_eu1_ftth();
  profile.name = "drain-test";
  profile.duration = util::Duration::minutes(5);
  profile.n_clients = 8;
  trafficgen::Simulator sim{profile};
  const auto dir = fs::temp_directory_path() /
                   ("dnh_drain_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string pcap = (dir / "drain.pcap").string();
  ASSERT_TRUE(sim.write_pcap(pcap));

  std::atomic<std::uint64_t> frames{0};
  pipeline::PipelineConfig config;
  config.shards = 2;
  config.drain_check = [&] { return frames.fetch_add(1) > 200; };
  std::size_t windows = 0;
  {
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&&) { ++windows; }};
    EXPECT_TRUE(analyzer.process_pcap(pcap));
    analyzer.finish();
    EXPECT_EQ(windows, 1u);
    // Dispatch stopped early: far fewer frames than the capture holds.
    EXPECT_LT(analyzer.stats().frames_dispatched, 100'000u);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------ metrics/stats parity

TEST_F(PipelineTest, MetricsSnapshotMatchesStatsAfterShardedChaosRun) {
  // The metrics a monitoring agent scrapes and the stats the CLI prints
  // come from different plumbing (registry counters vs struct fields);
  // after a sharded run over a damaged capture they must tell the same
  // story, or one of them is lying.
  obs::Registry::global().reset();

  faultinject::FileFaultConfig file_faults;
  file_faults.seed = 7;
  file_faults.garbage_run_rate = 0.002;
  file_faults.length_lie_rate = 0.001;
  file_faults.truncate_tail = true;
  const std::string chaos_path = (dir_ / "chaos_metrics.pcap").string();
  const auto report =
      faultinject::corrupt_pcap_file(pcap_path_, chaos_path, file_faults);
  ASSERT_TRUE(report.has_value());
  ASSERT_GT(report->faults(), 0u);

  pipeline::PipelineConfig config;
  config.shards = 4;
  config.sniffer.resync_capture = true;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  ASSERT_TRUE(analyzer.process_pcap(chaos_path));
  analyzer.finish();

  const pipeline::PipelineStats& stats = analyzer.stats();
  const core::SnifferStats& sniff = stats.merged;
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const auto family_sum = [&](const std::string& prefix) {
    std::uint64_t sum = 0;
    for (const auto& [name, value] : snap.counters)
      if (name.rfind(prefix, 0) == 0) sum += value;
    return sum;
  };

  // SnifferStats (merged across shards) vs counters.
  EXPECT_EQ(counter("dnh_frames_total"), sniff.frames);
  EXPECT_EQ(family_sum("dnh_decode_errors_total"), sniff.decode_failures);
  EXPECT_EQ(counter("dnh_dns_responses_total"), sniff.dns_responses);
  EXPECT_EQ(family_sum("dnh_dns_parse_errors_total"),
            sniff.dns_parse_failures);
  EXPECT_EQ(counter("dnh_dns_queries_total"), sniff.dns_queries);
  EXPECT_EQ(counter("dnh_dns_tcp_messages_total"), sniff.dns_tcp_messages);
  EXPECT_EQ(counter("dnh_flows_exported_total"), sniff.flows_exported);
  EXPECT_EQ(counter("dnh_flows_tagged_start_total"),
            sniff.flows_tagged_at_start);
  EXPECT_EQ(counter("dnh_flows_tagged_late_total"),
            sniff.flows_tagged_at_export);

  // PipelineStats vs counters.
  EXPECT_EQ(counter("dnh_pipeline_frames_dispatched_total"),
            stats.frames_dispatched);
  EXPECT_EQ(counter("dnh_pipeline_frames_dropped_total"),
            stats.frames_dropped);
  EXPECT_EQ(counter("dnh_pipeline_windows_merged_total"),
            stats.windows_merged);

  // Capture corruption (the chaos actually hit) vs the pcap counters.
  EXPECT_GT(sniff.degradation.capture_resyncs, 0u);
  EXPECT_EQ(counter("dnh_pcap_resyncs_total"),
            sniff.degradation.capture_resyncs);
  EXPECT_EQ(counter("dnh_pcap_bytes_skipped_total"),
            sniff.degradation.capture_bytes_skipped);
  EXPECT_EQ(counter("dnh_pcap_truncated_tails_total"),
            sniff.degradation.capture_truncated_tails);
}

// ------------------------------------------------ causal window tracing

TEST_F(PipelineTest, WindowLifecycleLeavesCausalTraceChain) {
  // Every rotated window must leave a dispatched -> sealed -> ingested ->
  // emitted chain in the flight recorder, all stamped with the same
  // WindowTraceId (the window sequence number). Only events recorded
  // after t0 count — the global recorder also holds earlier tests' runs.
  auto& recorder = obs::FlightRecorder::global();
  recorder.set_enabled(true);
  const std::uint64_t t0 = recorder.now_ns();

  pipeline::PipelineConfig config;
  config.shards = 2;
  config.window = util::Duration::minutes(10);
  std::size_t windows = 0;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&&) { ++windows; }};
  for (const auto& frame : *frames_)
    analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();
  ASSERT_GE(windows, 4u);

  std::map<std::uint64_t, std::set<obs::TraceKind>> by_seq;
  std::uint64_t max_emitted = 0;
  for (const auto& thread : recorder.snapshot()) {
    for (const auto& event : thread.events) {
      if (event.ts_ns < t0 || event.seq == obs::kNoSeq) continue;
      by_seq[event.seq].insert(event.kind);
      if (event.kind == obs::TraceKind::kWindowEmitted)
        max_emitted = std::max(max_emitted, event.seq);
    }
  }
  // The final (partial) window is sealed by shutdown, not by a rotation
  // broadcast, so the full four-stage chain is asserted for the rotated
  // windows only.
  for (std::uint64_t seq = 0; seq + 1 < windows; ++seq) {
    const auto& kinds = by_seq[seq];
    EXPECT_TRUE(kinds.count(obs::TraceKind::kWindowDispatched)) << seq;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kWindowSealed)) << seq;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kMergeIngested)) << seq;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kWindowEmitted)) << seq;
  }
  EXPECT_EQ(max_emitted, windows - 1);  // every window reached the sink
}

TEST(Canonicalize, OrdersDnsEventsByTimeThenClientThenName) {
  std::vector<core::DnsEvent> log;
  const auto client_a = net::Ipv4Address(1);
  const auto client_b = net::Ipv4Address(2);
  log.push_back({util::Timestamp::from_seconds(5), client_b, "z.com", {}});
  log.push_back({util::Timestamp::from_seconds(5), client_a, "z.com", {}});
  log.push_back({util::Timestamp::from_seconds(5), client_a, "a.com", {}});
  log.push_back({util::Timestamp::from_seconds(1), client_b, "m.com", {}});
  pipeline::canonicalize(log);
  EXPECT_EQ(log[0].fqdn, "m.com");
  EXPECT_EQ(log[1].fqdn, "a.com");
  EXPECT_EQ(log[2].fqdn, "z.com");
  EXPECT_EQ(log[2].client, client_a);
  EXPECT_EQ(log[3].client, client_b);
}

}  // namespace
}  // namespace dnh
