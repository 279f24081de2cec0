// Tests for the flow-export ingest subsystem: the NetFlow-v5/IPFIX-lite
// codec (round-trip, bounded template cache, typed errors), the DNHX
// datagram container, record orientation, the sniffer's record-derived
// flow merge, the pcap-vs-export differential tagging contract, rotated
// multi-capture ingest, and chaos degradation for every export fault
// mode (docs/flow-export.md).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/flowdb_io.hpp"
#include "core/sniffer.hpp"
#include "faultinject/faultinject.hpp"
#include "flowexport/orient.hpp"
#include "flowexport/stream.hpp"
#include "flowexport/wire.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/source.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"
#include "util/rng.hpp"

namespace dnh {
namespace {

namespace fs = std::filesystem;

using flowexport::ExportDecoder;
using flowexport::ExportEncoder;
using flowexport::ExportFormat;
using flowexport::ExportParseError;
using flowexport::ExportRecord;

// --------------------------------------------------------------- wire codec

/// `n` random records with ms-precision timestamps in non-decreasing
/// `last` order (the encoder's contract). Values stay within NetFlow v5's
/// 32-bit counters so the same battery round-trips both formats.
std::vector<ExportRecord> random_records(int n, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<ExportRecord> records;
  records.reserve(static_cast<std::size_t>(n));
  std::int64_t last_ms = 1'301'616'000'000LL;  // the trafficgen epoch
  for (int i = 0; i < n; ++i) {
    ExportRecord r;
    r.src_ip = net::Ipv4Address{static_cast<std::uint32_t>(
        rng.uniform(0x0a000001, 0x0affffff))};
    r.dst_ip = net::Ipv4Address{static_cast<std::uint32_t>(
        rng.uniform(0xcb000001, 0xcbffffff))};
    r.src_port = static_cast<std::uint16_t>(rng.uniform(1, 65535));
    r.dst_port = static_cast<std::uint16_t>(rng.uniform(1, 65535));
    r.protocol = rng.chance(0.8) ? 6 : 17;
    r.tcp_flags = static_cast<std::uint8_t>(rng.uniform(0, 0x3f));
    r.packets = rng.uniform(1, 1'000'000);
    r.bytes = rng.uniform(40, 1'000'000'000);
    last_ms += static_cast<std::int64_t>(rng.uniform(0, 2'000));
    const std::int64_t first_ms =
        last_ms - static_cast<std::int64_t>(rng.uniform(0, 600'000));
    r.first = util::Timestamp::from_micros(first_ms * 1000);
    r.last = util::Timestamp::from_micros(last_ms * 1000);
    records.push_back(r);
  }
  return records;
}

std::vector<ExportRecord> decode_all(
    const std::vector<flowexport::ExportDatagram>& datagrams,
    ExportDecoder& decoder) {
  std::vector<ExportRecord> out;
  for (const auto& d : datagrams) {
    decoder.on_datagram(net::BytesView{d.payload.data(), d.payload.size()},
                        out);
  }
  return out;
}

void expect_records_equal(const std::vector<ExportRecord>& a,
                          const std::vector<ExportRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_ip, b[i].src_ip) << "record " << i;
    EXPECT_EQ(a[i].dst_ip, b[i].dst_ip) << "record " << i;
    EXPECT_EQ(a[i].src_port, b[i].src_port) << "record " << i;
    EXPECT_EQ(a[i].dst_port, b[i].dst_port) << "record " << i;
    EXPECT_EQ(a[i].protocol, b[i].protocol) << "record " << i;
    EXPECT_EQ(a[i].tcp_flags, b[i].tcp_flags) << "record " << i;
    EXPECT_EQ(a[i].packets, b[i].packets) << "record " << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << "record " << i;
    EXPECT_EQ(a[i].first.micros_since_epoch(), b[i].first.micros_since_epoch())
        << "record " << i;
    EXPECT_EQ(a[i].last.micros_since_epoch(), b[i].last.micros_since_epoch())
        << "record " << i;
  }
}

TEST(FlowExportWire, V5RoundTripPreservesEveryField) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    const auto records = random_records(500, seed);
    flowexport::EncoderConfig config;
    config.format = ExportFormat::kV5;
    ExportEncoder encoder{config};
    for (const auto& r : records) encoder.add(r);
    encoder.flush();
    const auto datagrams = encoder.take_datagrams();
    // 500 records at <= 30/datagram: at least 17 datagrams.
    EXPECT_GE(datagrams.size(), 17u) << "seed " << seed;

    ExportDecoder decoder;
    const auto decoded = decode_all(datagrams, decoder);
    expect_records_equal(decoded, records);
    EXPECT_EQ(decoder.stats().records_v5, records.size());
    EXPECT_EQ(decoder.stats().parse_errors(), 0u);
  }
}

TEST(FlowExportWire, IpfixRoundTripPreservesEveryField) {
  for (const std::uint64_t seed : {2u, 9u, 99u}) {
    const auto records = random_records(500, seed);
    flowexport::EncoderConfig config;
    config.format = ExportFormat::kIpfix;
    ExportEncoder encoder{config};
    for (const auto& r : records) encoder.add(r);
    encoder.flush();
    const auto datagrams = encoder.take_datagrams();

    ExportDecoder decoder;
    const auto decoded = decode_all(datagrams, decoder);
    expect_records_equal(decoded, records);
    EXPECT_EQ(decoder.stats().records_ipfix, records.size());
    EXPECT_EQ(decoder.stats().parse_errors(), 0u);
    EXPECT_GE(decoder.stats().templates_added, 1u);
  }
}

TEST(FlowExportWire, ExportTimesAreMonotoneAndDelayed) {
  const auto records = random_records(100, 3);
  ExportEncoder encoder;
  for (const auto& r : records) encoder.add(r);
  encoder.flush();
  const auto datagrams = encoder.take_datagrams();
  util::Timestamp prev;
  for (const auto& d : datagrams) {
    EXPECT_GE(d.export_time.micros_since_epoch(), prev.micros_since_epoch());
    prev = d.export_time;
  }
  // The last datagram leaves after its newest record expired.
  EXPECT_EQ(datagrams.back().export_time.micros_since_epoch(),
            (records.back().last + flowexport::kExportDelay)
                .micros_since_epoch());
}

TEST(FlowExportWire, TemplateCacheIsBoundedWithFifoEviction) {
  flowexport::DecoderConfig config;
  config.template_cache_capacity = 4;
  ExportDecoder decoder{config};

  // Ten observation domains, each announcing its own template.
  std::vector<std::vector<flowexport::ExportDatagram>> streams;
  for (std::uint32_t domain = 1; domain <= 10; ++domain) {
    flowexport::EncoderConfig enc_config;
    enc_config.format = ExportFormat::kIpfix;
    enc_config.observation_domain = domain;
    ExportEncoder encoder{enc_config};
    for (const auto& r : random_records(5, domain)) encoder.add(r);
    encoder.flush();
    streams.push_back(encoder.take_datagrams());
  }
  for (const auto& stream : streams) decode_all(stream, decoder);

  EXPECT_LE(decoder.template_cache_size(), 4u);
  EXPECT_EQ(decoder.stats().templates_added, 10u);
  EXPECT_EQ(decoder.stats().templates_evicted, 6u);

  // Domain 1's template was evicted: its data sets are now undecodable,
  // counted as typed degradation — and nothing crashes.
  std::vector<ExportRecord> out;
  const auto& replay = streams.front();
  for (std::size_t i = 1; i < replay.size(); ++i) {
    decoder.on_datagram(net::BytesView{replay[i].payload.data(),
                                       replay[i].payload.size()},
                        out);
  }
  if (replay.size() > 1) {
    EXPECT_TRUE(out.empty());
    EXPECT_GT(decoder.stats().errors[static_cast<std::size_t>(
                  ExportParseError::kUnknownTemplate)],
              0u);
  }
}

TEST(FlowExportWire, TemplateRefreshResynchronizesLateJoiners) {
  // One record per datagram, template re-announced every 4 datagrams:
  // losing the opening datagram costs exactly the records before the
  // first refresh, no more.
  flowexport::EncoderConfig config;
  config.format = ExportFormat::kIpfix;
  config.max_records_per_datagram = 1;
  config.template_refresh_interval = 4;
  ExportEncoder encoder{config};
  const auto records = random_records(9, 5);
  for (const auto& r : records) encoder.add(r);
  encoder.flush();
  const auto datagrams = encoder.take_datagrams();
  ASSERT_EQ(datagrams.size(), 9u);

  ExportDecoder decoder;
  std::vector<ExportRecord> out;
  for (std::size_t i = 1; i < datagrams.size(); ++i) {  // drop datagram 0
    decoder.on_datagram(net::BytesView{datagrams[i].payload.data(),
                                       datagrams[i].payload.size()},
                        out);
  }
  // Datagrams 1-3 are lost to the missing template; 4 carries a refresh.
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(decoder.stats().errors[static_cast<std::size_t>(
                ExportParseError::kUnknownTemplate)],
            3u);
  expect_records_equal(
      out, {records.begin() + 4, records.end()});
}

TEST(FlowExportWire, TypedErrorsForDamagedDatagrams) {
  ExportDecoder decoder;
  std::vector<ExportRecord> out;

  // Too short to carry any header.
  const net::Bytes stub{0x00, 0x05, 0x00};
  EXPECT_EQ(decoder.on_datagram(net::BytesView{stub.data(), stub.size()}, out),
            ExportParseError::kTruncated);

  // NetFlow v9 is neither v5 nor IPFIX.
  net::Bytes v9(24, 0);
  v9[1] = 9;
  EXPECT_EQ(decoder.on_datagram(net::BytesView{v9.data(), v9.size()}, out),
            ExportParseError::kBadVersion);

  // A v5 header whose count promises more records than the bytes hold.
  ExportEncoder encoder;
  encoder.add(random_records(1, 8)[0]);
  encoder.flush();
  auto datagrams = encoder.take_datagrams();
  ASSERT_EQ(datagrams.size(), 1u);
  net::Bytes lying = datagrams[0].payload;
  lying[2] = 0;
  lying[3] = 7;  // claims 7 records; only 1 is present
  EXPECT_EQ(
      decoder.on_datagram(net::BytesView{lying.data(), lying.size()}, out),
      ExportParseError::kCountLie);

  EXPECT_EQ(decoder.stats().parse_errors(), 3u);
  // The count lie still salvages the one whole record in front of the lie:
  // records decoded before the error are kept.
  EXPECT_EQ(out.size(), 1u);
}

TEST(FlowExportWire, EveryParseErrorKindHasAName) {
  for (std::size_t i = 0; i < flowexport::kExportParseErrorKinds; ++i) {
    const auto name =
        flowexport::export_parse_error_name(static_cast<ExportParseError>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
  }
}

// ----------------------------------------------------------- DNHX container

class FlowExportStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dnh_flowexport_stream_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

TEST_F(FlowExportStreamTest, WriterReaderRoundTrip) {
  const std::string p = path("stream.dnhx");
  std::vector<flowexport::Datagram> written;
  {
    flowexport::DatagramWriter writer;
    ASSERT_TRUE(writer.create(p));
    util::Rng rng{12};
    for (int i = 0; i < 64; ++i) {
      flowexport::Datagram d;
      d.arrival = util::Timestamp::from_micros(1'000'000 + i * 1000);
      d.payload.resize(rng.uniform(1, 400));
      for (auto& byte : d.payload)
        byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
      ASSERT_TRUE(writer.write(
          d.arrival, net::BytesView{d.payload.data(), d.payload.size()}));
      written.push_back(std::move(d));
    }
    ASSERT_TRUE(writer.close());
    EXPECT_EQ(writer.datagrams_written(), 64u);
  }
  flowexport::DatagramReader reader;
  ASSERT_TRUE(reader.open(p));
  flowexport::Datagram d;
  std::size_t i = 0;
  while (reader.next(d)) {
    ASSERT_LT(i, written.size());
    EXPECT_EQ(d.arrival.micros_since_epoch(),
              written[i].arrival.micros_since_epoch());
    EXPECT_EQ(d.payload, written[i].payload);
    ++i;
  }
  EXPECT_EQ(i, written.size());
  EXPECT_TRUE(reader.error().empty());
  EXPECT_EQ(reader.corruption().total(), 0u);
}

TEST_F(FlowExportStreamTest, TruncatedTailIsCountedNotFatal) {
  const std::string p = path("tail.dnhx");
  {
    flowexport::DatagramWriter writer;
    ASSERT_TRUE(writer.create(p));
    const net::Bytes payload(100, 0x55);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer.write(
          util::Timestamp::from_micros(i),
          net::BytesView{payload.data(), payload.size()}));
    }
    ASSERT_TRUE(writer.close());
  }
  // Chop mid-record: the final record's payload loses its last 30 bytes.
  fs::resize_file(p, fs::file_size(p) - 30);

  flowexport::DatagramReader reader;
  ASSERT_TRUE(reader.open(p));
  flowexport::Datagram d;
  std::size_t n = 0;
  while (reader.next(d)) ++n;
  EXPECT_EQ(n, 9u);
  EXPECT_TRUE(reader.error().empty());
  EXPECT_EQ(reader.corruption().truncated_tails, 1u);
}

// -------------------------------------------------------------- orientation

flowexport::ExportRecord make_record(std::uint32_t src_ip,
                                     std::uint16_t src_port,
                                     std::uint32_t dst_ip,
                                     std::uint16_t dst_port,
                                     std::int64_t first_seconds = 100) {
  flowexport::ExportRecord r;
  r.src_ip = net::Ipv4Address{src_ip};
  r.dst_ip = net::Ipv4Address{dst_ip};
  r.src_port = src_port;
  r.dst_port = dst_port;
  r.packets = 1;
  r.bytes = 40;
  r.first = util::Timestamp::from_seconds(first_seconds);
  r.last = r.first + util::Duration::seconds(1);
  return r;
}

TEST(FlowExportOrient, WellKnownPortIsTheServer) {
  flowexport::RecordOrienter orienter;
  const auto c2s = orienter.orient(make_record(0x0a000001, 50000,
                                               0xcb000001, 80));
  EXPECT_TRUE(c2s.from_client);
  EXPECT_EQ(c2s.key.client_ip, net::Ipv4Address{0x0a000001});
  EXPECT_EQ(c2s.key.server_port, 80);
  const auto s2c = orienter.orient(make_record(0xcb000001, 80,
                                               0x0a000001, 50000));
  EXPECT_FALSE(s2c.from_client);
  EXPECT_EQ(s2c.key, c2s.key);
}

TEST(FlowExportOrient, EphemeralPortIsTheClient) {
  flowexport::RecordOrienter orienter;
  // 8080 is neither well-known nor ephemeral; 51000 is ephemeral.
  const auto s2c = orienter.orient(make_record(0xcb000002, 8080,
                                               0x0a000002, 51000));
  EXPECT_FALSE(s2c.from_client);
  EXPECT_EQ(s2c.key.client_ip, net::Ipv4Address{0x0a000002});
  EXPECT_EQ(s2c.key.server_port, 8080);
}

TEST(FlowExportOrient, AmbiguousPairPinsFirstRecordSourceAsClient) {
  flowexport::RecordOrienter orienter;
  // Both ports in the registered range: no structural signal.
  const auto first = orienter.orient(make_record(0x0a000003, 8000,
                                                 0xcb000003, 9000));
  EXPECT_TRUE(first.from_client);
  EXPECT_EQ(first.key.client_ip, net::Ipv4Address{0x0a000003});
  const auto reply = orienter.orient(make_record(0xcb000003, 9000,
                                                 0x0a000003, 8000));
  EXPECT_FALSE(reply.from_client);
  EXPECT_EQ(reply.key, first.key);
}

TEST(FlowExportOrient, IdlePairIsReinferredFromScratch) {
  flowexport::RecordOrienter orienter;
  const auto a = orienter.orient(make_record(0x0a000004, 8000,
                                             0xcb000004, 9000, 100));
  EXPECT_EQ(a.key.client_ip, net::Ipv4Address{0x0a000004});
  // Ten minutes later (past the 5-minute idle timeout) the pair returns
  // with the other side leading: a fresh pin, exactly where the flow
  // table would also have split the flow.
  const auto b = orienter.orient(make_record(0xcb000004, 9000,
                                             0x0a000004, 8000, 700));
  EXPECT_TRUE(b.from_client);
  EXPECT_EQ(b.key.client_ip, net::Ipv4Address{0xcb000004});
}

// ------------------------------------------------- sniffer record ingest

flow::OrientedRecord oriented(std::uint32_t client,
                                    std::uint32_t server,
                                    bool from_client,
                                    std::int64_t first_seconds,
                                    std::uint64_t packets,
                                    std::uint64_t bytes) {
  flow::OrientedRecord r;
  r.key.client_ip = net::Ipv4Address{client};
  r.key.server_ip = net::Ipv4Address{server};
  r.key.client_port = 50000;
  r.key.server_port = 443;
  r.key.transport = flow::Transport::kTcp;
  r.from_client = from_client;
  r.packets = packets;
  r.bytes = bytes;
  r.tcp_flags = 0x1b;
  r.first = util::Timestamp::from_seconds(first_seconds);
  r.last = r.first + util::Duration::seconds(2);
  return r;
}

TEST(FlowExportSniffer, DirectionalRecordsMergeIntoOneFlow) {
  core::Sniffer sniffer;
  const auto arrival = util::Timestamp::from_seconds(110);
  sniffer.on_export_record(oriented(0x0a000001, 0xcb000001, true, 100, 7,
                                    700),
                           arrival);
  sniffer.on_export_record(oriented(0x0a000001, 0xcb000001, false, 100, 11,
                                    11'000),
                           arrival);
  sniffer.finish();
  EXPECT_EQ(sniffer.stats().export_records, 2u);
  EXPECT_EQ(sniffer.stats().flows_exported, 1u);
  const auto db = sniffer.take_database();
  ASSERT_EQ(db.size(), 1u);
  const auto& flow = db.flows()[0];
  EXPECT_EQ(flow.packets_c2s, 7u);
  EXPECT_EQ(flow.bytes_c2s, 700u);
  EXPECT_EQ(flow.packets_s2c, 11u);
  EXPECT_EQ(flow.bytes_s2c, 11'000u);
}

TEST(FlowExportSniffer, IdleGapSplitsTheKeyIntoTwoFlows) {
  core::Sniffer sniffer;
  sniffer.on_export_record(oriented(0x0a000002, 0xcb000002, true, 100, 1, 40),
                           util::Timestamp::from_seconds(103));
  // Same 5-tuple, ten minutes later: a new flow, exactly as the packet
  // path's flow table would split on its idle timeout.
  sniffer.on_export_record(oriented(0x0a000002, 0xcb000002, true, 700, 1, 40),
                           util::Timestamp::from_seconds(703));
  sniffer.finish();
  EXPECT_EQ(sniffer.stats().flows_exported, 2u);
}

TEST(FlowExportSniffer, FinAndRstRecordsDoNotCloseTheFlow) {
  // An exporter ORs every packet's flags into one byte per record, and a
  // long flow reaches the collector in slices: a FIN or RST in one slice
  // says nothing about the slices still to come.
  core::Sniffer sniffer;
  int starts = 0;
  sniffer.set_flow_start_hook(
      [&](const flow::FlowRecord& flow, std::string_view) {
        ++starts;
        EXPECT_EQ(flow.packets_c2s, 5u);  // the first record, merged
      });
  const auto arrival = util::Timestamp::from_seconds(110);
  // oriented() sets FIN|SYN|PSH|ACK: both sides have sent a FIN.
  sniffer.on_export_record(oriented(0x0a000003, 0xcb000003, true, 100, 5,
                                    500),
                           arrival);
  sniffer.on_export_record(oriented(0x0a000003, 0xcb000003, false, 100, 6,
                                    600),
                           arrival);
  auto rst = oriented(0x0a000003, 0xcb000003, false, 101, 1, 40);
  rst.tcp_flags = 0x14;  // RST|ACK
  sniffer.on_export_record(rst, arrival);
  // A minute on, well inside the five-minute idle timeout.
  sniffer.on_export_record(oriented(0x0a000003, 0xcb000003, true, 160, 2,
                                    200),
                           util::Timestamp::from_seconds(170));
  EXPECT_EQ(sniffer.stats().flows_exported, 0u);
  sniffer.finish();
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(sniffer.stats().flows_exported, 1u);
  const auto db = sniffer.take_database();
  ASSERT_EQ(db.size(), 1u);
  const auto& flow = db.flows()[0];
  EXPECT_EQ(flow.packets_c2s, 7u);
  EXPECT_EQ(flow.bytes_c2s, 700u);
  EXPECT_EQ(flow.packets_s2c, 7u);
  EXPECT_EQ(flow.bytes_s2c, 640u);
  EXPECT_EQ(flow.first_packet, util::Timestamp::from_seconds(100));
  EXPECT_EQ(flow.last_packet, util::Timestamp::from_seconds(162));
}

TEST(FlowExportSniffer, DnsOnlyModeKeepsPacketsOutOfTheFlowTable) {
  core::SnifferConfig config;
  config.dns_only = true;
  core::Sniffer sniffer{config};
  // An undecodable stub frame must not abort, and no packet-derived flow
  // may appear even if frames carry TCP (none do here).
  const net::Bytes junk{0xde, 0xad, 0xbe, 0xef};
  sniffer.on_frame(junk, util::Timestamp::from_seconds(1));
  sniffer.finish();
  EXPECT_EQ(sniffer.take_database().size(), 0u);
}

// ----------------------------------------- differential pcap-vs-export

trafficgen::TraceProfile world_profile() {
  auto p = trafficgen::profile_eu1_ftth();
  p.name = "flowexport";
  p.duration = util::Duration::minutes(20);
  p.n_clients = 30;
  return p;
}

/// Canonicalized result of one ingestion run, whichever source fed it.
struct RunResult {
  core::FlowDatabase db;
  core::SnifferStats stats;
};

/// (client, server, server_port, tag) rows — the acceptance-criteria view
/// of a tagged-flow table. Sorted, so multiset comparison is EXPECT_EQ.
std::vector<std::string> tag_rows(const core::FlowDatabase& db) {
  std::vector<std::string> rows;
  rows.reserve(db.size());
  for (const auto& flow : db.flows()) {
    rows.push_back(flow.key.client_ip.to_string() + "|" +
                   flow.key.server_ip.to_string() + "|" +
                   std::to_string(flow.key.server_port) + "|" +
                   std::string{flow.fqdn});
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

double labeled_fraction(const core::FlowDatabase& db) {
  if (db.size() == 0) return 0.0;
  std::uint64_t labeled = 0;
  for (const auto& flow : db.flows()) labeled += flow.labeled();
  return static_cast<double>(labeled) / static_cast<double>(db.size());
}

std::string tsv(const core::FlowDatabase& db) {
  std::ostringstream out;
  core::write_flow_tsv(db, out);
  return out.str();
}

/// Runs the export-stream front-end against the sharded pipeline, the way
/// `dnhunter --flow-export` does: records carry the flows, the capture
/// carries the DNS.
RunResult run_export_path(const std::string& stream, const std::string& pcap,
                          std::size_t jobs, bool* ok = nullptr,
                          flowexport::ExportDecoderStats* decoder_stats =
                              nullptr) {
  pipeline::PipelineConfig config;
  config.shards = jobs;
  config.sniffer.dns_only = true;
  RunResult result;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& window) {
        // add() re-interns each flow's fqdn view into result.db's table.
        for (auto& flow : window.db.take_flows())
          result.db.add(std::move(flow));
      }};
  pipeline::ExportStreamSource source{stream, pcap};
  const bool ran = source.run(analyzer);
  analyzer.finish();
  if (ok)
    *ok = ran;
  else
    EXPECT_TRUE(ran) << source.error();
  if (decoder_stats) *decoder_stats = source.decoder_stats();
  result.stats = analyzer.stats().merged;
  pipeline::canonicalize(result.db);
  return result;
}

class FlowExportDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new fs::path{fs::temp_directory_path() /
                        ("dnh_flowexport_diff_" + std::to_string(::getpid()))};
    fs::create_directories(*dir_);
    trafficgen::Simulator sim{world_profile()};
    pcap_path_ = new std::string{(*dir_ / "world.pcap").string()};
    v5_path_ = new std::string{(*dir_ / "world.v5.dnhx").string()};
    ipfix_path_ = new std::string{(*dir_ / "world.ipfix.dnhx").string()};
    ASSERT_TRUE(sim.write_pcap(*pcap_path_));
    const auto v5 = sim.write_flow_export(*v5_path_, ExportFormat::kV5);
    ASSERT_TRUE(v5);
    ASSERT_GT(v5->flows, 100u);
    EXPECT_EQ(v5->records, v5->flows * 2);
    const auto ipfix = sim.write_flow_export(*ipfix_path_,
                                             ExportFormat::kIpfix);
    ASSERT_TRUE(ipfix);
    EXPECT_EQ(ipfix->records, v5->records);

    // The packet-path reference: the plain single-threaded sniffer.
    core::Sniffer sniffer;
    ASSERT_TRUE(sniffer.process_pcap(*pcap_path_));
    sniffer.finish();
    baseline_ = new RunResult;
    baseline_->stats = sniffer.stats();
    baseline_->db = sniffer.take_database();
    pipeline::canonicalize(baseline_->db);
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete ipfix_path_;
    delete v5_path_;
    delete pcap_path_;
    fs::remove_all(*dir_);
    delete dir_;
  }

  static fs::path* dir_;
  static std::string* pcap_path_;
  static std::string* v5_path_;
  static std::string* ipfix_path_;
  static RunResult* baseline_;
};

fs::path* FlowExportDifferentialTest::dir_ = nullptr;
std::string* FlowExportDifferentialTest::pcap_path_ = nullptr;
std::string* FlowExportDifferentialTest::v5_path_ = nullptr;
std::string* FlowExportDifferentialTest::ipfix_path_ = nullptr;
RunResult* FlowExportDifferentialTest::baseline_ = nullptr;

TEST_F(FlowExportDifferentialTest, V5TagsMatchThePcapPath) {
  const RunResult exported = run_export_path(*v5_path_, *pcap_path_, 1);
  EXPECT_EQ(exported.stats.export_records, baseline_->db.size() * 2);
  EXPECT_EQ(tag_rows(exported.db), tag_rows(baseline_->db));
}

TEST_F(FlowExportDifferentialTest, IpfixTagsMatchThePcapPath) {
  const RunResult exported = run_export_path(*ipfix_path_, *pcap_path_, 1);
  EXPECT_EQ(tag_rows(exported.db), tag_rows(baseline_->db));
}

TEST_F(FlowExportDifferentialTest, ShardCountIsInvisibleOnTheRecordPath) {
  const RunResult one = run_export_path(*v5_path_, *pcap_path_, 1);
  const RunResult four = run_export_path(*v5_path_, *pcap_path_, 4);
  EXPECT_EQ(tsv(four.db), tsv(one.db));
  EXPECT_EQ(four.stats.export_records, one.stats.export_records);
  EXPECT_EQ(tag_rows(four.db), tag_rows(baseline_->db));
}

TEST_F(FlowExportDifferentialTest, ExportWithoutDnsLeavesFlowsUntagged) {
  const RunResult blind = run_export_path(*v5_path_, "", 1);
  EXPECT_EQ(blind.db.size(), baseline_->db.size());
  EXPECT_EQ(labeled_fraction(blind.db), 0.0);
}

// ------------------------------------------------- rotated multi-capture

TEST_F(FlowExportDifferentialTest, RotatedCaptureDirMatchesSingleFile) {
  // Split the world capture into three rotation files (connections span
  // the cut points) and replay the directory; the result must be
  // byte-identical to one pipeline run over the unsplit capture.
  std::vector<pcap::Frame> frames;
  std::string error;
  ASSERT_TRUE(pcap::read_any_capture(
      *pcap_path_, [&](const pcap::Frame& f) { frames.push_back(f); },
      error));
  ASSERT_GT(frames.size(), 1000u);

  const fs::path rotated = *dir_ / "rotated";
  fs::create_directories(rotated);
  const std::size_t third = frames.size() / 3;
  for (int part = 0; part < 3; ++part) {
    const std::string name = "world_0" + std::to_string(part) + ".pcap";
    auto writer = pcap::Writer::create((rotated / name).string());
    ASSERT_TRUE(writer);
    const std::size_t begin = static_cast<std::size_t>(part) * third;
    const std::size_t end =
        part == 2 ? frames.size() : begin + third;
    for (std::size_t i = begin; i < end; ++i) writer->write(frames[i]);
  }

  const auto run = [&](auto&& source) {
    pipeline::PipelineConfig config;
    config.shards = 2;
    core::FlowDatabase db;
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&& w) {
          for (auto& flow : w.db.take_flows()) db.add(std::move(flow));
        }};
    EXPECT_TRUE(source.run(analyzer)) << source.error();
    analyzer.finish();
    pipeline::canonicalize(db);
    return tsv(db);
  };
  pipeline::CaptureDirSource dir_source{rotated.string()};
  pipeline::PcapFileSource file_source{*pcap_path_};
  const std::string from_dir = run(dir_source);
  EXPECT_EQ(dir_source.files_replayed(), 3u);
  EXPECT_EQ(from_dir, run(file_source));
  fs::remove_all(rotated);
}

TEST(FlowExportSources, EmptyDirectoryIsATypedError) {
  const fs::path empty = fs::temp_directory_path() /
                         ("dnh_flowexport_empty_" + std::to_string(::getpid()));
  fs::create_directories(empty);
  pipeline::PipelineConfig config;
  config.shards = 1;
  pipeline::ShardedAnalyzer analyzer{config, nullptr};
  pipeline::CaptureDirSource source{empty.string()};
  EXPECT_FALSE(source.run(analyzer));
  analyzer.finish();
  EXPECT_NE(source.error().find("no capture files"), std::string::npos);
  fs::remove_all(empty);
}

// ------------------------------------------------------------------- chaos

TEST_F(FlowExportDifferentialTest, ChaosModesDegradeWithTypedStatsNotCrashes) {
  const RunResult clean = run_export_path(*ipfix_path_, *pcap_path_, 2);
  const double clean_ratio = labeled_fraction(clean.db);
  ASSERT_GT(clean_ratio, 0.5);  // the world is mostly DNS-visible

  for (std::size_t m = 0; m < faultinject::kExportFaultModeCount; ++m) {
    const auto mode = static_cast<faultinject::ExportFaultMode>(m);
    faultinject::ExportFaultConfig config;
    config.seed = 17;
    config.mode = mode;
    config.rate =
        mode == faultinject::ExportFaultMode::kTemplateLoss ? 1.0 : 0.2;
    const std::string damaged =
        (*dir_ / ("chaos-" +
                  std::string{faultinject::export_fault_mode_name(mode)} +
                  ".dnhx"))
            .string();
    const auto report =
        faultinject::corrupt_export_stream(*ipfix_path_, damaged, config);
    ASSERT_TRUE(report) << faultinject::export_fault_mode_name(mode);
    EXPECT_GT(report->faults(), 0u)
        << faultinject::export_fault_mode_name(mode);

    bool ok = false;
    flowexport::ExportDecoderStats stats;
    const RunResult chaotic =
        run_export_path(damaged, *pcap_path_, 2, &ok, &stats);
    EXPECT_TRUE(ok) << faultinject::export_fault_mode_name(mode);

    // Damage can only lose flows and tags, never invent them.
    EXPECT_LE(chaotic.db.size(), clean.db.size())
        << faultinject::export_fault_mode_name(mode);
    EXPECT_LE(labeled_fraction(chaotic.db), clean_ratio + 1e-9)
        << faultinject::export_fault_mode_name(mode);

    switch (mode) {
      case faultinject::ExportFaultMode::kTruncateDatagram:
      case faultinject::ExportFaultMode::kGarbageDatagram:
        EXPECT_GT(stats.parse_errors(), 0u)
            << faultinject::export_fault_mode_name(mode);
        break;
      case faultinject::ExportFaultMode::kReorderDatagrams:
        // Reordering damages nothing the decoder can see; the pipeline
        // absorbs the arrival-time jitter and keeps every flow and every
        // tag. (Row identity may differ for ambiguous-port peer pairs
        // whose two records straddle a swapped datagram boundary — their
        // first-seen orientation pin flips; those are never labeled.)
        EXPECT_EQ(stats.parse_errors(), 0u);
        EXPECT_EQ(chaotic.db.size(), clean.db.size());
        EXPECT_NEAR(labeled_fraction(chaotic.db), clean_ratio, 1e-9);
        break;
      case faultinject::ExportFaultMode::kTemplateLoss:
        // Every template announcement dropped: data sets are undecodable
        // and each one is accounted as kUnknownTemplate.
        EXPECT_GT(stats.errors[static_cast<std::size_t>(
                      ExportParseError::kUnknownTemplate)],
                  0u);
        break;
    }
    fs::remove(damaged);
  }
}

TEST(FlowExportChaos, TemplateLossIsANoOpOnV5) {
  // v5 has no templates; the mode must report zero faults and copy the
  // stream unchanged.
  const fs::path dir = fs::temp_directory_path() /
                       ("dnh_flowexport_v5loss_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string src = (dir / "v5.dnhx").string();
  const std::string dst = (dir / "v5.out.dnhx").string();
  {
    ExportEncoder encoder;
    for (const auto& r : random_records(50, 21)) encoder.add(r);
    encoder.flush();
    flowexport::DatagramWriter writer;
    ASSERT_TRUE(writer.create(src));
    for (const auto& d : encoder.take_datagrams()) {
      ASSERT_TRUE(writer.write(
          d.export_time, net::BytesView{d.payload.data(), d.payload.size()}));
    }
    ASSERT_TRUE(writer.close());
  }
  faultinject::ExportFaultConfig config;
  config.mode = faultinject::ExportFaultMode::kTemplateLoss;
  config.rate = 1.0;
  const auto report = faultinject::corrupt_export_stream(src, dst, config);
  ASSERT_TRUE(report);
  EXPECT_EQ(report->templates_dropped, 0u);
  EXPECT_EQ(report->datagrams_out, report->datagrams_in);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dnh
