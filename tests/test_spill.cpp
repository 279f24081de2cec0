// Tests for the sealed-window spill layer (pipeline/spill.hpp): framed
// record round-trips, torn-tail and CRC damage handling, manifest-journal
// replay (duplicates, generations, torn lines), and the deterministic
// spill corruption modes in faultinject.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/flowdb_io.hpp"
#include "core/live.hpp"
#include "faultinject/faultinject.hpp"
#include "pipeline/spill.hpp"
#include "util/crc32.hpp"

namespace dnh {
namespace {

namespace fs = std::filesystem;

core::TaggedFlow make_flow(std::uint32_t n, const char* fqdn) {
  core::TaggedFlow flow;
  flow.key.client_ip = net::Ipv4Address{0x0a000000u + n};
  flow.key.server_ip = net::Ipv4Address{0xc0a80001u};
  flow.key.client_port = static_cast<std::uint16_t>(40000 + n);
  flow.key.server_port = 443;
  flow.first_packet = util::Timestamp::from_micros(1'000'000 + n);
  flow.last_packet = util::Timestamp::from_micros(2'000'000 + n);
  flow.packets_c2s = 3 + n;
  flow.bytes_c2s = 400 + n;
  flow.protocol = flow::ProtocolClass::kTls;
  flow.fqdn = fqdn;
  return flow;
}

core::AnalysisWindow make_window(std::uint64_t seq, std::size_t flows) {
  core::AnalysisWindow window;
  window.start = util::Timestamp::from_micros(
      static_cast<std::int64_t>(seq) * 1'000'000);
  window.end = util::Timestamp::from_micros(
      static_cast<std::int64_t>(seq + 1) * 1'000'000);
  for (std::size_t i = 0; i < flows; ++i) {
    window.db.add(make_flow(static_cast<std::uint32_t>(seq * 100 + i),
                            i % 2 ? "cdn.zynga.com" : "www.example.org"));
  }
  core::DnsEvent event;
  event.time = window.start;
  event.client = net::Ipv4Address{0x0a000001u};
  event.servers = {net::Ipv4Address{0xc0a80001u},
                   net::Ipv4Address{0xc0a80002u}};
  event.fqdn_id = window.db.domain_table()->intern("cdn.zynga.com");
  event.fqdn = window.db.domain_table()->view(event.fqdn_id);
  window.dns_log.push_back(event);
  return window;
}

std::string tsv(const core::FlowDatabase& db) {
  std::ostringstream out;
  core::write_flow_tsv(db, out);
  return out.str();
}

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("dnh_spill_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             "_" + std::to_string(dirs_.size())))
               .string();
    fs::create_directories(dir_);
    dirs_.push_back(dir_);
  }
  void TearDown() override {
    for (const auto& dir : dirs_) fs::remove_all(dir);
    dirs_.clear();
  }

  pipeline::RecoveryPlan scan() const {
    return pipeline::scan_spill_dir(dir_);
  }

  /// Spills `windows` sealed windows on `shards` shards and journals each
  /// seal, mirroring the pipeline's write path (segment fsync first, then
  /// manifest append).
  void write_run(std::uint32_t shards, std::uint64_t windows,
                 bool truncate = true) {
    pipeline::ManifestJournal journal{dir_, shards, 1'000'000, truncate};
    ASSERT_TRUE(journal.ok());
    std::uint64_t seal_seq = 0;
    for (std::uint32_t shard = 0; shard < shards; ++shard) {
      pipeline::SpillWriter writer{dir_, shard, truncate};
      ASSERT_TRUE(writer.ok());
      for (std::uint64_t seq = 0; seq < windows; ++seq) {
        const auto extent = writer.append(seq, make_window(seq, 3 + shard));
        ASSERT_TRUE(extent.has_value());
        ASSERT_TRUE(journal.append_seal(seq, shard, writer.segment(),
                                        *extent, seal_seq++));
      }
    }
  }

  std::string dir_;
  std::vector<std::string> dirs_;
};

TEST_F(SpillTest, WindowRoundTripsThroughSegment) {
  const core::AnalysisWindow original = make_window(7, 5);
  pipeline::SpillExtent extent;
  {
    pipeline::SpillWriter writer{dir_, 0, /*truncate=*/true};
    ASSERT_TRUE(writer.ok());
    const auto appended = writer.append(7, original);
    ASSERT_TRUE(appended.has_value());
    extent = *appended;
    EXPECT_EQ(writer.bytes_written(), extent.length);
    EXPECT_EQ(writer.segment(), "shard-0.dnhs");
  }
  pipeline::ManifestEntry entry;
  entry.seq = 7;
  entry.segment = "shard-0.dnhs";
  entry.extent = extent;
  pipeline::RecoveryStats stats;
  const auto loaded = pipeline::load_spilled_window(dir_, entry, stats);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(stats.total_anomalies(), 0u);
  EXPECT_EQ(loaded->start.micros_since_epoch(), original.start.micros_since_epoch());
  EXPECT_EQ(loaded->end.micros_since_epoch(), original.end.micros_since_epoch());
  EXPECT_EQ(tsv(loaded->db), tsv(original.db));
  ASSERT_EQ(loaded->dns_log.size(), original.dns_log.size());
  EXPECT_EQ(loaded->dns_log[0].fqdn, original.dns_log[0].fqdn);
  EXPECT_EQ(loaded->dns_log[0].servers, original.dns_log[0].servers);
  // The loaded window carries its own table with the ids rebound.
  EXPECT_EQ(loaded->db.domain_table()->view(loaded->dns_log[0].fqdn_id),
            loaded->dns_log[0].fqdn);
}

TEST_F(SpillTest, EscapableBytesInNamesRoundTripThroughSegment) {
  // Names copied from the wire may carry any byte; a tab or newline must
  // not shift a column or split a row of the spilled record, or recovery
  // would drop the row and --resume would diverge from an uninterrupted
  // run.
  const std::vector<std::string> names = {"tab\there", "new\nline",
                                          "cr\rname", "back\\slash",
                                          "comma,name"};
  core::AnalysisWindow original;
  original.start = util::Timestamp::from_micros(0);
  original.end = util::Timestamp::from_micros(1'000'000);
  for (std::size_t i = 0; i < names.size(); ++i) {
    core::TaggedFlow flow = make_flow(static_cast<std::uint32_t>(i), "");
    flow.fqdn = names[i];
    flow.dpi_label = names[(i + 1) % names.size()];
    flow.cert_cn = names[(i + 2) % names.size()];
    flow.cert_san = {names[i], names[(i + 3) % names.size()]};
    original.db.add(std::move(flow));
    core::DnsEvent event;
    event.time = util::Timestamp::from_micros(static_cast<std::int64_t>(i));
    event.client = net::Ipv4Address{0x0a000001u};
    event.servers = {net::Ipv4Address{0xc0a80001u}};
    event.fqdn_id = original.db.domain_table()->intern(names[i]);
    event.fqdn = original.db.domain_table()->view(event.fqdn_id);
    original.dns_log.push_back(event);
  }

  pipeline::ManifestEntry entry;
  entry.seq = 0;
  entry.segment = "shard-0.dnhs";
  {
    pipeline::SpillWriter writer{dir_, 0, /*truncate=*/true};
    ASSERT_TRUE(writer.ok());
    const auto appended = writer.append(0, original);
    ASSERT_TRUE(appended.has_value());
    entry.extent = *appended;
  }
  pipeline::RecoveryStats stats;
  const auto loaded = pipeline::load_spilled_window(dir_, entry, stats);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(stats.total_anomalies(), 0u);
  ASSERT_EQ(loaded->db.size(), original.db.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& got = loaded->db.flows()[i];
    const auto& want = original.db.flows()[i];
    EXPECT_EQ(got.fqdn, want.fqdn) << i;
    EXPECT_EQ(got.dpi_label, want.dpi_label) << i;
    EXPECT_EQ(got.cert_cn, want.cert_cn) << i;
    EXPECT_EQ(got.cert_san, want.cert_san) << i;
  }
  EXPECT_EQ(tsv(loaded->db), tsv(original.db));
  ASSERT_EQ(loaded->dns_log.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(loaded->dns_log[i].fqdn, names[i]) << i;
}

TEST_F(SpillTest, TornRecordAndBitFlipAreDetected) {
  write_run(1, 1);
  pipeline::ManifestEntry entry = scan().parts.at(0).at(0);

  // Bit flip inside the payload: CRC must catch it.
  const std::string segment = dir_ + "/shard-0.dnhs";
  {
    std::fstream file{segment, std::ios::in | std::ios::out |
                                   std::ios::binary};
    file.seekp(static_cast<std::streamoff>(entry.extent.offset + 20));
    file.put(static_cast<char>(0xff));
  }
  pipeline::RecoveryStats stats;
  EXPECT_FALSE(pipeline::load_spilled_window(dir_, entry, stats));
  EXPECT_EQ(stats.records_bad_crc, 1u);

  // Extent past the segment end: a torn write.
  fs::resize_file(segment, entry.extent.length / 2);
  EXPECT_FALSE(pipeline::load_spilled_window(dir_, entry, stats));
  EXPECT_EQ(stats.records_torn, 1u);
}

TEST_F(SpillTest, ScanComputesCompletePrefix) {
  // 2 shards, 3 windows each — then journal one extra window on shard 0
  // only, which must NOT extend the complete prefix.
  write_run(2, 3);
  {
    pipeline::ManifestJournal journal{dir_, 2, 1'000'000, /*truncate=*/false};
    pipeline::SpillWriter writer{dir_, 0, /*truncate=*/false};
    const auto extent = writer.append(3, make_window(3, 2));
    ASSERT_TRUE(extent.has_value());
    ASSERT_TRUE(journal.append_seal(3, 0, writer.segment(), *extent, 99));
  }
  const pipeline::RecoveryPlan plan = scan();
  ASSERT_TRUE(plan.usable());
  EXPECT_EQ(plan.window_us, 1'000'000u);
  EXPECT_EQ(plan.complete_prefix, 3u);
  ASSERT_EQ(plan.parts.size(), 3u);
  EXPECT_GE(plan.stats.windows_incomplete, 1u);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    ASSERT_EQ(plan.parts[seq].size(), 2u);
    EXPECT_EQ(plan.parts[seq][0].shard, 0u);
    EXPECT_EQ(plan.parts[seq][1].shard, 1u);
    EXPECT_EQ(plan.parts[seq][0].seq, seq);
  }
}

TEST_F(SpillTest, TornManifestTailShrinksThePrefix) {
  write_run(1, 4);
  // Chop the journal mid-line: the torn line and everything after it are
  // dropped, the lines before it stay trustworthy.
  const std::string manifest = dir_ + "/manifest.dnhm";
  fs::resize_file(manifest, fs::file_size(manifest) - 7);
  const pipeline::RecoveryPlan plan = scan();
  ASSERT_TRUE(plan.usable());
  EXPECT_EQ(plan.complete_prefix, 3u);
  EXPECT_EQ(plan.stats.manifest_torn_lines, 1u);
}

TEST_F(SpillTest, LaterGenerationWithDifferentShardCountCompletes) {
  // Crashed 2-shard run sealed windows 0-1; the 3-shard resume re-seals
  // window 1 and seals 2. Every window has SOME complete generation, and
  // window 1 must come from the newer one (3 parts, not 2).
  write_run(2, 2);
  write_run(3, 3, /*truncate=*/false);
  const pipeline::RecoveryPlan plan = scan();
  ASSERT_TRUE(plan.usable());
  EXPECT_EQ(plan.complete_prefix, 3u);
  EXPECT_EQ(plan.parts[0].size(), 3u);
  EXPECT_EQ(plan.parts[1].size(), 3u);
  EXPECT_EQ(plan.parts[2].size(), 3u);
}

TEST_F(SpillTest, WindowLengthMismatchIsUnusable) {
  write_run(1, 1);
  pipeline::ManifestJournal journal{dir_, 1, 2'000'000, /*truncate=*/false};
  const pipeline::RecoveryPlan plan = scan();
  EXPECT_FALSE(plan.usable());
  EXPECT_NE(plan.error.find("window"), std::string::npos);
}

TEST_F(SpillTest, MissingManifestIsUnusable) {
  EXPECT_FALSE(scan().usable());
}

// ------------------------------------------------- faultinject spill modes

TEST_F(SpillTest, CorruptTornRecordTruncatesTheLastRecord) {
  write_run(2, 3);
  faultinject::SpillFaultConfig config;
  config.seed = 11;
  config.mode = faultinject::SpillFaultMode::kTornRecord;
  const auto report = faultinject::corrupt_spill_dir(dir_, config);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->segment_records, 3u);
  EXPECT_GT(report->bytes_removed, 0u);
  // The damaged segment's final record no longer loads; recovery demotes
  // that window to recomputation but the earlier records stay valid.
  const pipeline::RecoveryPlan plan = scan();
  ASSERT_TRUE(plan.usable());
  pipeline::RecoveryStats stats;
  std::uint64_t failures = 0;
  for (const auto& parts : plan.parts)
    for (const auto& entry : parts)
      failures += !pipeline::load_spilled_window(dir_, entry, stats);
  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(stats.records_torn, 1u);
}

TEST_F(SpillTest, CorruptBitFlipFailsExactlyOneRecordCrc) {
  write_run(2, 3);
  faultinject::SpillFaultConfig config;
  config.seed = 5;
  config.mode = faultinject::SpillFaultMode::kBitFlip;
  const auto report = faultinject::corrupt_spill_dir(dir_, config);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->bits_flipped, 1u);
  const pipeline::RecoveryPlan plan = scan();
  pipeline::RecoveryStats stats;
  std::uint64_t failures = 0;
  for (const auto& parts : plan.parts)
    for (const auto& entry : parts)
      failures += !pipeline::load_spilled_window(dir_, entry, stats);
  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(stats.records_bad_crc, 1u);
}

TEST_F(SpillTest, CorruptManifestModesDegradeTheScan) {
  write_run(1, 3);
  faultinject::SpillFaultConfig config;
  config.seed = 3;
  config.mode = faultinject::SpillFaultMode::kTruncateManifest;
  ASSERT_TRUE(faultinject::corrupt_spill_dir(dir_, config).has_value());
  pipeline::RecoveryPlan plan = scan();
  ASSERT_TRUE(plan.usable());
  EXPECT_LT(plan.complete_prefix, 3u);
  EXPECT_GE(plan.stats.manifest_torn_lines, 1u);

  // Garbage appended after valid lines is a torn tail too.
  SetUp();  // fresh dir; TearDown sweeps every dir this test created
  write_run(1, 3);
  config.mode = faultinject::SpillFaultMode::kGarbageAppend;
  const auto report = faultinject::corrupt_spill_dir(dir_, config);
  ASSERT_TRUE(report.has_value());
  EXPECT_GT(report->bytes_appended, 0u);
  plan = scan();
  ASSERT_TRUE(plan.usable());
  EXPECT_EQ(plan.complete_prefix, 3u);
  EXPECT_GE(plan.stats.manifest_torn_lines, 1u);
}

TEST_F(SpillTest, CorruptionIsDeterministicPerSeed) {
  write_run(2, 2);
  faultinject::SpillFaultConfig config;
  config.seed = 42;
  config.mode = faultinject::SpillFaultMode::kBitFlip;
  const auto a = faultinject::corrupt_spill_dir(dir_, config);
  SetUp();
  write_run(2, 2);
  const auto b = faultinject::corrupt_spill_dir(dir_, config);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(fs::path(a->target).filename(), fs::path(b->target).filename());
}

TEST_F(SpillTest, CorruptEmptyDirReturnsNothing) {
  faultinject::SpillFaultConfig config;
  for (std::size_t i = 0; i < faultinject::kSpillFaultModeCount; ++i) {
    config.mode = static_cast<faultinject::SpillFaultMode>(i);
    EXPECT_FALSE(faultinject::corrupt_spill_dir(dir_, config).has_value())
        << faultinject::spill_fault_mode_name(config.mode);
  }
}

// ------------------------------------------------------------------ crc32

TEST(Crc32, MatchesKnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(util::crc32_ieee(std::string_view{"123456789"}), 0xCBF43926u);
  EXPECT_EQ(util::crc32_ieee(std::string_view{}), 0u);
  // Incremental == one-shot.
  std::uint32_t crc = util::kCrc32Init;
  crc = util::crc32_update(crc, "1234", 4);
  crc = util::crc32_update(crc, "56789", 5);
  EXPECT_EQ(util::crc32_final(crc), 0xCBF43926u);
}

}  // namespace
}  // namespace dnh
