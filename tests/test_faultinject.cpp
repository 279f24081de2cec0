// Tests for the chaos-ingestion engine: deterministic frame corruption and
// pcap file corruption, plus the end-to-end contract with pcap::Reader's
// resync mode (corruption stats must match the injected fault report).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "faultinject/faultinject.hpp"
#include "pcap/pcap.hpp"

namespace dnh::faultinject {
namespace {

namespace fs = std::filesystem;

class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dnh_faultinject_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// A stream of same-shaped frames with strictly increasing timestamps.
/// Bodies are 0xAA-filled: no byte window inside them forms a plausible
/// record header, which keeps resync accounting exact.
std::vector<pcap::Frame> make_frames(int n, std::size_t body = 60) {
  std::vector<pcap::Frame> frames;
  frames.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pcap::Frame f;
    f.timestamp = util::Timestamp::from_micros(1'000'000'000LL + i * 1000);
    f.data.assign(body, 0xAA);
    f.data[0] = static_cast<std::uint8_t>(i);  // make frames distinguishable
    frames.push_back(std::move(f));
  }
  return frames;
}

std::vector<pcap::Frame> run_corruptor(const FaultConfig& config,
                                       const std::vector<pcap::Frame>& in,
                                       FaultStats* stats = nullptr) {
  FrameCorruptor corruptor{config};
  std::vector<pcap::Frame> out;
  for (const auto& f : in) corruptor.feed(f, out);
  corruptor.flush(out);
  if (stats) *stats = corruptor.stats();
  return out;
}

TEST_F(FaultInjectTest, RateZeroIsIdentity) {
  const auto in = make_frames(500);
  FaultConfig config;
  config.fault_rate = 0.0;
  FaultStats stats;
  const auto out = run_corruptor(config, in, &stats);

  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].data, in[i].data);
    EXPECT_EQ(out[i].timestamp.micros_since_epoch(),
              in[i].timestamp.micros_since_epoch());
  }
  EXPECT_EQ(stats.injected(), 0u);
  EXPECT_EQ(stats.frames_in, in.size());
  EXPECT_EQ(stats.frames_out, in.size());
}

TEST_F(FaultInjectTest, SameSeedIsExactlyReproducible) {
  const auto in = make_frames(2000);
  FaultConfig config;
  config.seed = 77;
  config.fault_rate = 0.2;
  FaultStats stats_a, stats_b;
  const auto out_a = run_corruptor(config, in, &stats_a);
  const auto out_b = run_corruptor(config, in, &stats_b);

  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i].data, out_b[i].data);
    EXPECT_EQ(out_a[i].timestamp.micros_since_epoch(),
              out_b[i].timestamp.micros_since_epoch());
  }
  EXPECT_EQ(stats_a.by_kind, stats_b.by_kind);
  EXPECT_GT(stats_a.injected(), 0u);
}

TEST_F(FaultInjectTest, DifferentSeedsDiverge) {
  const auto in = make_frames(2000);
  FaultConfig a, b;
  a.seed = 1;
  b.seed = 2;
  a.fault_rate = b.fault_rate = 0.2;
  FaultStats stats_a, stats_b;
  const auto out_a = run_corruptor(a, in, &stats_a);
  const auto out_b = run_corruptor(b, in, &stats_b);
  EXPECT_TRUE(stats_a.by_kind != stats_b.by_kind ||
              out_a.size() != out_b.size());
}

TEST_F(FaultInjectTest, FrameCountInvariantHolds) {
  // frames_out == frames_in + duplicates - drops, for any mix. Reorders
  // and in-place faults must never create or lose frames.
  const auto in = make_frames(3000);
  FaultConfig config;
  config.seed = 9;
  config.fault_rate = 0.5;
  FaultStats stats;
  const auto out = run_corruptor(config, in, &stats);

  EXPECT_EQ(stats.frames_in, in.size());
  EXPECT_EQ(stats.frames_out, out.size());
  EXPECT_EQ(stats.frames_out,
            stats.frames_in + stats.count(FaultKind::kDuplicateFrame) -
                stats.count(FaultKind::kDropFrame));
}

TEST_F(FaultInjectTest, EveryFaultKindHasAName) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto name = fault_kind_name(static_cast<FaultKind>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
  }
}

// ------------------------------------------------- file-level corruption

/// Writes `n` frames to a fresh pcap at `p`; returns the frame count.
std::uint64_t write_capture(const std::string& p, int n) {
  auto writer = pcap::Writer::create(p);
  EXPECT_TRUE(writer);
  for (const auto& f : make_frames(n)) writer->write(f);
  return writer->frames_written();
}

/// Reads `p` in the given mode; returns frames read and fills stats/error.
std::uint64_t read_all(const std::string& p, pcap::Reader::Mode mode,
                       pcap::CorruptionStats* stats = nullptr,
                       std::string* error = nullptr) {
  auto reader = pcap::Reader::open(p, mode);
  pcap::Frame scratch;
  EXPECT_TRUE(reader);
  if (!reader) return 0;
  std::uint64_t n = 0;
  while (reader->next(scratch)) ++n;
  if (stats) *stats = reader->corruption();
  if (error) *error = reader->error();
  return n;
}

TEST_F(FaultInjectTest, GarbageRunsAreFullyRecovered) {
  const std::string src = path("clean.pcap");
  const std::string dst = path("garbage.pcap");
  const std::uint64_t total = write_capture(src, 200);

  FileFaultConfig config;
  config.seed = 5;
  config.garbage_run_rate = 0.2;
  const auto report = corrupt_pcap_file(src, dst, config);
  ASSERT_TRUE(report);
  EXPECT_EQ(report->records_in, total);
  EXPECT_EQ(report->records_intact, total);  // garbage splices lose nothing
  ASSERT_GT(report->garbage_runs, 0u);

  // Strict mode dies at the first garbage run.
  std::string error;
  const std::uint64_t strict_frames =
      read_all(dst, pcap::Reader::Mode::kStrict, nullptr, &error);
  EXPECT_LT(strict_frames, total);
  EXPECT_FALSE(error.empty());

  // Resync mode recovers every intact frame and accounts each run.
  pcap::CorruptionStats stats;
  const std::uint64_t frames =
      read_all(dst, pcap::Reader::Mode::kResync, &stats, &error);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(frames, total);
  EXPECT_EQ(stats.resyncs, report->garbage_runs);
  EXPECT_EQ(stats.bytes_skipped, report->garbage_bytes);
  EXPECT_EQ(stats.events(), report->faults());
}

TEST_F(FaultInjectTest, LengthLiesLoseOnlyTheLyingRecords) {
  const std::string src = path("clean.pcap");
  const std::string dst = path("lies.pcap");
  const std::uint64_t total = write_capture(src, 200);

  FileFaultConfig config;
  config.seed = 11;
  config.length_lie_rate = 0.15;
  const auto report = corrupt_pcap_file(src, dst, config);
  ASSERT_TRUE(report);
  ASSERT_GT(report->length_lies, 0u);
  EXPECT_EQ(report->records_intact + report->length_lies, total);

  pcap::CorruptionStats stats;
  std::string error;
  const std::uint64_t frames =
      read_all(dst, pcap::Reader::Mode::kResync, &stats, &error);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(frames, report->records_intact);
  // A run of consecutive lying records is skipped by one scan, so events
  // can undercount faults but never overcount (and never reach zero).
  EXPECT_GE(stats.events(), 1u);
  EXPECT_LE(stats.events(), report->faults());
}

TEST_F(FaultInjectTest, TruncatedTailIsCountedNotFatal) {
  const std::string src = path("clean.pcap");
  const std::string dst = path("tail.pcap");
  write_capture(src, 50);

  FileFaultConfig config;
  config.truncate_tail = true;
  const auto report = corrupt_pcap_file(src, dst, config);
  ASSERT_TRUE(report);
  ASSERT_TRUE(report->truncated_tail);

  pcap::CorruptionStats stats;
  std::string error;
  const std::uint64_t frames =
      read_all(dst, pcap::Reader::Mode::kResync, &stats, &error);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(frames, report->records_intact);
  EXPECT_EQ(stats.truncated_tail, 1u);
  EXPECT_EQ(stats.events(), report->faults());
}

TEST_F(FaultInjectTest, CombinedFaultsMeetTheRecoveryFloor) {
  // The ISSUE acceptance bar: >= 90% of intact frames recovered, and the
  // reader's corruption events match the injector's report.
  const std::string src = path("clean.pcap");
  const std::string dst = path("combined.pcap");
  write_capture(src, 400);

  FileFaultConfig config;
  config.seed = 3;
  config.garbage_run_rate = 0.1;
  config.length_lie_rate = 0.05;
  config.truncate_tail = true;
  const auto report = corrupt_pcap_file(src, dst, config);
  ASSERT_TRUE(report);
  ASSERT_GT(report->faults(), 0u);

  pcap::CorruptionStats stats;
  std::string error;
  const std::uint64_t frames =
      read_all(dst, pcap::Reader::Mode::kResync, &stats, &error);
  EXPECT_TRUE(error.empty());
  EXPECT_GE(frames * 10, report->records_intact * 9);
  EXPECT_LE(frames, report->records_intact);
  EXPECT_GE(stats.events(), 1u);
  EXPECT_LE(stats.events(), report->faults());
}

TEST_F(FaultInjectTest, RejectsMissingOrNonClassicSource) {
  EXPECT_FALSE(corrupt_pcap_file(path("absent.pcap"), path("out.pcap"), {}));
  const std::string bogus = path("bogus.pcap");
  {
    auto writer = pcap::Writer::create(bogus);
    ASSERT_TRUE(writer);
  }
  // Valid header but wrong magic once damaged.
  std::FILE* f = std::fopen(bogus.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint32_t bad_magic = 0xdeadbeef;
  std::fwrite(&bad_magic, sizeof bad_magic, 1, f);
  std::fclose(f);
  EXPECT_FALSE(corrupt_pcap_file(bogus, path("out.pcap"), {}));
}

}  // namespace
}  // namespace dnh::faultinject
