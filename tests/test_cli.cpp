// End-to-end tests of the `dnhunter` CLI binary: each subcommand is run
// against a small generated capture and its output/exit code checked.
// The binary path is injected by CMake via DNHUNTER_BIN.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <string>

#include "faultinject/faultinject.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"

#ifndef DNHUNTER_BIN
#error "DNHUNTER_BIN must be defined by the build"
#endif

namespace dnh {
namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_cli(const std::string& args) {
  const std::string command =
      std::string{DNHUNTER_BIN} + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  CommandResult result;
  if (!pipe) return result;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
    result.output.append(buffer.data(), n);
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string slurp(const std::string& path) {
  std::string out;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (!file) return out;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), file)) > 0)
    out.append(buffer.data(), n);
  std::fclose(file);
  return out;
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process directory: `ctest -j` runs cases as separate processes,
    // and a shared directory would let one teardown delete another's files.
    dir_ = fs::temp_directory_path() /
           ("dnh_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    pcap_ = (dir_ / "cli.pcap").string();
    flow_export_ = (dir_ / "cli.v5.dnhx").string();
    auto profile = trafficgen::profile_eu1_ftth();
    profile.name = "cli-test";
    profile.duration = util::Duration::minutes(40);
    profile.n_clients = 40;
    profile.world.tail_organizations = 200;
    trafficgen::Simulator sim{profile};
    ASSERT_TRUE(sim.write_pcap(pcap_));
    ASSERT_TRUE(sim.write_flow_export(flow_export_));
  }
  static void TearDownTestSuite() { fs::remove_all(dir_); }

  static fs::path dir_;
  static std::string pcap_;
  static std::string flow_export_;
};

fs::path CliTest::dir_;
std::string CliTest::pcap_;
std::string CliTest::flow_export_;

TEST_F(CliTest, HelpExitsCleanly) {
  const auto result = run_cli("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, MissingArgsFailWithUsage) {
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_EQ(run_cli("summary").exit_code, 2);
  EXPECT_EQ(run_cli("bogus-command " + pcap_).exit_code, 2);
}

TEST_F(CliTest, MissingCaptureFails) {
  const auto result = run_cli("summary /nonexistent/x.pcap");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST_F(CliTest, SummaryReportsFlowsAndHitRatio) {
  const auto result = run_cli("summary " + pcap_);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("dns responses"), std::string::npos);
  EXPECT_NE(result.output.find("hit ratio"), std::string::npos);
  EXPECT_NE(result.output.find("HTTP"), std::string::npos);
}

TEST_F(CliTest, FlowsListsLabels) {
  const auto result = run_cli("flows " + pcap_ + " --limit 10");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("flows shown"), std::string::npos);
}

TEST_F(CliTest, TagsRequiresPort) {
  EXPECT_EQ(run_cli("tags " + pcap_).exit_code, 2);
  const auto result = run_cli("tags " + pcap_ + " --port 80 --top 5");
  EXPECT_EQ(result.exit_code, 0);
}

TEST_F(CliTest, TreeRendersDomainStructure) {
  const auto result = run_cli("tree " + pcap_ + " zynga.com");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("zynga.com"), std::string::npos);
  EXPECT_NE(result.output.find("token tree"), std::string::npos);
}

TEST_F(CliTest, PolicyCountsDecisions) {
  const auto result =
      run_cli("policy " + pcap_ + " --block zynga.com");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("decisions:"), std::string::npos);
  EXPECT_NE(result.output.find("block="), std::string::npos);
}

TEST_F(CliTest, ExportWritesTsvRoundTrip) {
  const std::string tsv = (dir_ / "flows.tsv").string();
  const auto result = run_cli("export " + pcap_ + " --out " + tsv);
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_TRUE(fs::exists(tsv));
  std::FILE* file = std::fopen(tsv.c_str(), "r");
  char line[64] = {};
  ASSERT_TRUE(std::fgets(line, sizeof line, file));
  std::fclose(file);
  EXPECT_EQ(std::string{line}.substr(0, 18), "#dnhunter-flows v1");
}

TEST_F(CliTest, ExportFailsWhenTheWriteFails) {
  // /dev/full accepts the open and fails every write with ENOSPC: export
  // must report it rather than claim the flows were written.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const char* jobs : {"1", "3"}) {
    const auto result =
        run_cli("export " + pcap_ + " --out /dev/full --jobs " + jobs);
    EXPECT_NE(result.exit_code, 0) << "--jobs " << jobs;
    EXPECT_NE(result.output.find("error: cannot write /dev/full"),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("wrote "), std::string::npos)
        << result.output;
  }
}

TEST_F(CliTest, VolumeDelaysDimensionRun) {
  EXPECT_EQ(run_cli("volume " + pcap_ + " --depth 2").exit_code, 0);
  const auto delays = run_cli("delays " + pcap_);
  EXPECT_EQ(delays.exit_code, 0);
  EXPECT_NE(delays.output.find("useless DNS"), std::string::npos);
  const auto dim = run_cli("dimension " + pcap_ + " --sizes 64,4096");
  EXPECT_EQ(dim.exit_code, 0);
  EXPECT_NE(dim.output.find("efficiency"), std::string::npos);
}

TEST_F(CliTest, AnomaliesAndDgaAndChurnRun) {
  EXPECT_EQ(run_cli("anomalies " + pcap_).exit_code, 0);
  const auto dga = run_cli("dga " + pcap_);
  EXPECT_EQ(dga.exit_code, 0);
  EXPECT_NE(dga.output.find("suspected DGA"), std::string::npos);
  EXPECT_EQ(run_cli("churn " + pcap_ + " zynga.com --bin 10").exit_code, 0);
}

TEST_F(CliTest, TangleReportsEntanglement) {
  const auto result = run_cli("tangle " + pcap_ + " --top 5");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("organizations"), std::string::npos);
  EXPECT_NE(result.output.find("multi-tenant"), std::string::npos);
}

TEST_F(CliTest, SpatialNeedsFqdn) {
  EXPECT_EQ(run_cli("spatial " + pcap_).exit_code, 2);
}

TEST_F(CliTest, CorruptCaptureFailsLoudlyInStrictMode) {
  const std::string damaged = (dir_ / "damaged.pcap").string();
  faultinject::FileFaultConfig config;
  config.seed = 2;
  config.garbage_run_rate = 0.02;
  const auto report = faultinject::corrupt_pcap_file(pcap_, damaged, config);
  ASSERT_TRUE(report);
  ASSERT_GT(report->faults(), 0u);

  // Strict (default): nonzero exit, a clear error, and no results table —
  // a partially-processed capture must never masquerade as a complete one.
  const auto strict = run_cli("summary " + damaged);
  EXPECT_EQ(strict.exit_code, 1);
  EXPECT_NE(strict.output.find("error:"), std::string::npos);
  EXPECT_NE(strict.output.find("--resync"), std::string::npos);
  EXPECT_EQ(strict.output.find("hit ratio"), std::string::npos);

  // --resync: results printed, with a damage warning and the degradation
  // tally in the summary.
  const auto resync = run_cli("summary " + damaged + " --resync");
  EXPECT_EQ(resync.exit_code, 0);
  EXPECT_NE(resync.output.find("warning: capture is damaged"),
            std::string::npos);
  EXPECT_NE(resync.output.find("hit ratio"), std::string::npos);
  EXPECT_NE(resync.output.find("degradation:"), std::string::npos);
}

TEST_F(CliTest, StrictAndResyncAreMutuallyExclusive) {
  EXPECT_EQ(run_cli("summary " + pcap_ + " --strict --resync").exit_code, 2);
}

TEST_F(CliTest, ChaosSelfTestPasses) {
  const auto result = run_cli("chaos " + pcap_ + " --rate 0.05 --seed 7");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("frame stage:"), std::string::npos);
  EXPECT_NE(result.output.find("file stage:"), std::string::npos);
  EXPECT_NE(result.output.find("chaos self-test: PASS"), std::string::npos);
  // The damaged temp file must not be left behind.
  EXPECT_FALSE(fs::exists(pcap_ + ".chaos-tmp"));
}

TEST_F(CliTest, ContentNeedsOrgDb) {
  EXPECT_EQ(run_cli("content " + pcap_ + " --provider amazon").exit_code,
            2);
  // With a tiny orgdb file it must succeed.
  const std::string orgdb_path = (dir_ / "orgs.txt").string();
  std::FILE* file = std::fopen(orgdb_path.c_str(), "w");
  std::fputs("# test org db\n54.224.0.0/16 amazon\n23.0.0.0/16 akamai\n",
             file);
  std::fclose(file);
  const auto result = run_cli("content " + pcap_ + " --provider amazon " +
                              "--orgdb " + orgdb_path);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("amazon hosts"), std::string::npos);
}

TEST_F(CliTest, JobsShardedRunIsBitIdenticalToSingleThread) {
  const std::string tsv1 = (dir_ / "jobs1.tsv").string();
  const std::string tsv4 = (dir_ / "jobs4.tsv").string();
  ASSERT_EQ(run_cli("export " + pcap_ + " --out " + tsv1).exit_code, 0);
  ASSERT_EQ(
      run_cli("export " + pcap_ + " --jobs 4 --out " + tsv4).exit_code, 0);

  const std::string flows1 = slurp(tsv1);
  const std::string flows4 = slurp(tsv4);
  ASSERT_FALSE(flows1.empty());
  EXPECT_EQ(flows1, flows4);  // byte-for-byte, not just same flow set

  // Summary counters (hit ratios, degradation, per-class table) must not
  // depend on the shard count either.
  const auto summary1 = run_cli("summary " + pcap_);
  const auto summary4 = run_cli("summary " + pcap_ + " --jobs 4");
  ASSERT_EQ(summary1.exit_code, 0);
  ASSERT_EQ(summary4.exit_code, 0);
  EXPECT_EQ(summary1.output, summary4.output);
}

TEST_F(CliTest, JobsRejectsBadShardCounts) {
  EXPECT_EQ(run_cli("summary " + pcap_ + " --jobs 0").exit_code, 2);
  EXPECT_EQ(run_cli("summary " + pcap_ + " --jobs -3").exit_code, 2);
}

TEST_F(CliTest, FlowExportStreamTagsFlowsAtAnyShardCount) {
  const std::string tsv1 = (dir_ / "fe1.tsv").string();
  const std::string tsv4 = (dir_ / "fe4.tsv").string();
  const auto r1 = run_cli("export " + pcap_ + " --flow-export " +
                          flow_export_ + " --out " + tsv1);
  EXPECT_EQ(r1.exit_code, 0);
  // The ingest report names the format split so an operator can tell a
  // silent v5 exporter from a template-starved IPFIX one.
  EXPECT_NE(r1.output.find("flow-export:"), std::string::npos);
  const auto r4 = run_cli("export " + pcap_ + " --flow-export " +
                          flow_export_ + " --jobs 4 --out " + tsv4);
  EXPECT_EQ(r4.exit_code, 0);

  const std::string flows1 = slurp(tsv1);
  ASSERT_FALSE(flows1.empty());
  EXPECT_EQ(flows1, slurp(tsv4));  // shard count invisible on record path
  // The stream carries real flows: the TSV has more than just its header.
  EXPECT_GT(std::count(flows1.begin(), flows1.end(), '\n'), 100);
}

TEST_F(CliTest, CaptureDirectoryMatchesSingleFile) {
  const fs::path capdir = dir_ / "rotated";
  fs::create_directories(capdir);
  fs::copy_file(pcap_, capdir / "00-cli.pcap",
                fs::copy_options::overwrite_existing);

  const std::string tsv_dir = (dir_ / "dir.tsv").string();
  const std::string tsv_one = (dir_ / "one.tsv").string();
  const auto from_dir =
      run_cli("export " + capdir.string() + " --out " + tsv_dir);
  EXPECT_EQ(from_dir.exit_code, 0);
  EXPECT_NE(from_dir.output.find("replayed 1 rotated file(s)"),
            std::string::npos);
  ASSERT_EQ(run_cli("export " + pcap_ + " --out " + tsv_one).exit_code, 0);

  const std::string flows_dir = slurp(tsv_dir);
  ASSERT_FALSE(flows_dir.empty());
  EXPECT_EQ(flows_dir, slurp(tsv_one));
}

TEST_F(CliTest, EmptyCaptureDirectoryFails) {
  const fs::path empty = dir_ / "empty-captures";
  fs::create_directories(empty);
  const auto result = run_cli("summary " + empty.string());
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST_F(CliTest, TraceOutWritesChromeTraceJson) {
  const std::string trace = (dir_ / "cli_trace.json").string();
  const auto result =
      run_cli("summary " + pcap_ + " --jobs 2 --trace-out " + trace);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("trace: " + trace + " written"),
            std::string::npos);
  const std::string json = slurp(trace);
  ASSERT_FALSE(json.empty());
  // Chrome/Perfetto trace-event envelope with named pipeline threads and
  // window-lifecycle instants.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"merge\""), std::string::npos);
  EXPECT_NE(json.find("window-emitted"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST_F(CliTest, TraceCatRoundTripsSpillDirDump) {
  const std::string spill = (dir_ / "trace_spill").string();
  const std::string out = (dir_ / "trace_spill.tsv").string();
  const auto run = run_cli("export " + pcap_ + " --out " + out +
                           " --jobs 2 --spill-dir " + spill + " --window 300");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const auto rendered = run_cli("trace-cat " + spill + "/flight.dnht");
  ASSERT_EQ(rendered.exit_code, 0) << rendered.output;
  EXPECT_EQ(rendered.output.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(rendered.output.find("window-sealed"), std::string::npos);
  EXPECT_EQ(rendered.output.find("warning:"), std::string::npos)
      << rendered.output;
}

TEST_F(CliTest, TraceCatOnMissingOrForeignFileFails) {
  EXPECT_EQ(run_cli("trace-cat /nonexistent/flight.dnht").exit_code, 2);
  const auto foreign = run_cli("trace-cat " + pcap_);
  EXPECT_EQ(foreign.exit_code, 2);
  EXPECT_NE(foreign.output.find("error"), std::string::npos);
}

TEST_F(CliTest, MissingFlowExportStreamFails) {
  const auto result = run_cli("export " + pcap_ +
                              " --flow-export /nonexistent/x.dnhx --out " +
                              (dir_ / "nope.tsv").string());
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

}  // namespace
}  // namespace dnh
