// Crash-recovery integration tests: a child `dnhunter` is SIGKILLed
// mid-run, then resumed with `--resume`, and the flows-TSV output must be
// byte-identical to an uninterrupted single-threaded run — at several
// shard counts, and under every spill-corruption chaos mode. This is the
// end-to-end proof of the durability ordering (segment fsync before
// manifest append) that the spill unit tests check piecewise.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "faultinject/faultinject.hpp"
#include "obs/traceio.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/spill.hpp"
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
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = fs::temp_directory_path() /
           ("dnh_recovery_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    pcap_ = (dir_ / "recovery.pcap").string();
    auto profile = trafficgen::profile_eu1_ftth();
    profile.name = "recovery-test";
    profile.duration = util::Duration::minutes(40);
    profile.n_clients = 40;
    trafficgen::Simulator sim{profile};
    ASSERT_TRUE(sim.write_pcap(pcap_));

    // The uninterrupted single-threaded reference everything must match.
    baseline_ = (dir_ / "baseline.tsv").string();
    ASSERT_EQ(run_cli("export " + pcap_ + " --out " + baseline_).exit_code,
              0);
    ASSERT_FALSE(slurp(baseline_).empty());
  }
  static void TearDownTestSuite() { fs::remove_all(dir_); }

  /// Starts `dnhunter` as a direct child (no shell, so the PID is the
  /// binary's), silenced, with `env` ("NAME=value") added to its
  /// environment.
  static pid_t spawn(const std::vector<std::string>& args,
                     const std::vector<std::string>& env) {
    std::vector<const char*> argv;
    argv.push_back(DNHUNTER_BIN);
    for (const auto& arg : args) argv.push_back(arg.c_str());
    argv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
      std::freopen("/dev/null", "w", stdout);
      std::freopen("/dev/null", "w", stderr);
      for (const auto& entry : env) ::putenv(const_cast<char*>(entry.c_str()));
      execv(DNHUNTER_BIN, const_cast<char* const*>(argv.data()));
      _exit(127);
    }
    return pid;
  }

  enum class Wait { kReady, kExited, kTimedOut };

  /// Polls `ready` every 200 us while the child runs, for up to 10 s.
  /// kExited means the child finished first and was reaped into `status`.
  static Wait wait_until(pid_t pid, const std::function<bool()>& ready,
                         int& status) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (::waitpid(pid, &status, WNOHANG) == pid) return Wait::kExited;
      if (ready()) return Wait::kReady;
      ::usleep(200);
    }
    return Wait::kTimedOut;
  }

  /// Runs `dnhunter` and SIGKILLs it once `ready` holds. Returns true if
  /// the kill landed mid-run; false if the child finished first or
  /// `ready` never held (the child is killed then too).
  static bool run_and_kill(const std::vector<std::string>& args,
                           const std::function<bool()>& ready,
                           const std::vector<std::string>& env = {}) {
    const pid_t pid = spawn(args, env);
    int status = 0;
    const Wait waited = wait_until(pid, ready, status);
    if (waited == Wait::kExited) return false;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    return waited == Wait::kReady && WIFSIGNALED(status) &&
           WTERMSIG(status) == SIGKILL;
  }

  /// Ready once the spill directory's manifest journals `windows`
  /// complete windows (0: once the manifest exists, i.e. the run has set
  /// up but sealed nothing yet).
  static std::function<bool()> sealed(const std::string& spill,
                                      std::uint64_t windows) {
    return [spill, windows] {
      if (!fs::exists(spill + "/manifest.dnhm")) return false;
      return pipeline::scan_spill_dir(spill).complete_prefix >= windows;
    };
  }

  /// kill -9 a spilling run once `windows` windows are sealed, then
  /// --resume at `jobs` shards and require byte-identical flows-TSV. The
  /// kill waits on the run's own progress, not on wall-clock time, so a
  /// faster build is still killed mid-run.
  void kill_and_resume(std::size_t jobs, std::uint64_t windows) {
    const std::string spill =
        (dir_ / ("spill_j" + std::to_string(jobs) + "_w" +
                 std::to_string(windows)))
            .string();
    const std::string out = spill + ".tsv";
    fs::remove_all(spill);
    const std::vector<std::string> args = {
        "export",      pcap_,   "--out",       out,
        "--jobs",      std::to_string(jobs),   "--spill-dir", spill,
        "--window",    "300"};
    if (!run_and_kill(args, sealed(spill, windows))) {
      GTEST_LOG_(INFO) << "child finished before the kill; skipping";
      return;
    }
    const auto resumed = run_cli(
        "export " + pcap_ + " --out " + out + " --jobs " +
        std::to_string(jobs) + " --spill-dir " + spill +
        " --resume --window 300");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resume:"), std::string::npos);
    EXPECT_EQ(slurp(out), slurp(baseline_))
        << "resume at --jobs " << jobs << " diverged from the baseline";
  }

  static fs::path dir_;
  static std::string pcap_;
  static std::string baseline_;
};

fs::path RecoveryTest::dir_;
std::string RecoveryTest::pcap_;
std::string RecoveryTest::baseline_;

/// Windows of `width_s` seconds, aligned to multiples of the width, that
/// the capture's timestamps span.
std::uint64_t window_count(const std::string& pcap, std::int64_t width_s) {
  std::int64_t first = -1;
  std::int64_t last = -1;
  std::string error;
  EXPECT_TRUE(pcap::read_any_capture(
      pcap,
      [&](const pcap::Frame& frame) {
        const std::int64_t window =
            frame.timestamp.seconds_since_epoch() / width_s;
        if (first < 0) first = window;
        last = window;
      },
      error))
      << error;
  return static_cast<std::uint64_t>(last - first + 1);
}

TEST_F(RecoveryTest, SpilledWindowedRunMatchesBaseline) {
  // No crash at all: the spilling, windowed run must already be
  // byte-identical to the whole-capture export and journal every window,
  // and a --resume over the finished spill must serve every window from
  // it — inline at --jobs 1 as well as sharded.
  const std::uint64_t windows = window_count(pcap_, 300);
  ASSERT_GE(windows, 8u);
  for (const std::string jobs : {"1", "4"}) {
    const std::string spill = (dir_ / ("spill_clean_j" + jobs)).string();
    const std::string out = (dir_ / ("clean_j" + jobs + ".tsv")).string();
    const std::string args = "export " + pcap_ + " --out " + out +
                             " --jobs " + jobs + " --spill-dir " + spill +
                             " --window 300";
    const auto result = run_cli(args);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_EQ(slurp(out), slurp(baseline_)) << "--jobs " << jobs;
    EXPECT_EQ(pipeline::scan_spill_dir(spill).complete_prefix, windows)
        << "--jobs " << jobs;

    fs::remove(out);
    const auto resumed = run_cli(args + " --resume");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resume: " + std::to_string(windows) +
                                  " window(s) served from spill, 0 "
                                  "recomputed"),
              std::string::npos)
        << "--jobs " << jobs << ": " << resumed.output;
    EXPECT_EQ(slurp(out), slurp(baseline_)) << "--jobs " << jobs;
  }
}

TEST_F(RecoveryTest, WatchdogAtJobs1ExitsCleanly) {
  // --jobs 1 runs inline: the watchdog has no stage hand-off to watch and
  // must neither fire nor change the output.
  const std::string out = (dir_ / "watchdog_j1.tsv").string();
  const auto result = run_cli("export " + pcap_ + " --out " + out +
                              " --jobs 1 --watchdog 1");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(slurp(out), slurp(baseline_));
}

TEST_F(RecoveryTest, KillNineThenResumeIsByteIdenticalJobs1) {
  kill_and_resume(1, 1);
}

TEST_F(RecoveryTest, KillNineThenResumeIsByteIdenticalJobs4) {
  kill_and_resume(4, 1);
}

TEST_F(RecoveryTest, KillNineThenResumeIsByteIdenticalJobs8) {
  kill_and_resume(8, 1);
}

TEST_F(RecoveryTest, KillNineEarlyAndLateStillResume) {
  kill_and_resume(4, 0);  // before the first seal
  kill_and_resume(4, 4);  // deep into the capture (8 windows in all)
}

TEST_F(RecoveryTest, GracefulDrainThenResumeIsByteIdentical) {
  // SIGTERM mid-run drains gracefully (exit 0, partial results). The
  // drain seals and delivers its truncated flush window but must NOT
  // journal it — otherwise --resume serves the truncated window from
  // spill where an uninterrupted run computes a full one.
  const std::string spill = (dir_ / "spill_drain").string();
  const std::string out = (dir_ / "drain.tsv").string();
  fs::remove_all(spill);
  const pid_t pid = spawn({"export", pcap_, "--out", out, "--jobs", "4",
                          "--spill-dir", spill, "--window", "300"},
                         {});
  int status = 0;
  // Signal once the first window is journaled, so the drain lands
  // mid-run however fast the build is.
  if (wait_until(pid, sealed(spill, 1), status) != Wait::kExited) {
    ::kill(pid, SIGTERM);
    ::waitpid(pid, &status, 0);
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "drain must exit 0";

  const auto resumed = run_cli("export " + pcap_ + " --out " + out +
                               " --jobs 4 --spill-dir " + spill +
                               " --resume --window 300");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(slurp(out), slurp(baseline_))
      << "resume after a graceful drain diverged from the baseline";
}

TEST_F(RecoveryTest, ResumeWithDifferentShardCountMatchesBaseline) {
  const std::string spill = (dir_ / "spill_reshard").string();
  const std::string out = (dir_ / "reshard.tsv").string();
  if (!run_and_kill({"export", pcap_, "--out", out, "--jobs", "4",
                     "--spill-dir", spill, "--window", "300"},
                    sealed(spill, 1))) {
    GTEST_LOG_(INFO) << "child finished before the kill; skipping";
    return;
  }
  const auto resumed = run_cli("export " + pcap_ + " --out " + out +
                               " --jobs 2 --spill-dir " + spill +
                               " --resume --window 300");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(slurp(out), slurp(baseline_));
}

TEST_F(RecoveryTest, ResumeOverCorruptedSpillDegradesWithTypedStats) {
  // Build a COMPLETE spill dir (uninterrupted run), then damage it with
  // every chaos mode and resume: output must stay byte-identical and the
  // run must report typed degradation, never crash.
  for (std::size_t i = 0; i < faultinject::kSpillFaultModeCount; ++i) {
    const auto mode = static_cast<faultinject::SpillFaultMode>(i);
    const std::string label{faultinject::spill_fault_mode_name(mode)};
    const std::string spill = (dir_ / ("spill_chaos_" + label)).string();
    const std::string out = (dir_ / ("chaos_" + label + ".tsv")).string();
    ASSERT_EQ(run_cli("export " + pcap_ + " --out " + out +
                      " --jobs 4 --spill-dir " + spill + " --window 300")
                  .exit_code,
              0);
    faultinject::SpillFaultConfig config;
    config.seed = 17 + i;
    config.mode = mode;
    const auto report = faultinject::corrupt_spill_dir(spill, config);
    ASSERT_TRUE(report.has_value()) << label;

    const auto resumed = run_cli("export " + pcap_ + " --out " + out +
                                 " --jobs 4 --spill-dir " + spill +
                                 " --resume --window 300");
    ASSERT_EQ(resumed.exit_code, 0) << label << ": " << resumed.output;
    EXPECT_NE(resumed.output.find("resume:"), std::string::npos) << label;
    EXPECT_EQ(slurp(out), slurp(baseline_)) << label;
  }
}

TEST_F(RecoveryTest, KillNineLeavesRecoverableFlightRecorderDump) {
  // The flight recorder keeps DIR/flight.dnht current while a --spill-dir
  // run is alive (synchronous first dump, then a 100ms refresh via
  // tmp+rename). After SIGKILL — no atexit, no signal handler — the last
  // completed dump must still be there and render cleanly, because the
  // rename never exposes a half-written file (docs/observability.md).
  const std::string spill = (dir_ / "spill_trace_kill").string();
  const std::string out = (dir_ / "trace_kill.tsv").string();
  fs::remove_all(spill);
  // Shard 0 parks at startup (DNH_FAULT_STALL), so the run cannot finish
  // before the kill. The kill waits until a refreshed dump on disk
  // carries a dispatcher window-lifecycle event, not just the startup
  // thread-starts.
  const std::string dump = spill + "/flight.dnht";
  const auto dispatched = [&dump] {
    const auto threads = obs::read_binary_dump(dump);
    if (!threads) return false;
    for (const auto& thread : *threads)
      for (const auto& event : thread.events)
        if (event.kind == obs::TraceKind::kWindowDispatched) return true;
    return false;
  };
  ASSERT_TRUE(run_and_kill({"export", pcap_, "--out", out, "--jobs", "4",
                            "--spill-dir", spill, "--window", "300"},
                           dispatched, {"DNH_FAULT_STALL=0"}))
      << "no window-dispatched event reached the dump within 10 s";
  ASSERT_TRUE(fs::exists(dump))
      << "flight.dnht missing after SIGKILL mid-run";
  const auto rendered = run_cli("trace-cat " + dump);
  ASSERT_EQ(rendered.exit_code, 0) << rendered.output;
  EXPECT_NE(rendered.output.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(rendered.output.find("thread_name"), std::string::npos);
  EXPECT_NE(rendered.output.find("window-dispatched"), std::string::npos)
      << "dump should carry dispatcher lifecycle events";
  // Complete frames only: a torn trailing frame would print a warning.
  EXPECT_EQ(rendered.output.find("warning:"), std::string::npos)
      << rendered.output;
}

TEST_F(RecoveryTest, ResumeWithoutSpillDirIsAUsageError) {
  EXPECT_EQ(run_cli("export " + pcap_ + " --out /dev/null --resume")
                .exit_code,
            2);
}

}  // namespace
}  // namespace dnh
