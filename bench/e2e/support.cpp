#include "support.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace dnh::e2e {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// FIPS 180-4 SHA-256, streaming.
class Sha256 {
 public:
  void update(const unsigned char* data, std::size_t n) {
    total_ += n;
    while (n > 0) {
      const std::size_t take = std::min(n, block_.size() - used_);
      std::memcpy(block_.data() + used_, data, take);
      used_ += take;
      data += take;
      n -= take;
      if (used_ == block_.size()) {
        compress(block_.data());
        used_ = 0;
      }
    }
  }

  std::string hex() {
    const std::uint64_t bits = total_ * 8;
    const unsigned char pad = 0x80;
    update(&pad, 1);
    const unsigned char zero = 0;
    while (used_ != 56) update(&zero, 1);
    unsigned char length[8];
    for (int i = 0; i < 8; ++i)
      length[i] = static_cast<unsigned char>(bits >> (56 - 8 * i));
    update(length, 8);
    std::string out;
    char buf[9];
    for (const std::uint32_t word : h_) {
      std::snprintf(buf, sizeof buf, "%08x", word);
      out += buf;
    }
    return out;
  }

 private:
  static std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  }

  void compress(const unsigned char* p) {
    static constexpr std::array<std::uint32_t, 64> k = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i)
      w[i] = (std::uint32_t{p[4 * i]} << 24) |
             (std::uint32_t{p[4 * i + 1]} << 16) |
             (std::uint32_t{p[4 * i + 2]} << 8) | std::uint32_t{p[4 * i + 3]};
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4],
                  f = h_[5], g = h_[6], h = h_[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + k[static_cast<std::size_t>(i)] +
                               w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
  }

  std::array<std::uint32_t, 8> h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                     0xa54ff53a, 0x510e527f, 0x9b05688c,
                                     0x1f83d9ab, 0x5be0cd19};
  std::array<unsigned char, 64> block_{};
  std::size_t used_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace

std::string sha256_hex(std::string_view data) {
  Sha256 sha;
  sha.update(reinterpret_cast<const unsigned char*>(data.data()), data.size());
  return sha.hex();
}

std::string sha256_file(
    const std::string& path,
    const std::function<void(std::string_view)>& each_chunk) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) return {};
  Sha256 sha;
  std::vector<unsigned char> buffer(1 << 20);
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), file)) > 0) {
    sha.update(buffer.data(), n);
    if (each_chunk)
      each_chunk({reinterpret_cast<const char*>(buffer.data()), n});
  }
  const bool ok = !std::ferror(file);
  std::fclose(file);
  return ok ? sha.hex() : std::string{};
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool write_file(const std::string& path, std::string_view data) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out.flush());
}

std::map<std::string, std::string> read_kv(const std::string& path) {
  std::map<std::string, std::string> kv;
  std::istringstream in{read_file(path)};
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    kv[line.substr(0, space)] = line.substr(space + 1);
  }
  return kv;
}

bool write_kv(const std::string& path,
              const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string text;
  for (const auto& [key, value] : kv) text += key + " " + value + "\n";
  // Written then renamed, so a reader never sees a half-written file: the
  // census doubles as the marker that an input set is complete.
  const std::string tmp = path + ".tmp";
  return write_file(tmp, text) && std::rename(tmp.c_str(), path.c_str()) == 0;
}

ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path,
                   const std::string& stderr_path, double deadline_s) {
  ChildRun run;
  std::vector<char*> args;
  for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const std::int64_t t0 = now_ns();
  const int spawned = posix_spawn(&pid, args[0], &actions, nullptr,
                                  args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    std::fprintf(stderr, "dnh_bench: cannot start %s: %s\n", args[0],
                 std::strerror(spawned));
    return run;
  }
  // Block until the child exits or its deadline passes; the pidfd wakes
  // the poll the moment the child ends, so the wall time is not padded.
  const int pidfd = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
  if (pidfd >= 0) {
    pollfd waiter{pidfd, POLLIN, 0};
    int ready = 0;
    do {
      ready = poll(&waiter, 1, static_cast<int>(deadline_s * 1000));
    } while (ready < 0 && errno == EINTR);
    if (ready == 0) {
      std::fprintf(stderr, "dnh_bench: %s exceeded %.0f s; killed\n",
                   args[0], deadline_s);
      kill(pid, SIGKILL);
    }
    close(pidfd);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  run.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  run.rss_masked = usage.ru_maxrss <= self.ru_maxrss;
  return run;
}

std::string self_exe() {
  std::error_code ec;
  return std::filesystem::read_symlink("/proc/self/exe", ec).string();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

namespace {

std::string trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

/// HEAD of the repository the benchmark was built from, read from .git
/// directly; "unknown" outside a git checkout.
std::string git_head(const std::string& root) {
  const std::string git = root + "/.git/";
  std::string head = trim(read_file(git + "HEAD"));
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  std::string sha = trim(read_file(git + ref));
  if (!sha.empty()) return sha;
  std::istringstream packed{read_file(git + "packed-refs")};
  std::string line;
  while (std::getline(packed, line)) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0)
      return line.substr(0, 40);
  }
  return "unknown";
}

}  // namespace

Context stamp_context() {
  Context context;
  context.hw_threads = std::thread::hardware_concurrency();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    context.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  double load[1] = {0};
  if (getloadavg(load, 1) == 1) context.loadavg_1m = load[0];
  std::istringstream cpuinfo{read_file("/proc/cpuinfo")};
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(": ");
      if (colon != std::string::npos) context.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  context.compiler = DNH_BENCH_COMPILER;
  context.build_type = DNH_BENCH_BUILD_TYPE;
  context.git_sha = git_head(DNH_BENCH_ROOT);
  context.comparable = context.nproc >= 4 && context.loadavg_1m <= 1.0;
  if (!context.comparable)
    std::fprintf(stderr,
                 "warning: result not comparable: nproc %u (need >= 4), "
                 "1-min loadavg %.2f (need <= 1)\n",
                 context.nproc, context.loadavg_1m);
  return context;
}

std::string context_json(const Context& c) {
  std::string out = "{\"hw_threads\": " + std::to_string(c.hw_threads) +
                    ", \"nproc\": " + std::to_string(c.nproc) +
                    ", \"loadavg_1m\": " + json_number(c.loadavg_1m) +
                    ", \"cpu_model\": " + json_string(c.cpu_model) +
                    ", \"compiler\": " + json_string(c.compiler) +
                    ", \"build_type\": " + json_string(c.build_type) +
                    ", \"git_sha\": " + json_string(c.git_sha) +
                    ", \"comparable\": " + (c.comparable ? "true" : "false") +
                    ", \"input_hashes\": {";
  for (std::size_t i = 0; i < c.input_hashes.size(); ++i) {
    if (i) out += ", ";
    out += json_string(c.input_hashes[i].first) + ": " +
           json_string(c.input_hashes[i].second);
  }
  return out + "}}";
}

}  // namespace dnh::e2e
