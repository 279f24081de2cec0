#include "probe.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "support.hpp"
#include "workloads.hpp"

namespace dnh::e2e {

double probe_kernel_s() {
  constexpr std::size_t kEntries = std::size_t{4} << 20;  // 32 MiB
  constexpr int kChaseSteps = 600'000;
  constexpr std::uint64_t kHashRounds = 25'000'000;

  // Sattolo's shuffle makes one cycle through every entry, so each step of
  // the chase is a dependent load from a place the caches cannot predict.
  std::vector<std::uint64_t> next(kEntries);
  std::iota(next.begin(), next.end(), std::uint64_t{0});
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = kEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  std::vector<char> a(kEntries * sizeof(std::uint64_t), 1);
  std::vector<char> b(a.size(), 0);

  const std::int64_t t0 = now_ns();
  std::uint64_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) at = next[at];
  std::memcpy(b.data(), a.data(), a.size());
  b[at % b.size()] ^= 1;
  std::memcpy(a.data(), b.data(), b.size());
  std::uint64_t h = 0xcbf29ce484222325ULL + static_cast<unsigned char>(a[7]);
  for (std::uint64_t i = 0; i < kHashRounds; ++i) {
    h ^= i;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  const std::int64_t t1 = now_ns();

  // Keeps the work observable so the compiler cannot drop it.
  volatile std::uint64_t sink = h + at;
  (void)sink;
  return static_cast<double>(t1 - t0) * 1e-9;
}

double probe_host_s() {
  const std::string out = output_dir() + "/probe";
  const ChildRun child =
      run_child({self_exe(), "probe"}, out + ".stdout", out + ".stderr");
  if (child.exit_code != 0) return 0;
  return std::strtod(read_file(out + ".stdout").c_str(), nullptr);
}

double host_slowdown(const std::vector<double>& probes) {
  const double probe = median(probes);
  return probe > 0 ? probe / kProbeReferenceS : 1.0;
}

}  // namespace dnh::e2e
