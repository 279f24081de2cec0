// Seeded, cached benchmark inputs (`dnh_bench prep`).
//
// One seed gives one simulated vantage point (trafficgen's EU1-FTTH
// profile, TraceProfile::seed = the seed) and every file the workloads
// read is derived from it:
//
//   capture.pcap  the packet capture, time-replicated to the target size
//   dns.pcap      its port-53 frames only, the DNS side of flow-export ingest
//   flows.dnhx    the same world as NetFlow-v5 export datagrams (DNHX)
//   empty.pcap, empty.dnhx   header-only files for set-up time
//
// Replicas are shifted by the base trace's span plus ten minutes, so the
// idle timeout splits them into fresh flows and the inputs behave like a
// longer capture of the same client population (bench_pipeline_scaling's
// corpus does the same). Export records are replicated by decoding,
// shifting and re-encoding, because their timestamps live inside the
// datagrams.
//
// Inputs are keyed by scale, seed and a fingerprint of the generator
// settings. The census file is written last and marks a complete set. The
// `--jobs 1` reference outputs are keyed by the hash of the dnhunter
// binary as well, so each build checks against its own single-threaded
// output.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dnh::e2e {

struct Scale {
  const char* name;
  int clients;
  int base_minutes;
  std::size_t capture_frames;  ///< capture replicated to at least this
  std::size_t export_inputs;   ///< DNS frames + export records, at least
};

inline constexpr Scale kFullScale{"full", 1000, 40, 1'000'000, 1'000'000};
/// Tiny inputs for `dnh_bench smoke`, which must finish in seconds.
inline constexpr Scale kSmokeScale{"smoke", 40, 10, 20'000, 20'000};

/// What `dnhunter export` wrote: the gate every timed run must match.
struct TsvSummary {
  std::string sha256;
  std::uint64_t flows = 0;
  std::uint64_t labeled = 0;
  double tag_ratio() const {
    return flows ? static_cast<double>(labeled) / static_cast<double>(flows)
                 : 0.0;
  }
};

/// Hashes a flow TSV and counts its rows and labelled rows.
TsvSummary summarize_tsv(const std::string& path);

struct Inputs {
  std::string dir;
  std::string capture_pcap;
  std::string dns_pcap;
  std::string flows_dnhx;
  std::string empty_pcap;
  std::string empty_dnhx;
  std::uint64_t capture_frames = 0;
  std::uint64_t dns_frames = 0;
  std::uint64_t export_records = 0;
  TsvSummary capture_ref;  ///< `export capture.pcap --jobs 1`
  TsvSummary export_ref;   ///< `export dns.pcap --flow-export flows.dnhx --jobs 1`
  /// file name -> sha256, for the context stamp.
  std::vector<std::pair<std::string, std::string>> hashes;
  /// The printable census: frames, responses, flows, records, bytes, hashes.
  std::vector<std::pair<std::string, std::string>> census;
};

/// Root of the input cache: $DNH_BENCH_CACHE, else .bench_build/cache
/// under the working directory.
std::string cache_root();

/// Generates the inputs for `seed` in this process unless a complete set
/// is cached (`dnh_bench prep`). Exits on failure.
void generate_inputs(std::uint64_t seed, const Scale& scale);

/// The inputs for `seed`, generated by a `dnh_bench prep` child when not
/// cached, and the reference outputs of this build's dnhunter. Exits on
/// failure.
Inputs prepare_inputs(std::uint64_t seed, const Scale& scale);

}  // namespace dnh::e2e
