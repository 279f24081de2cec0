#include "inputs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string_view>

#include "flowexport/stream.hpp"
#include "flowexport/wire.hpp"
#include "packet/decode.hpp"
#include "pcap/pcap.hpp"
#include "pcap/pcapng.hpp"
#include "support.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"

namespace dnh::e2e {

namespace fs = std::filesystem;

namespace {

/// Bumped whenever generation changes in a way the settings below do not
/// capture, so stale caches are never reused.
constexpr int kGeneratorVersion = 1;
/// Input sets kept in the cache (about 190 MB each); older ones are
/// deleted by prep. Ten, so a sweep over ten seeds, one workload after
/// another, generates each seed once.
constexpr std::size_t kKeepInputSets = 10;
const util::Duration kReplicaGap = util::Duration::minutes(10);

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "dnh_bench prep: %s\n", message.c_str());
  std::exit(1);
}

trafficgen::TraceProfile profile_for(std::uint64_t seed, const Scale& scale) {
  trafficgen::TraceProfile profile = trafficgen::profile_eu1_ftth();
  profile.n_clients = scale.clients;
  profile.duration = util::Duration::minutes(scale.base_minutes);
  profile.seed = seed;
  return profile;
}

std::string fingerprint(const trafficgen::TraceProfile& profile,
                        const Scale& scale) {
  const std::string settings =
      "gen=" + std::to_string(kGeneratorVersion) + " profile=" +
      profile.name + " clients=" + std::to_string(profile.n_clients) +
      " minutes=" + std::to_string(scale.base_minutes) +
      " world_seed=" + std::to_string(profile.world.seed) +
      " capture=" + std::to_string(scale.capture_frames) +
      " export=" + std::to_string(scale.export_inputs) +
      " gap_us=" + std::to_string(kReplicaGap.total_micros());
  return sha256_hex(settings).substr(0, 12);
}

std::string input_dir(std::uint64_t seed, const Scale& scale) {
  return cache_root() + "/" + scale.name + "-seed" + std::to_string(seed) +
         "-" + fingerprint(profile_for(seed, scale), scale);
}

bool is_dns_port(const packet::DecodedPacket& pkt) {
  return pkt.src_port() == 53 || pkt.dst_port() == 53;
}

bool is_dns_response(const pcap::Frame& frame) {
  const auto pkt = packet::decode_frame(frame.data, frame.timestamp);
  return pkt && pkt->is_udp() && pkt->src_port() == 53;
}

std::vector<pcap::Frame> read_frames(const std::string& path) {
  std::vector<pcap::Frame> frames;
  std::string error;
  if (!pcap::read_any_capture(
          path, [&](const pcap::Frame& frame) { frames.push_back(frame); },
          error))
    fail("cannot read " + path + ": " + error);
  return frames;
}

util::Duration replica_offset(util::Duration stride, std::size_t k) {
  return util::Duration::micros(stride.total_micros() *
                                static_cast<std::int64_t>(k));
}

/// Writes `replicas` copies of `base`, copy k shifted by k * stride.
/// Returns the number of DNS responses written.
std::uint64_t write_replicas(const std::string& path,
                             const std::vector<pcap::Frame>& base,
                             std::size_t replicas, util::Duration stride) {
  auto writer = pcap::Writer::create(path);
  if (!writer) fail("cannot create " + path);
  for (std::size_t k = 0; k < replicas; ++k) {
    for (const pcap::Frame& frame : base) {
      pcap::Frame shifted = frame;
      shifted.timestamp = frame.timestamp + replica_offset(stride, k);
      writer->write(shifted);
    }
  }
  writer->flush();
  const auto responses = static_cast<std::uint64_t>(
      std::count_if(base.begin(), base.end(), is_dns_response));
  return responses * replicas;
}

std::size_t replicas_for(std::size_t target, std::size_t per_replica) {
  if (per_replica == 0) fail("the generated trace is empty");
  return std::max<std::size_t>(1, (target + per_replica - 1) / per_replica);
}

/// The base trace's export records, replicated like the frames and
/// re-encoded as NetFlow v5 into a DNHX stream. Returns records written.
std::uint64_t write_export_replicas(const std::string& base_path,
                                    const std::string& path,
                                    std::size_t replicas,
                                    util::Duration stride) {
  flowexport::DatagramReader reader;
  if (!reader.open(base_path)) fail("cannot read " + base_path);
  flowexport::ExportDecoder decoder;
  std::vector<flowexport::ExportRecord> records;
  flowexport::Datagram datagram;
  while (reader.next(datagram))
    decoder.on_datagram(
        net::BytesView{datagram.payload.data(), datagram.payload.size()},
        records);
  if (decoder.stats().parse_errors() != 0)
    fail("generated export stream did not decode cleanly");

  flowexport::ExportEncoder encoder;
  for (std::size_t k = 0; k < replicas; ++k) {
    for (flowexport::ExportRecord record : records) {
      record.first = record.first + replica_offset(stride, k);
      record.last = record.last + replica_offset(stride, k);
      encoder.add(record);
    }
  }
  encoder.flush();
  flowexport::DatagramWriter writer;
  if (!writer.create(path)) fail("cannot create " + path);
  for (const auto& out : encoder.take_datagrams()) {
    if (!writer.write(out.export_time,
                      net::BytesView{out.payload.data(), out.payload.size()}))
      fail("cannot write " + path);
  }
  if (!writer.close()) fail("cannot write " + path);
  return encoder.records_encoded();
}

void generate(const std::string& dir, std::uint64_t seed, const Scale& scale,
              const std::string& census_path) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  std::fprintf(stderr, "dnh_bench prep: generating %s\n", dir.c_str());
  const std::int64_t t0 = now_ns();

  trafficgen::Simulator sim{profile_for(seed, scale)};
  const std::string base_pcap = dir + "/base.pcap";
  const std::string base_dnhx = dir + "/base.dnhx";
  if (!sim.write_pcap(base_pcap)) fail("cannot write " + base_pcap);
  if (!sim.write_flow_export(base_dnhx)) fail("cannot write " + base_dnhx);
  const std::vector<pcap::Frame> base = read_frames(base_pcap);
  if (base.empty()) fail("the generated trace is empty");

  util::Timestamp first = base.front().timestamp;
  util::Timestamp last = first;
  for (const auto& frame : base) {
    first = std::min(first, frame.timestamp);
    last = std::max(last, frame.timestamp);
  }
  // Whole seconds: NetFlow v5 carries millisecond times, so a sub-second
  // shift would not survive re-encoding exactly.
  const std::int64_t span_s = (last - first).total_micros() / 1'000'000 + 1;
  const util::Duration stride =
      util::Duration::seconds(static_cast<double>(span_s)) + kReplicaGap;

  const std::size_t capture_replicas =
      replicas_for(scale.capture_frames, base.size());
  const std::uint64_t capture_responses = write_replicas(
      dir + "/capture.pcap", base, capture_replicas, stride);

  std::vector<pcap::Frame> dns_base;
  for (const auto& frame : base) {
    const auto pkt = packet::decode_frame(frame.data, frame.timestamp);
    if (pkt && is_dns_port(*pkt)) dns_base.push_back(frame);
  }
  flowexport::DatagramReader counter;
  std::uint64_t base_records = 0;
  if (counter.open(base_dnhx)) {
    flowexport::ExportDecoder decoder;
    std::vector<flowexport::ExportRecord> records;
    flowexport::Datagram datagram;
    while (counter.next(datagram)) {
      records.clear();
      decoder.on_datagram(
          net::BytesView{datagram.payload.data(), datagram.payload.size()},
          records);
      base_records += records.size();
    }
  }
  const std::size_t export_replicas =
      replicas_for(scale.export_inputs, dns_base.size() + base_records);
  const std::uint64_t dns_responses =
      write_replicas(dir + "/dns.pcap", dns_base, export_replicas, stride);
  const std::uint64_t records = write_export_replicas(
      base_dnhx, dir + "/flows.dnhx", export_replicas, stride);

  if (!pcap::Writer::create(dir + "/empty.pcap"))
    fail("cannot create empty.pcap");
  flowexport::DatagramWriter empty_dnhx;
  if (!empty_dnhx.create(dir + "/empty.dnhx") || !empty_dnhx.close())
    fail("cannot create empty.dnhx");
  fs::remove(base_pcap, ec);
  fs::remove(base_dnhx, ec);

  std::vector<std::pair<std::string, std::string>> census = {
      {"seed", std::to_string(seed)},
      {"scale", scale.name},
      {"base_frames", std::to_string(base.size())},
      {"capture_replicas", std::to_string(capture_replicas)},
      {"capture_frames", std::to_string(capture_replicas * base.size())},
      {"capture_dns_responses", std::to_string(capture_responses)},
      {"export_replicas", std::to_string(export_replicas)},
      {"dns_frames", std::to_string(export_replicas * dns_base.size())},
      {"dns_responses", std::to_string(dns_responses)},
      {"export_records", std::to_string(records)},
  };
  for (const char* file :
       {"capture.pcap", "dns.pcap", "flows.dnhx", "empty.pcap", "empty.dnhx"}) {
    const std::string path = dir + "/" + file;
    // Written back now, so the write-back of ~200 MB does not run
    // beside the first measured runs.
    if (const int fd = ::open(path.c_str(), O_RDONLY); fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
    census.emplace_back(std::string{file} + ".bytes",
                        std::to_string(fs::file_size(path)));
    census.emplace_back(std::string{file} + ".sha256", sha256_file(path));
  }
  census.emplace_back("generate_s",
                      json_number(static_cast<double>(now_ns() - t0) * 1e-9));
  if (!write_kv(census_path, census)) fail("cannot write " + census_path);
}

/// Runs this build's dnhunter at --jobs 1 and summarizes its TSV.
TsvSummary reference(const std::vector<std::string>& input_args,
                     const std::string& dir, const char* name) {
  const std::string tsv = dir + "/ref-" + name + ".tsv";
  std::vector<std::string> argv = {DNH_BENCH_CLI, "export"};
  argv.insert(argv.end(), input_args.begin(), input_args.end());
  argv.insert(argv.end(), {"--out", tsv, "--jobs", "1"});
  const ChildRun run =
      run_child(argv, dir + "/ref.stdout", dir + "/ref.stderr");
  if (run.exit_code != 0)
    fail(std::string{"reference run failed for "} + name + " (see " + dir +
         "/ref.stderr)");
  TsvSummary summary = summarize_tsv(tsv);
  std::error_code ec;
  fs::remove(tsv, ec);
  return summary;
}

/// Deletes the oldest complete input sets beyond kKeepInputSets.
void evict_old_sets(const std::string& root, const std::string& keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> sets;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator{root, ec}) {
    const fs::path census = entry.path() / "census.txt";
    if (entry.is_directory() && fs::exists(census) && entry.path() != keep)
      sets.emplace_back(fs::last_write_time(census), entry.path());
  }
  if (sets.size() + 1 <= kKeepInputSets) return;
  std::sort(sets.begin(), sets.end());
  for (std::size_t i = 0; i + kKeepInputSets < sets.size() + 1; ++i)
    fs::remove_all(sets[i].second, ec);
}

std::uint64_t as_u64(const std::map<std::string, std::string>& kv,
                     const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) fail("census lacks " + key);
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

}  // namespace

TsvSummary summarize_tsv(const std::string& path) {
  // Streamed in chunks: the benchmark's own memory must stay below the
  // peak RSS it measures for its children (see run_child).
  TsvSummary summary;
  bool line_start = true, comment = false, labeled = false;
  int tabs = 0;
  summary.sha256 = sha256_file(path, [&](std::string_view chunk) {
    for (const char c : chunk) {
      if (line_start) {
        line_start = labeled = false;
        comment = c == '#';
        tabs = 0;
        summary.flows += !comment;
      }
      if (c == '\n') {
        line_start = true;
      } else if (c == '\t') {
        ++tabs;
      } else if (tabs == 12 && !comment && !labeled) {
        // Column 13 is the fqdn label; empty means unlabelled.
        labeled = true;
        ++summary.labeled;
      }
    }
  });
  return summary;
}

std::string cache_root() {
  if (const char* dir = std::getenv("DNH_BENCH_CACHE"); dir && *dir)
    return dir;
  return (fs::current_path() / ".bench_build" / "cache").string();
}

void generate_inputs(std::uint64_t seed, const Scale& scale) {
  const std::string dir = input_dir(seed, scale);
  const std::string census_path = dir + "/census.txt";
  if (fs::exists(census_path)) return;
  generate(dir, seed, scale, census_path);
  evict_old_sets(cache_root(), dir);
}

Inputs prepare_inputs(std::uint64_t seed, const Scale& scale) {
  const std::string dir = input_dir(seed, scale);
  const std::string census_path = dir + "/census.txt";
  if (!fs::exists(census_path)) {
    // Generated in a child: generation holds the whole base trace, and
    // this process must stay small (see run_child).
    fs::create_directories(cache_root());
    std::vector<std::string> argv = {self_exe(), "prep", "--seed",
                                     std::to_string(seed)};
    if (&scale == &kSmokeScale) argv.push_back("--smoke");
    const ChildRun run = run_child(argv, cache_root() + "/prep.stdout",
                                   cache_root() + "/prep.stderr");
    if (run.exit_code != 0 || !fs::exists(census_path))
      fail("generating inputs failed (see " + cache_root() + "/prep.stderr)");
  }
  const auto census = read_kv(census_path);

  Inputs in;
  in.dir = dir;
  in.capture_pcap = dir + "/capture.pcap";
  in.dns_pcap = dir + "/dns.pcap";
  in.flows_dnhx = dir + "/flows.dnhx";
  in.empty_pcap = dir + "/empty.pcap";
  in.empty_dnhx = dir + "/empty.dnhx";
  in.capture_frames = as_u64(census, "capture_frames");
  in.dns_frames = as_u64(census, "dns_frames");
  in.export_records = as_u64(census, "export_records");
  for (const char* file : {"capture.pcap", "dns.pcap", "flows.dnhx"})
    in.hashes.emplace_back(file, census.at(std::string{file} + ".sha256"));

  const std::string cli_sha = sha256_file(DNH_BENCH_CLI);
  if (cli_sha.empty()) fail(std::string{"cannot read "} + DNH_BENCH_CLI);
  const std::string ref_path = dir + "/ref-" + cli_sha.substr(0, 12) + ".txt";
  if (!fs::exists(ref_path)) {
    const TsvSummary capture = reference({in.capture_pcap}, dir, "capture");
    const TsvSummary exported = reference(
        {in.dns_pcap, "--flow-export", in.flows_dnhx}, dir, "export");
    if (!write_kv(ref_path,
                  {{"capture.sha256", capture.sha256},
                   {"capture.flows", std::to_string(capture.flows)},
                   {"capture.labeled", std::to_string(capture.labeled)},
                   {"export.sha256", exported.sha256},
                   {"export.flows", std::to_string(exported.flows)},
                   {"export.labeled", std::to_string(exported.labeled)}}))
      fail("cannot write " + ref_path);
  }
  const auto ref = read_kv(ref_path);
  in.capture_ref = {ref.at("capture.sha256"), as_u64(ref, "capture.flows"),
                    as_u64(ref, "capture.labeled")};
  in.export_ref = {ref.at("export.sha256"), as_u64(ref, "export.flows"),
                   as_u64(ref, "export.labeled")};

  in.census.assign(census.begin(), census.end());
  in.census.emplace_back("capture.flows", std::to_string(in.capture_ref.flows));
  in.census.emplace_back("export.flows", std::to_string(in.export_ref.flows));
  in.census.emplace_back("reference.capture.sha256", in.capture_ref.sha256);
  in.census.emplace_back("reference.export.sha256", in.export_ref.sha256);
  return in;
}

}  // namespace dnh::e2e
