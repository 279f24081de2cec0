// Long-running deployment pattern: the paper's sniffer ran live at three
// vantage points for months. ShardedAnalyzer (one shard: it runs inline
// on this thread) rotates the labeled flow database on clean window
// boundaries, so each completed window can be persisted and analyzed
// while memory stays bounded — here every 30-minute window is written as
// TSV and summarized, exactly what a production deployment's collection
// loop looks like.
//
// Run: ./build/examples/live_rotation
#include <cstdio>

#include "core/flowdb_io.hpp"
#include "pipeline/pipeline.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"
#include "util/strings.hpp"

int main() {
  using namespace dnh;

  auto profile = trafficgen::profile_eu1_adsl2();
  profile.duration = util::Duration::hours(2);
  profile.n_clients = 80;
  trafficgen::Simulator sim{profile};
  const std::string pcap = "/tmp/dnh_live.pcap";
  std::printf("generating 2h capture ...\n");
  sim.write_pcap(pcap);

  pipeline::PipelineConfig config;
  config.shards = 1;
  config.window = util::Duration::minutes(30);

  int window_id = 0;
  pipeline::ShardedAnalyzer live{
      config, [&](core::AnalysisWindow&& window) {
        std::uint64_t labeled = 0;
        for (const auto& flow : window.db.flows()) labeled += flow.labeled();
        const std::string path =
            "/tmp/dnh_window_" + std::to_string(window_id++) + ".tsv";
        core::write_flow_tsv(window.db, path);
        std::printf(
            "window %s-%s: %s flows (%s labeled), %s DNS responses -> %s\n",
            util::format_hhmm(window.start).c_str(),
            util::format_hhmm(window.end).c_str(),
            util::with_commas(window.db.size()).c_str(),
            util::with_commas(labeled).c_str(),
            util::with_commas(window.dns_log.size()).c_str(), path.c_str());
      }};

  // In production the capture interface calls live.on_frame per packet;
  // here process_pcap replays the file through the identical code path.
  if (!live.process_pcap(pcap)) {
    std::fprintf(stderr, "error: %s\n", live.error().c_str());
    return 1;
  }
  live.finish();

  std::printf(
      "\n%llu windows delivered; resolver and open-flow state persisted "
      "across all of them.\n",
      static_cast<unsigned long long>(live.stats().windows_merged));
  return 0;
}
