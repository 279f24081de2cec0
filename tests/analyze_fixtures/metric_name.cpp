// dnh-analyze-fixture: path=src/obs/metric_name.cpp expect=metric-name@19,metric-name@20,metric-name@21
// Registered metric names start with dnh_, and their base name (label
// block stripped) is a whole identifier in docs/observability.md: a
// prefix of a documented name does not count. Outside the parser,
// hot-path and spill code, a throw, an unbounded map and a raw write are
// no site-rule business.
#include <map>

namespace dnh::obs {

std::map<int, int> registered;

void register_all(Registry& reg, int fd) {
  reg.counter("dnh_frames_total");
  reg.gauge("dnh_pipeline_routes");
  reg.histogram("dnh_stage_decode_ns");
  reg.gauge("dnh_shard_queue_depth{shard=3}");
  reg.gauge(shard_label("dnh_resolver_cache_size", 2));
  reg.counter("frames_total");
  reg.histogram("dnh_bogus_widget_latency_ns");
  reg.counter("dnh_pipeline_frames");
  // dnh-analyze: allow(metric-name, an allow silences exactly this site)
  reg.counter("legacy_frames_total");
  if (fd < 0) throw fd;
  ::write(fd, "x", 1);
}

}  // namespace dnh::obs
