// dnh-analyze-fixture: path=src/pipeline/trace_catalog.cpp expect=trace-catalog@16,trace-catalog@17
// Recorded TraceKind values must be whole identifiers in the
// docs/observability.md trace-event catalog. Kind names in strings or
// comments (TraceKind::kMadeUp) are not uses; kStall is only a prefix of
// the documented kStallDeclared.
#include "obs/flight.hpp"

namespace dnh::pipeline {

void trace_window_lifecycle(std::uint64_t seq, unsigned shard) {
  obs::trace_event(obs::TraceStage::kDispatch,
                   obs::TraceKind::kWindowDispatched, seq);
  obs::trace_event(obs::TraceStage::kShard, obs::TraceKind::kWindowSealed,
                   seq, shard);
  const char* prose = "TraceKind::kMadeUp stays inert inside a string";
  obs::trace_event(obs::TraceStage::kMerge, obs::TraceKind::kMysteryEvent);
  obs::trace_event(obs::TraceStage::kMerge, obs::TraceKind::kStall);
  (void)prose;
}

}  // namespace dnh::pipeline
