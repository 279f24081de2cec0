// Long-running deployment support: the paper's sniffer ran live at three
// vantage points "since March 2012" — an append-only FlowDatabase cannot.
// pipeline::ShardedAnalyzer rotates the flow database on time-window
// boundaries and hands each completed window (its flows plus its slice of
// the DNS log) to a sink — to be persisted (flowdb_io), analyzed, and
// dropped.
#pragma once

#include <vector>

#include "core/flowdb.hpp"
#include "core/sniffer.hpp"

namespace dnh::core {

/// One rotated window of labeled traffic.
struct AnalysisWindow {
  util::Timestamp start;
  util::Timestamp end;
  FlowDatabase db;
  std::vector<DnsEvent> dns_log;
};

}  // namespace dnh::core
