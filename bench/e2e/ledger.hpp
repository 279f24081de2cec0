// The per-layer ledger (`dnh_bench trace`).
//
// Spans are recorded from the benchmark's own code around calls into each
// module's public functions; nothing inside the program is instrumented.
// Two kinds of measurement feed the ledger:
//
//  - the workload's main path, replayed in-process through the same
//    public calls the CLI (or the live feed) makes: pcap read,
//    Sniffer::on_frame/finish or ShardedAnalyzer::on_frame/
//    on_export_record/finish, canonicalize, write_flow_tsv. These layers
//    are "on path": on the main thread they must add up to the
//    end-to-end wall time minus set-up (trace.closure_ratio);
//  - the sniffer's inner layers (decode_frame, scan_response,
//    DomainTable::intern, DnsResolver::insert/lookup, FlowTable::on_packet,
//    RecordOrienter::orient, Sniffer::on_export_record), each replayed in
//    isolation on exactly the inputs the sniffer would hand it, in capture
//    order. core.sniffer.self is the sniffer umbrella minus these.
//
// Every call is timed with steady_clock, less the clock's own calibrated
// cost. Spans for one input in 1024 are kept and written as Chrome-trace
// JSON when the ledger is done.
#pragma once

#include <string>

#include "inputs.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace dnh::e2e {

struct Ledger {
  Metrics per_layer;  ///< the per-layer metrics BENCHMARK.json names
  std::string json;   ///< the whole ledger: every layer, ratio, top three
  std::string table;  ///< the same, for people
  /// Failed gates: a traced replay whose output differs from the
  /// reference, or a named metric the ledger could not measure.
  std::vector<std::string> problems;
};

/// Builds the ledger of `workload`; `e2e` is its untraced measurement,
/// which supplies the wall time the main-path layers must add up to.
Ledger build_ledger(const Workload& workload, const Inputs& inputs,
                    const RunResult& e2e, const std::string& spans_path);

}  // namespace dnh::e2e
