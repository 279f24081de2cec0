// Host-speed probe.
//
// The host this benchmark was sized on is a shared VM whose speed drifts:
// a single-threaded, CPU-bound `dnhunter export` ran 5% slower or faster
// from one minute to the next, and up to 40% slower during another
// tenant's burst, with its CPU time tracking its wall time throughout. No
// run length averages that out. The probe is a fixed piece of work that
// is not the program under test: a dependent pointer chase through 32 MiB
// (memory latency), two 32 MiB copies (bandwidth) and an integer hash loop
// (the core). It runs in a child of its own, so neither its memory nor
// its time lands on anything measured, right before each measured run.
//
// The time metrics are reported at the reference speed: multiplied by
// kProbeReferenceS / median(probe time) for throughput, divided by it for
// times. The raw values stay in the diagnostics.
#pragma once

#include <vector>

namespace dnh::e2e {

/// Median probe time on the sizing host when it was quiet (Xeon, 4 vCPU).
/// Only ratios to it matter; any constant would do.
inline constexpr double kProbeReferenceS = 0.15;

/// Runs the probe kernel in this process and returns its time in seconds
/// (`dnh_bench probe` prints it).
double probe_kernel_s();

/// Runs the probe in a child process; 0 when the child failed.
double probe_host_s();

/// How much slower the host ran than the reference: median of `probes`
/// over kProbeReferenceS, or 1 without samples.
double host_slowdown(const std::vector<double>& probes);

}  // namespace dnh::e2e
