// The four workloads. Each Run* function is an untraced run that reports the end-to-end
// metrics; each Trace* function is that workload's share of the traced run, which
// reports the per-layer metrics from spans recorded around calls into the library.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "perfbench/host_speed.h"
#include "perfbench/report.h"
#include "src/runtime/stats.h"

namespace perfbench {

// Layer micro-measurements are repeated this many times and reported as the median.
inline constexpr int kSetupReps = 5;
// Before its first pass a workload builds its set-up kSetupBuilds times, each build
// pinned to the next host CPU and timed between two yardstick readings of
// kSetupReadingUnits units on that CPU (a build takes 0.1-10 ms); it keeps the last
// build. Builds made after passes instead, into caches and a heap the pass had just
// used, read up to 45% slower in some runs than in others of the same code.
inline constexpr int kSetupBuilds = 64;
inline constexpr int kSetupReadingUnits = 3;

void RunSweep(const Options& options, Report& report);
void RunScale1024(const Options& options, Report& report);
void RunNativeKv(const Options& options, Report& report);
void RunMck(const Options& options, Report& report);

void TraceSweep(const Options& options, Report& report);
void TraceScale1024(const Options& options, Report& report);
void TraceNativeKv(const Options& options, Report& report);
void TraceMck(const Options& options, Report& report);

// Builds a workload's set-up with `make` kSetupBuilds times as above; reports setup_s,
// the median build rescaled to reference speed (and the raw median, setup_raw_s), and
// returns the last build. The other builds are destroyed untimed.
template <class Make>
auto MeasureSetup(Make make, Report& report) {
  const HostCpus& host = HostCpus::Allowed();
  std::vector<double> raw_s;
  std::vector<double> reference_s;
  decltype(make()) kept;
  for (int i = 0; i < kSetupBuilds; ++i) {
    host.Pin(i);
    const double before = SecondsPerUnit(kSetupReadingUnits);
    const int64_t start = NowNs();
    auto built = make();
    raw_s.push_back(Seconds(NowNs() - start));
    const double unit_s = (before + SecondsPerUnit(kSetupReadingUnits)) / 2;
    reference_s.push_back(raw_s.back() * kReferenceUnitS / unit_s);
    kept = std::move(built);
  }
  host.Unpin();
  report.Add("setup_s", clof::runtime::Median(reference_s), "s");
  report.Add("setup_raw_s", clof::runtime::Median(raw_s), "s");
  return kept;
}

// The cost the benchmark's own spans add to one piece of work. `untraced` and `traced`
// each do the work once, by the same code path, and return its seconds. The untraced
// run goes before and after the traced one, so neither warm-up nor a steady drift of
// the host's speed is charged to the spans.
struct TraceOverhead {
  double untraced_s;  // mean of the two untraced runs
  double frac;        // (traced - untraced) / untraced
};
template <class Untraced, class Traced>
TraceOverhead MeasureTraceOverhead(Untraced untraced, Traced traced) {
  const double before = untraced();
  const double traced_s = traced();
  const double untraced_s = (before + untraced()) / 2;
  return {untraced_s, (traced_s - untraced_s) / untraced_s};
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
