// Workload `sweep`: the default `clof_bench --sweep` on the simulated Arm machine — all
// 256 generated 4-level compositions x 10 thread counts = 2560 short cells — on
// min(4, nproc) executor workers with no cache and no journal. Per-cell set-up, the
// exec scheduler and select do most of the work here.
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>

#include "perfbench/workloads.h"
#include "src/clof/registry_internal.h"
#include "src/exec/executor.h"
#include "src/exec/result_cache.h"
#include "src/harness/lock_bench.h"
#include "src/select/scripted_bench.h"
#include "src/select/selection.h"

namespace perfbench {
namespace {

using namespace clof;

constexpr size_t kExpectedCells = 2560;
constexpr double kCellDurationMs = 1.0;  // clof_bench's --duration_ms default

// Everything constructed before the first timed call. The hierarchy points into
// `machine`, so the object stays where it was built.
struct SweepSetup {
  Registry registry = internal::BuildSimRegistryNoCtr();
  sim::Machine machine = sim::Machine::PaperArm();
  topo::Hierarchy hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "package", "system"});

  SweepSetup() { registry.set_description("sim-noctr"); }
  SweepSetup(const SweepSetup&) = delete;
  SweepSetup& operator=(const SweepSetup&) = delete;
};

int SweepJobs() { return std::min(4, exec::ResolveJobs(0)); }

select::SweepConfig MakeConfig(const SweepSetup& setup, uint64_t seed) {
  select::SweepConfig config;
  config.spec.machine = &setup.machine;
  config.spec.hierarchy = setup.hierarchy;
  config.spec.registry = &setup.registry;
  config.spec.seed = seed;
  config.duration_ms = kCellDurationMs;
  config.jobs = SweepJobs();
  return config;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameCurves(const std::vector<select::LockCurve>& a,
                const std::vector<select::LockCurve>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || !SameBits(a[i].throughput, b[i].throughput) ||
        !SameBits(a[i].local_handover_rate, b[i].local_handover_rate) ||
        !SameBits(a[i].transfers_per_op, b[i].transfers_per_op) ||
        !SameBits(a[i].acquire_p99_ns, b[i].acquire_p99_ns)) {
      return false;
    }
  }
  return true;
}

// Every cell ran and nothing was quarantined.
void CheckSweep(const select::SweepResult& result, Report& report) {
  const size_t cells = result.curves.size() * result.thread_counts.size();
  const size_t missing = cells >= kExpectedCells ? 0 : kExpectedCells - cells;
  report.Tally(std::max(cells, kExpectedCells), result.failures.size() + missing,
               "sweep cells failed or missing");
  report.Check(result.quarantined.empty(), "sweep quarantined a lock");
  report.Check(!result.selection.hc_best.empty(), "sweep selected no HC-best lock");
}

double HcTopThroughput(const select::SweepResult& result) {
  const select::LockCurve* curve = result.Curve(result.selection.hc_best);
  return curve == nullptr ? 0.0 : curve->throughput.back();
}

struct CellCounts {
  uint64_t accesses = 0;
  double handovers = 0.0;
  double local_handovers = 0.0;
  bool failed = false;
};

struct Rebuilt {
  std::vector<select::LockCurve> curves;
  std::vector<CellCounts> counts;  // one per cell, lock-major
  double wall_s = 0.0;             // the ParallelFor call
};

// The sweep's cells through Executor::ParallelFor + RunLockBench, exactly as
// RunScriptedBenchmark evaluates them (one run at the spec's seed). With a `recorder`
// each cell is a span under `parent`, tagged with the worker that ran it.
Rebuilt RebuildSweep(const SweepSetup& s, const select::SweepConfig& config,
                     const std::vector<int>& thread_counts, Recorder* recorder, int parent) {
  const std::vector<std::string> names =
      s.registry.Names({.levels = s.hierarchy.depth(), .generated_only = true});
  const int local_level = s.hierarchy.TopologyLevel(0);
  const size_t num_threads = thread_counts.size();

  Rebuilt out;
  out.curves.resize(names.size());
  for (size_t li = 0; li < names.size(); ++li) {
    out.curves[li].name = names[li];
    out.curves[li].throughput.resize(num_threads);
    out.curves[li].local_handover_rate.resize(num_threads);
    out.curves[li].transfers_per_op.resize(num_threads);
    out.curves[li].acquire_p99_ns.resize(num_threads);
  }
  out.counts.resize(names.size() * num_threads);

  harness::BenchConfig base;
  base.spec = config.spec;
  base.duration_ms = config.duration_ms;
  base.watchdog = config.watchdog;

  std::mutex worker_mu;
  std::map<std::thread::id, int> worker_ids;
  exec::Executor executor(config.jobs);
  const int64_t start = NowNs();
  executor.ParallelFor(out.counts.size(), [&](size_t task) {
    const size_t li = task / num_threads;
    const size_t ti = task % num_threads;
    harness::BenchConfig bench = base;
    bench.lock_name = names[li];
    bench.num_threads = thread_counts[ti];
    int span = -1;
    if (recorder != nullptr) {
      int worker = 0;
      {
        std::lock_guard<std::mutex> guard(worker_mu);
        worker = worker_ids.emplace(std::this_thread::get_id(), worker_ids.size())
                     .first->second;
      }
      span = recorder->Begin("harness::RunLockBench", parent, worker);
    }
    CellCounts& counts = out.counts[task];
    try {
      const harness::BenchResult run = harness::RunLockBench(bench);
      if (recorder != nullptr) {
        recorder->End(span);
      }
      select::LockCurve& curve = out.curves[li];
      curve.throughput[ti] = run.throughput_per_us;
      curve.local_handover_rate[ti] = run.HandoverLocalityAt(local_level);
      curve.transfers_per_op[ti] = run.total_ops == 0
                                       ? 0.0
                                       : static_cast<double>(run.total_line_transfers) /
                                             static_cast<double>(run.total_ops);
      curve.acquire_p99_ns[ti] = run.acquire_p99_ns;
      counts.accesses = run.total_accesses;
      counts.handovers = static_cast<double>(run.total_handovers);
      counts.local_handovers =
          run.HandoverLocalityAt(local_level) * static_cast<double>(run.total_handovers);
    } catch (const std::exception&) {
      if (recorder != nullptr) {
        recorder->End(span);
      }
      counts.failed = true;
    }
  });
  out.wall_s = Seconds(NowNs() - start);
  return out;
}

}  // namespace

void RunSweep(const Options& options, Report& report) {
  const std::unique_ptr<SweepSetup> setup =
      MeasureSetup([] { return std::make_unique<SweepSetup>(); }, report);
  const select::SweepConfig config = MakeConfig(*setup, options.seed);

  std::unique_ptr<select::SweepResult> first;
  const PassTimes passes = RepeatRescaled(
      options.seconds, 3, {PassShape::kWorkers, config.jobs},
      [&] {
        const int64_t start = NowNs();
        select::SweepResult result = select::RunScriptedBenchmark(config);
        const double seconds = Seconds(NowNs() - start);
        CheckSweep(result, report);
        if (first == nullptr) {
          first = std::make_unique<select::SweepResult>(std::move(result));
        } else {
          report.Check(SameCurves(first->curves, result.curves),
                       "sweep curves differ between passes");
        }
        return seconds;
      });

  AddPassMetrics(passes, report);
  report.Add("sel_hc_tput_per_us", HcTopThroughput(*first), "1/us");
  report.Note("hc_best", first->selection.hc_best);
  report.Note("sweep_jobs", std::to_string(config.jobs));
  report.Note("sweep_passes", std::to_string(passes.raw_s.size()));
}

void TraceSweep(const Options& options, Report& report) {
  std::unique_ptr<SweepSetup> setup = std::make_unique<SweepSetup>();
  const SweepSetup& s = *setup;
  select::SweepConfig config = MakeConfig(s, options.seed);

  // The real scripted benchmark: what the rebuilt curves must reproduce.
  int64_t start = NowNs();
  const select::SweepResult reference = select::RunScriptedBenchmark(config);
  const double reference_s = Seconds(NowNs() - start);
  CheckSweep(reference, report);

  // The rebuilt cells, untraced before and after the traced rebuild.
  const std::vector<int> thread_counts = harness::PaperThreadCounts(s.machine.topology);
  Recorder recorder;
  const int root = recorder.Begin("sweep.traced");
  int parallel_for = -1;
  Rebuilt rebuilt;
  const TraceOverhead overhead = MeasureTraceOverhead(
      [&] {
        const Rebuilt untraced = RebuildSweep(s, config, thread_counts, nullptr, -1);
        report.Check(SameCurves(untraced.curves, reference.curves),
                     "rebuilt sweep curves differ from RunScriptedBenchmark");
        return untraced.wall_s;
      },
      [&] {
        parallel_for = recorder.Begin("exec.Executor::ParallelFor", root);
        rebuilt = RebuildSweep(s, config, thread_counts, &recorder, parallel_for);
        recorder.End(parallel_for);
        return rebuilt.wall_s;
      });
  const std::vector<select::LockCurve>& curves = rebuilt.curves;
  const size_t num_cells = rebuilt.counts.size();

  std::vector<double> rank_ms;
  select::SelectionResult selection;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int span = recorder.Begin("select::SelectBest", root);
    selection = select::SelectBest(curves, thread_counts);
    recorder.End(span);
    rank_ms.push_back(static_cast<double>(recorder.spans()[span].duration_ns()) * 1e-6);
  }
  recorder.End(root);

  uint64_t failed_cells = 0;
  uint64_t accesses = 0;
  double handovers = 0.0;
  double local_handovers = 0.0;
  for (const CellCounts& c : rebuilt.counts) {
    failed_cells += c.failed ? 1 : 0;
    accesses += c.accesses;
    handovers += c.handovers;
    local_handovers += c.local_handovers;
  }
  report.Tally(num_cells, failed_cells, "traced sweep cells failed");
  report.Check(SameCurves(curves, reference.curves),
               "traced sweep curves differ from RunScriptedBenchmark");
  report.Check(selection.hc_best == reference.selection.hc_best,
               "traced selection differs from RunScriptedBenchmark");

  const std::vector<Span>& spans = recorder.spans();
  const Span& pf = spans[parallel_for];
  std::vector<double> cell_ms;
  std::map<int, int64_t> worker_last_end;
  int64_t busy_ns = 0;
  for (const Span& span : spans) {
    if (span.parent != parallel_for) {
      continue;
    }
    busy_ns += span.duration_ns();
    cell_ms.push_back(static_cast<double>(span.duration_ns()) * 1e-6);
    int64_t& last = worker_last_end[span.worker];
    last = std::max(last, span.end_ns);
  }
  int64_t first_idle = pf.end_ns;
  for (const auto& [worker, last] : worker_last_end) {
    first_idle = std::min(first_idle, last);
  }
  const Summary cells = Summarize(cell_ms);
  const double wall_s = Seconds(pf.duration_ns());

  report.Add("exec.wall_s", wall_s, "s");
  report.Add("exec.busy_s", Seconds(busy_ns), "s");
  report.Add("exec.efficiency", Seconds(busy_ns) / (config.jobs * wall_s), "ratio");
  report.Add("exec.tail_s", Seconds(pf.end_ns - first_idle), "s");
  report.Add("exec.self_ms", static_cast<double>(SelfTimeNs(spans, parallel_for)) * 1e-6,
             "ms");
  report.Add("harness.cells", static_cast<double>(cells.count), "count");
  report.Add("harness.cell_ms.p50", cells.p50, "ms");
  report.Add("harness.cell_ms.p99", cells.p99, "ms");
  report.Add("harness.cell_ms.max", cells.max, "ms");
  report.Add("harness.local_handover_frac", local_handovers / handovers, "ratio");
  report.Add("sim.ns_per_op", static_cast<double>(busy_ns) / static_cast<double>(accesses),
             "ns");
  report.Add("select.rank_ms", runtime::Median(rank_ms), "ms");
  report.Add("select.hc_tput_per_us", HcTopThroughput(reference), "1/us");
  report.Add("select.sweep_s", reference_s, "s");
  report.Add("bench.trace_overhead_frac.sweep", overhead.frac, "ratio");

  // The result-cache path: a cold sweep fills a fresh cache, a warm one is served
  // from it. Both must reproduce the reference curves.
  const std::string cache_dir =
      options.scratch_dir + "/cache-" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(cache_dir);
  {
    exec::ResultCache cache(cache_dir);
    config.cache = &cache;
    start = NowNs();
    const select::SweepResult cold = select::RunScriptedBenchmark(config);
    const double cold_s = Seconds(NowNs() - start);
    const uint64_t cold_misses = cache.misses();
    start = NowNs();
    const select::SweepResult warm = select::RunScriptedBenchmark(config);
    const double warm_s = Seconds(NowNs() - start);
    report.Check(SameCurves(cold.curves, reference.curves), "cold cached sweep differs");
    report.Check(SameCurves(warm.curves, reference.curves), "warm cached sweep differs");
    report.Check(cache.hits() == num_cells && cold_misses == num_cells,
                 "cache did not miss every cold cell and hit every warm cell");
    report.Add("exec.cache_cold_s", cold_s, "s");
    report.Add("exec.cache_warm_s", warm_s, "s");
    report.Add("exec.cache_hits", static_cast<double>(cache.hits()), "count");
    report.Add("exec.cache_misses", static_cast<double>(cache.misses()), "count");
  }
  std::filesystem::remove_all(cache_dir);

  // Per-cell set-up: a cell of near-zero virtual duration at the top thread count.
  harness::BenchConfig empty_cell;
  empty_cell.spec = config.spec;
  empty_cell.watchdog = config.watchdog;
  empty_cell.lock_name = "tkt-tkt-tkt-tkt";
  empty_cell.num_threads = 127;
  empty_cell.duration_ms = 1e-6;
  std::vector<double> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    start = NowNs();
    harness::RunLockBench(empty_cell);
    setup_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  }
  report.Add("harness.cell_setup_ms.t127", runtime::Median(setup_ms), "ms");

  // Set-up layers, timed one at a time.
  std::vector<double> registry_ms;
  std::vector<double> machine_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    start = NowNs();
    const Registry registry = internal::BuildSimRegistryNoCtr();
    registry_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    start = NowNs();
    const sim::Machine machine = sim::Machine::PaperArm();
    machine_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  }
  report.Add("clof.sim_registry_build_ms", runtime::Median(registry_ms), "ms");
  report.Add("topo.machine_build_ms", runtime::Median(machine_ms), "ms");
}

}  // namespace perfbench
