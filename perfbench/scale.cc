// Workload `scale1024`: four 4-level compositions at 64/256/1024 threads on the
// 1024-CPU cxl-pod-1024 preset, serially on one host thread. A few long cells with 1024
// fibers and thousand-waiter wakeup herds stress the engine's ready queue, fiber
// switches and sharing-level lookups, while exec, the cache and select do nothing.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/clof/registry_internal.h"
#include "src/harness/lock_bench.h"
#include "src/select/scripted_bench.h"

namespace perfbench {
namespace {

using namespace clof;

// Local-handover winners (mcs/clh stacks) next to a uniform ticket stack whose top level
// spins globally, as in engine_bench's scale scenario.
const std::vector<std::string> kLocks = {"mcs-mcs-mcs-mcs", "tkt-mcs-mcs-mcs",
                                         "clh-clh-mcs-tkt", "tkt-tkt-tkt-tkt"};
const std::vector<int> kThreads = {64, 256, 1024};
// Long enough that steady-state simulation, not per-cell set-up, dominates a cell.
constexpr double kCellDurationMs = 8.0;

struct ScaleSetup {
  Registry registry = internal::BuildSimRegistryCtr();
  sim::Machine machine = sim::Machine::CxlPod1024();
  topo::Hierarchy hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "pod", "system"});

  ScaleSetup() { registry.set_description("sim-ctr"); }
  ScaleSetup(const ScaleSetup&) = delete;
  ScaleSetup& operator=(const ScaleSetup&) = delete;
};

struct CellTotals {
  uint64_t ops = 0;
  uint64_t line_transfers = 0;
  uint64_t spin_wakeups = 0;
  uint64_t lock_acquires = 0;

  bool operator==(const CellTotals&) const = default;
  void operator+=(const CellTotals& other) {
    ops += other.ops;
    line_transfers += other.line_transfers;
    spin_wakeups += other.spin_wakeups;
    lock_acquires += other.lock_acquires;
  }
};

harness::BenchConfig MakeConfig(const ScaleSetup& setup, uint64_t seed) {
  harness::BenchConfig config;
  config.spec.machine = &setup.machine;
  config.spec.hierarchy = setup.hierarchy;
  config.spec.registry = &setup.registry;
  config.spec.seed = seed;
  config.duration_ms = kCellDurationMs;
  config.watchdog = select::DefaultSweepWatchdog();
  return config;
}

// Runs one cell; a watchdog trip, deadlock or other failure counts as a failed cell.
CellTotals RunCell(harness::BenchConfig config, const std::string& lock, int threads,
                   Report& report) {
  config.lock_name = lock;
  config.num_threads = threads;
  CellTotals totals;
  try {
    const harness::BenchResult result = harness::RunLockBench(config);
    totals.ops = result.total_accesses;
    totals.line_transfers = result.total_line_transfers;
    for (const trace::LevelMetrics& level : result.level_metrics) {
      totals.spin_wakeups += level.spin_wakeups;
    }
    totals.lock_acquires = result.total_ops;
    report.Tally(1, 0, "");
  } catch (const std::exception& e) {
    report.Tally(1, 1, "scale1024 cell " + lock + "@" + std::to_string(threads) + ": " +
                           e.what());
  }
  return totals;
}

}  // namespace

void RunScale1024(const Options& options, Report& report) {
  const std::unique_ptr<ScaleSetup> setup =
      MeasureSetup([] { return std::make_unique<ScaleSetup>(); }, report);
  const harness::BenchConfig config = MakeConfig(*setup, options.seed);

  std::unique_ptr<CellTotals> first;
  const PassTimes passes = RepeatRescaled(
      options.seconds, 3, {},
      [&] {
        const int64_t start = NowNs();
        CellTotals pass;
        for (const std::string& lock : kLocks) {
          for (int threads : kThreads) {
            pass += RunCell(config, lock, threads, report);
          }
        }
        const double seconds = Seconds(NowNs() - start);
        if (first == nullptr) {
          first = std::make_unique<CellTotals>(pass);
        } else {
          report.Check(pass == *first, "scale1024 sim counts differ between passes");
        }
        return seconds;
      });

  AddPassMetrics(passes, report);
  report.Note("scale_passes", std::to_string(passes.raw_s.size()));
}

void TraceScale1024(const Options& options, Report& report) {
  const auto setup = std::make_unique<ScaleSetup>();
  const harness::BenchConfig config = MakeConfig(*setup, options.seed);

  CellTotals reference;
  Recorder recorder;
  std::vector<CellTotals> cells;
  std::vector<int> cell_spans;
  CellTotals traced;
  const TraceOverhead overhead = MeasureTraceOverhead(
      [&] {
        const int64_t start = NowNs();
        CellTotals pass;
        for (const std::string& lock : kLocks) {
          for (int threads : kThreads) {
            pass += RunCell(config, lock, threads, report);
          }
        }
        reference = pass;
        return Seconds(NowNs() - start);
      },
      [&] {
        const int root = recorder.Begin("scale1024.traced");
        for (const std::string& lock : kLocks) {
          for (int threads : kThreads) {
            cell_spans.push_back(recorder.Begin(lock + "@" + std::to_string(threads), root));
            cells.push_back(RunCell(config, lock, threads, report));
            recorder.End(cell_spans.back());
            traced += cells.back();
          }
        }
        recorder.End(root);
        return Seconds(recorder.spans()[root].duration_ns());
      });
  report.Check(traced == reference, "traced scale1024 sim counts differ from untraced");

  // Host ns per simulated access over the cells matching `lock` / `threads` (empty /
  // 0 = any).
  const std::vector<Span>& spans = recorder.spans();
  auto ns_per_op = [&](const std::string& lock, int threads) {
    int64_t ns = 0;
    uint64_t ops = 0;
    size_t i = 0;
    for (const std::string& l : kLocks) {
      for (int t : kThreads) {
        if ((lock.empty() || l == lock) && (threads == 0 || t == threads)) {
          ns += spans[cell_spans[i]].duration_ns();
          ops += cells[i].ops;
        }
        ++i;
      }
    }
    return static_cast<double>(ns) / static_cast<double>(ops);
  };

  report.Add("sim.ops", static_cast<double>(traced.ops), "count");
  report.Add("sim.line_transfers", static_cast<double>(traced.line_transfers), "count");
  report.Add("sim.spin_wakeups", static_cast<double>(traced.spin_wakeups), "count");
  report.Add("sim.lock_acquires", static_cast<double>(traced.lock_acquires), "count");
  report.Add("sim.ns_per_op.local", ns_per_op("mcs-mcs-mcs-mcs", 0), "ns");
  report.Add("sim.ns_per_op.herd", ns_per_op("tkt-tkt-tkt-tkt", 0), "ns");
  for (int threads : kThreads) {
    report.Add("sim.ns_per_op.t" + std::to_string(threads), ns_per_op("", threads), "ns");
  }
  report.Add("sim.mops_per_s",
             static_cast<double>(reference.ops) / overhead.untraced_s * 1e-6, "Mops/s");
  report.Add("bench.trace_overhead_frac.scale1024", overhead.frac, "ratio");

  harness::BenchConfig empty_cell = config;
  empty_cell.lock_name = "tkt-tkt-tkt-tkt";
  empty_cell.num_threads = 1024;
  empty_cell.duration_ms = 1e-6;
  std::vector<double> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = NowNs();
    harness::RunLockBench(empty_cell);
    setup_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  }
  report.Add("harness.cell_setup_ms.t1024", runtime::Median(setup_ms), "ms");
}

}  // namespace perfbench
