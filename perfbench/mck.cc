// Workload `mck`: exhaustive mck::CheckLock explorations of CLoF compositions — 2-level
// and 3-level ticket stacks at 3 threads (the paper's abstract-lock induction shapes)
// and a ticket-over-MCS queue composition at 2 threads x 2 acquisitions — plus one
// mutant search that must find its mutual-exclusion violation. Only the model checker's
// cost is measured here.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/clof/clof_tree.h"
#include "src/locks/mcs.h"
#include "src/locks/ticket.h"
#include "src/mck/check_lock.h"
#include "src/mck/mck_memory.h"
#include "src/topo/topology.h"
#include "src/torture/mutants.h"

namespace perfbench {
namespace {

using namespace clof;
using M = mck::MckMemory;
using Tkt = locks::TicketLock<M>;
using Mcs = locks::McsLock<M>;

struct CheckOutcome {
  std::string name;
  uint64_t executions = 0;
  uint64_t steps = 0;
  bool ok = false;  // exhausted without violation, or (mutant) violation found
  double seconds = 0.0;

  bool SameCounts(const CheckOutcome& other) const {
    return executions == other.executions && steps == other.steps;
  }
};

// The topologies the checks run on — 2 cohorts of 2 CPUs, and 2-then-4 cohorts of 8
// CPUs — and their hierarchies, which point into them.
struct MckSetup {
  topo::Topology tiny4 = topo::Topology::FromSpec("tiny:4;cohort=2");
  topo::Topology tiny8 = topo::Topology::FromSpec("tiny8:8;a=2;b=4");
  topo::Hierarchy h2 = topo::Hierarchy::Select(tiny4, {"cohort", "system"});
  topo::Hierarchy h3 = topo::Hierarchy::Select(tiny8, {"a", "b", "system"});

  MckSetup() = default;
  MckSetup(const MckSetup&) = delete;
  MckSetup& operator=(const MckSetup&) = delete;
};

// `keep_local` 2 exercises both the local pass and the climb; 1 forces the climb on
// every release.
template <class Tree>
CheckOutcome CheckTree(std::string name, const topo::Hierarchy& hierarchy,
                       std::vector<int> cpus, int acquisitions = 1, uint32_t keep_local = 2) {
  mck::CheckConfig config;
  config.threads = static_cast<int>(cpus.size());
  config.cpus = std::move(cpus);
  config.acquisitions = acquisitions;
  const int64_t start = NowNs();
  const mck::CheckStats stats = mck::CheckLock<Tree>(config, [&hierarchy, keep_local] {
    ClofParams params;
    params.keep_local_threshold = keep_local;
    return std::make_shared<Tree>(hierarchy, 0, params);
  });
  return {std::move(name), stats.result.executions, stats.result.total_steps,
          stats.result.exhausted && !stats.result.violation_found,
          Seconds(NowNs() - start)};
}

// The seed relabels the CPUs the threads sit on by XOR with a mask below the CPU count:
// on these binary-tree topologies that is an automorphism, so which threads share a
// cohort, and with it the explored state space, stays the same for every seed.
std::vector<int> Placement(uint64_t seed, const topo::Topology& topology,
                           std::vector<int> cpus) {
  const int mask = static_cast<int>(seed % static_cast<uint64_t>(topology.num_cpus()));
  for (int& cpu : cpus) {
    cpu ^= mask;
  }
  return cpus;
}

std::vector<CheckOutcome> RunChecks(const MckSetup& s, uint64_t seed) {
  std::vector<CheckOutcome> out;
  out.push_back(
      CheckTree<Compose<M, Tkt, Tkt>>("tkt2", s.h2, Placement(seed, s.tiny4, {0, 1, 2})));
  out.push_back(CheckTree<Compose<M, Tkt, Tkt, Tkt>>("tkt3", s.h3,
                                                     Placement(seed, s.tiny8, {0, 1, 4})));
  // MCS as the high lock, so its queue node is reused across climbs (at 3 threads this
  // shape exceeds the explorer's default budget).
  out.push_back(CheckTree<Compose<M, Tkt, Mcs>>("tkt_mcs", s.h2,
                                                     Placement(seed, s.tiny4, {0, 1}), 2, 1));

  // The split-acquire TTAS mutant: its load-then-store acquire lets two threads in.
  using Mutant = torture::MutSplitAcquireLock<M>;
  mck::CheckConfig config;
  config.threads = 2;
  const int64_t start = NowNs();
  const mck::CheckStats stats =
      mck::CheckLock<Mutant>(config, [] { return std::make_shared<Mutant>(); });
  out.push_back({"mutant", stats.result.executions, stats.result.total_steps,
                 stats.result.violation_found, Seconds(NowNs() - start)});
  return out;
}

void CheckOutcomes(const std::vector<CheckOutcome>& outcomes, Report& report) {
  for (const CheckOutcome& c : outcomes) {
    report.Check(c.ok, c.name == "mutant" ? "mck missed the mutant's violation"
                                          : "mck check " + c.name + " not clean");
  }
}

uint64_t TotalExecutions(const std::vector<CheckOutcome>& outcomes) {
  uint64_t total = 0;
  for (const CheckOutcome& c : outcomes) {
    total += c.executions;
  }
  return total;
}

bool SameCounts(const std::vector<CheckOutcome>& a, const std::vector<CheckOutcome>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const CheckOutcome& x, const CheckOutcome& y) { return x.SameCounts(y); });
}

}  // namespace

void RunMck(const Options& options, Report& report) {
  // The explorer has no registry or machine: its set-up is the topologies and
  // hierarchies the checks run on.
  const std::unique_ptr<MckSetup> setup =
      MeasureSetup([] { return std::make_unique<MckSetup>(); }, report);

  std::unique_ptr<std::vector<CheckOutcome>> first;
  const PassTimes passes = RepeatRescaled(
      options.seconds, 3, {},
      [&] {
        const int64_t start = NowNs();
        std::vector<CheckOutcome> outcomes = RunChecks(*setup, options.seed);
        const double seconds = Seconds(NowNs() - start);
        CheckOutcomes(outcomes, report);
        if (first == nullptr) {
          first = std::make_unique<std::vector<CheckOutcome>>(std::move(outcomes));
        } else {
          report.Check(SameCounts(*first, outcomes), "mck counts differ between passes");
        }
        return seconds;
      });

  AddPassMetrics(passes, report);
  report.Note("mck_passes", std::to_string(passes.raw_s.size()));
}

void TraceMck(const Options& options, Report& report) {
  const auto setup = std::make_unique<MckSetup>();

  // The checks record their own durations; the traced pass wraps them in spans too.
  std::vector<CheckOutcome> reference;
  std::vector<CheckOutcome> traced;
  Recorder recorder;
  const TraceOverhead overhead = MeasureTraceOverhead(
      [&] {
        const int64_t start = NowNs();
        reference = RunChecks(*setup, options.seed);
        return Seconds(NowNs() - start);
      },
      [&] {
        const int root = recorder.Begin("mck.traced");
        const int span = recorder.Begin("mck::CheckLock x4", root);
        traced = RunChecks(*setup, options.seed);
        recorder.End(span);
        recorder.End(root);
        return Seconds(recorder.spans()[root].duration_ns());
      });
  CheckOutcomes(reference, report);
  CheckOutcomes(traced, report);
  report.Check(SameCounts(reference, traced), "traced mck counts differ from untraced");
  // Every seed's placement is a relabeling of the same one, so it explores as much.
  report.Check(SameCounts(reference, RunChecks(*setup, 0)),
               "mck counts depend on the seed's CPU relabeling");

  uint64_t executions = 0;
  uint64_t steps = 0;
  for (const CheckOutcome& c : traced) {
    executions += c.executions;
    steps += c.steps;
    report.Add("mck.us_per_exec." + c.name,
               c.seconds * 1e6 / static_cast<double>(c.executions), "us");
    report.Add("mck.ns_per_step." + c.name, c.seconds * 1e9 / static_cast<double>(c.steps),
               "ns");
  }
  report.Add("mck.executions", static_cast<double>(executions), "count");
  report.Add("mck.steps", static_cast<double>(steps), "count");
  report.Add("mck.execs_per_s",
             static_cast<double>(TotalExecutions(reference)) / overhead.untraced_s, "1/s");
  report.Add("bench.trace_overhead_frac.mck", overhead.frac, "ratio");
}

}  // namespace perfbench
