// Workload `native_kv`: MiniLevelDb behind a 4-level native composition from the
// NativeRegistry, driven as a closed loop by 4 host threads (fewer on a host with
// fewer CPUs). Two threads share a virtual cache group and two sit on another
// virtual NUMA node, so both the keep-local passes and the upper levels are used. Each
// pass runs a single-thread uncontended phase, then the contended phase: random Gets
// and overwriting Puts over a preloaded keyspace. This is the only workload on real
// atomics, through the erased clof::Lock boundary, with no simulator.
//
// The traffic is taken from two public workloads rather than chosen here: the keyspace
// and the uniform key choice are the paper's LevelDB readrandom (§5.1.2; 10000 keys, as
// in examples/leveldb_readrandom.cc), and the 50/50 read/update mix is YCSB core
// workload A ("update heavy"), whose updates overwrite an existing record.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/apps/mini_leveldb.h"
#include "src/clof/clof_tree.h"
#include "src/clof/registry_internal.h"
#include "src/locks/clh.h"
#include "src/locks/ticket.h"
#include "src/mem/native.h"
#include "src/runtime/rng.h"
#include "src/topo/topology.h"

namespace perfbench {
namespace {

using namespace clof;
using M = mem::NativeMemory;

constexpr const char* kLockName = "tkt-clh-tkt-tkt";
// The statically composed type the registry erases behind kLockName.
using DirectTree =
    Compose<M, locks::TicketLock<M>, locks::ClhLock<M>, locks::TicketLock<M>,
            locks::TicketLock<M>>;

constexpr int kMaxThreads = 4;
// Virtual CPUs on the Arm topology: 0 and 1 share a cache group, 32 and 33 share one on
// the other NUMA node of the same package.
constexpr int kCpus[kMaxThreads] = {0, 1, 32, 33};
constexpr uint64_t kKeys = 10000;
constexpr int kGetPercent = 50;  // the rest are overwriting Puts
// Pass size, not traffic: enough operations that a pass lasts tens of milliseconds.
constexpr int kUncontendedOps = 20000;
constexpr int kOpsPerThread = 25000;
// Calls per thread of the untimed mutual-exclusion check: each increments a plain
// (non-atomic) counter under the lock through Lock::Execute.
constexpr int kExclusionCallsPerThread = 25000;
constexpr int kMicroIters = 200000;
constexpr int kHandoverIters = 20000;

// Contending host threads: never more than the host has CPUs.
int KvThreads() {
  return std::min(HostCpus::Allowed().count(), kMaxThreads);
}

uint64_t LockAcquisitions(const Lock& lock) {
  const std::vector<LevelStats> stats = lock.Stats();
  return stats.empty() ? 0 : stats[0].acquisitions;
}

std::string ValueFor(const std::string& key, uint64_t version) {
  return "v-" + key + "-" + std::to_string(version);
}

bool IsValueOf(const std::optional<std::string>& value, const std::string& key) {
  return value.has_value() && value->size() > key.size() + 3 &&
         value->compare(0, key.size() + 3, "v-" + key + "-") == 0;
}

topo::Hierarchy DepthHierarchy(const topo::Topology& topology, int depth) {
  static const std::vector<std::vector<std::string>> kLevels = {
      {"system"},
      {"numa", "system"},
      {"numa", "package", "system"},
      {"cache", "numa", "package", "system"}};
  return topo::Hierarchy::Select(topology, kLevels[depth - 1]);
}

// Everything constructed before the first timed call: registry, lock and the preloaded
// store. The hierarchy points into `topology`, so the object stays where it was built.
struct KvSetup {
  Registry registry = internal::BuildNativeRegistryNoCtr();
  topo::Topology topology = topo::Topology::PaperArm();
  topo::Hierarchy hierarchy = DepthHierarchy(topology, 4);
  std::shared_ptr<Lock> lock = registry.Make(kLockName, hierarchy);
  std::vector<std::string> keys;
  std::unique_ptr<apps::MiniLevelDb> db;

  explicit KvSetup(uint64_t seed) {
    keys.reserve(kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
      keys.push_back(apps::MiniLevelDb::KeyFor(k));
    }
    db = Load(lock, keys, seed);
  }
  KvSetup(const KvSetup&) = delete;
  KvSetup& operator=(const KvSetup&) = delete;

  static std::unique_ptr<apps::MiniLevelDb> Load(std::shared_ptr<Lock> lock,
                                                 const std::vector<std::string>& keys,
                                                 uint64_t seed) {
    auto db = std::make_unique<apps::MiniLevelDb>(std::move(lock), seed);
    apps::MiniLevelDb::Session session(*db);
    for (const std::string& key : keys) {
      db->Put(session, key, ValueFor(key, 0));
    }
    return db;
  }
};

struct ThreadOutcome {
  uint64_t gets = 0;
  uint64_t bad_gets = 0;
  double seconds = 0.0;
  std::vector<double> get_ns;  // filled only when traced
  std::vector<double> put_ns;
};

// One thread's share of a phase: `ops` random operations from `rng`.
ThreadOutcome RunOps(KvSetup& s, runtime::Xoshiro256& rng, int ops, bool traced) {
  ThreadOutcome out;
  if (traced) {
    out.get_ns.reserve(ops);
    out.put_ns.reserve(ops);
  }
  apps::MiniLevelDb::Session session(*s.db);
  uint64_t version = 0;
  const int64_t start = NowNs();
  for (int i = 0; i < ops; ++i) {
    const std::string& key = s.keys[rng.NextBounded(kKeys)];
    const bool get = static_cast<int>(rng.NextBounded(100)) < kGetPercent;
    const int64_t op_start = traced ? NowNs() : 0;
    if (get) {
      const std::optional<std::string> value = s.db->Get(session, key);
      ++out.gets;
      out.bad_gets += IsValueOf(value, key) ? 0 : 1;
    } else {
      s.db->Put(session, key, ValueFor(key, ++version));
    }
    if (traced) {
      (get ? out.get_ns : out.put_ns).push_back(static_cast<double>(NowNs() - op_start));
    }
  }
  out.seconds = Seconds(NowNs() - start);
  return out;
}

struct PassOutcome {
  double uncontended_op_ns = 0.0;
  double contended_s = 0.0;  // first start to last finish
  double ops_per_s = 0.0;
  std::vector<ThreadOutcome> threads;
};

PassOutcome RunPass(KvSetup& s, uint64_t seed, bool traced, Report& report) {
  PassOutcome pass;
  {
    M::ScopedCpu cpu(kCpus[0]);
    runtime::Xoshiro256 rng(seed);
    const ThreadOutcome solo = RunOps(s, rng, kUncontendedOps, false);
    report.Tally(solo.gets, solo.bad_gets, "uncontended Get returned another key's value");
    pass.uncontended_op_ns = solo.seconds * 1e9 / kUncontendedOps;
  }

  const int threads = KvThreads();
  const HostCpus& host = HostCpus::Allowed();
  const uint64_t acquisitions_before = LockAcquisitions(*s.lock);
  pass.threads.resize(threads);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      host.Pin(t);
      M::ScopedCpu cpu(kCpus[t]);
      runtime::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(t) + 1);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      pass.threads[t] = RunOps(s, rng, kOpsPerThread, traced);
    });
  }
  while (ready.load() < threads) {
    std::this_thread::yield();
  }
  const int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  pass.contended_s = Seconds(NowNs() - start);
  const uint64_t ops = static_cast<uint64_t>(threads) * kOpsPerThread;
  pass.ops_per_s = static_cast<double>(ops) / pass.contended_s;

  uint64_t gets = 0;
  uint64_t bad = 0;
  for (const ThreadOutcome& t : pass.threads) {
    gets += t.gets;
    bad += t.bad_gets;
  }
  report.Tally(gets, bad, "contended Get returned another key's value");
  report.Tally(ops - gets, 0, "");  // Puts
  report.Check(LockAcquisitions(*s.lock) - acquisitions_before == ops,
               "lock acquisitions differ from the Gets and Puts issued");
  return pass;
}

// Untimed: the contending threads increment a plain (non-atomic) counter under the
// store's lock through Lock::Execute. A lost increment means two threads were inside at
// once; the lock's level-0 acquisition count must rise by exactly the calls made.
void CheckMutualExclusion(KvSetup& s, Report& report) {
  const int threads = KvThreads();
  const HostCpus& host = HostCpus::Allowed();
  const uint64_t acquisitions_before = LockAcquisitions(*s.lock);
  uint64_t counter = 0;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      host.Pin(t);
      M::ScopedCpu cpu(kCpus[t]);
      apps::MiniLevelDb::Session session(*s.db);
      for (int i = 0; i < kExclusionCallsPerThread; ++i) {
        s.lock->Execute(session.context(), [&counter] { ++counter; });
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const uint64_t calls = static_cast<uint64_t>(threads) * kExclusionCallsPerThread;
  report.Check(counter == calls, "counter under the lock lost increments");
  report.Check(LockAcquisitions(*s.lock) - acquisitions_before == calls,
               "lock acquisitions differ from the Execute calls");
}

// Median ns per call of `body` over kSetupReps batches of `iters` calls.
template <class Body>
double NsPerCall(int iters, Body body) {
  std::vector<double> ns;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = NowNs();
    for (int i = 0; i < iters; ++i) {
      body();
    }
    ns.push_back(static_cast<double>(NowNs() - start) / iters);
  }
  return runtime::Median(ns);
}

double ErasedAcquireReleaseNs(Lock& lock) {
  std::unique_ptr<Lock::Context> ctx = lock.MakeContext();
  return NsPerCall(kMicroIters, [&] {
    lock.Acquire(*ctx);
    lock.Release(*ctx);
  });
}

}  // namespace

void RunNativeKv(const Options& options, Report& report) {
  const std::unique_ptr<KvSetup> setup =
      MeasureSetup([&] { return std::make_unique<KvSetup>(options.seed); }, report);

  const PassTimes passes = RepeatRescaled(
      options.seconds, 3, {PassShape::kRing, KvThreads()},
      [&] {
        const int64_t start = NowNs();
        RunPass(*setup, options.seed, false, report);
        return Seconds(NowNs() - start);
      });
  CheckMutualExclusion(*setup, report);
  // The same composition, fresh, single thread: one acquire+release through the
  // erased boundary.
  const std::unique_ptr<Lock> lone = setup->registry.Make(kLockName, setup->hierarchy);

  AddPassMetrics(passes, report);
  report.Add("lock_uncontended_ns", ErasedAcquireReleaseNs(*lone), "ns");
  report.Note("kv_lock", kLockName);
  report.Note("kv_passes", std::to_string(passes.raw_s.size()));
}

void TraceNativeKv(const Options& options, Report& report) {
  KvSetup setup(options.seed);

  // Set-up layers, timed one at a time.
  std::vector<double> registry_ms;
  std::vector<double> load_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    int64_t start = NowNs();
    const Registry registry = internal::BuildNativeRegistryNoCtr();
    registry_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    std::shared_ptr<Lock> lock = setup.registry.Make(kLockName, setup.hierarchy);
    start = NowNs();
    KvSetup::Load(lock, setup.keys, options.seed);
    load_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  }
  report.Add("clof.native_registry_build_ms", runtime::Median(registry_ms), "ms");
  report.Add("apps.load_ms", runtime::Median(load_ms), "ms");

  // Uncontended lock layers: erased acquire+release by depth, the erasure itself, and
  // the closure shim.
  double depth4_ns = 0.0;
  for (int depth = 1; depth <= 4; ++depth) {
    const std::string name = std::string(kLockName).substr(4 * (4 - depth));
    const std::unique_ptr<Lock> lock =
        setup.registry.Make(name, DepthHierarchy(setup.topology, depth));
    const double ns = ErasedAcquireReleaseNs(*lock);
    report.Add("locks.acq_rel_ns.d" + std::to_string(depth), ns, "ns");
    depth4_ns = ns;
  }
  {
    DirectTree tree(setup.hierarchy, 0, ClofParams{});
    DirectTree::Context ctx;
    const double direct_ns = NsPerCall(kMicroIters, [&] {
      tree.Acquire(ctx);
      tree.Release(ctx);
    });
    report.Add("clof.erasure_ns", depth4_ns - direct_ns, "ns");
    const std::unique_ptr<Lock> lock = setup.registry.Make(kLockName, setup.hierarchy);
    std::unique_ptr<Lock::Context> lock_ctx = lock->MakeContext();
    int sink = 0;
    report.Add("clof.execute_ns",
               NsPerCall(kMicroIters, [&] { lock->Execute(*lock_ctx, [&sink] { ++sink; }); }),
               "ns");
    report.Check(sink == kSetupReps * kMicroIters, "Execute skipped a closure");
  }

  // Contended handover with an empty critical section: per-acquire latency.
  {
    const std::unique_ptr<Lock> lock = setup.registry.Make(kLockName, setup.hierarchy);
    const HostCpus& host = HostCpus::Allowed();
    std::vector<std::vector<double>> samples(KvThreads());
    std::vector<std::thread> workers;
    for (int t = 0; t < KvThreads(); ++t) {
      workers.emplace_back([&, t] {
        host.Pin(t);
        M::ScopedCpu cpu(kCpus[t]);
        std::unique_ptr<Lock::Context> ctx = lock->MakeContext();
        samples[t].reserve(kHandoverIters);
        for (int i = 0; i < kHandoverIters; ++i) {
          const int64_t start = NowNs();
          lock->Acquire(*ctx);
          samples[t].push_back(static_cast<double>(NowNs() - start));
          lock->Release(*ctx);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    std::vector<double> all;
    for (const auto& s : samples) {
      all.insert(all.end(), s.begin(), s.end());
    }
    const Summary handover = Summarize(std::move(all));
    report.Add("locks.handover_ns.p50", handover.p50, "ns");
    report.Add("locks.handover_ns.p99", handover.p99, "ns");
  }

  // The store: a pass timing every operation, between two untraced passes.
  PassOutcome reference;
  PassOutcome traced;
  const TraceOverhead overhead = MeasureTraceOverhead(
      [&] {
        reference = RunPass(setup, options.seed, false, report);
        return reference.contended_s;
      },
      [&] {
        traced = RunPass(setup, options.seed, true, report);
        return traced.contended_s;
      });
  CheckMutualExclusion(setup, report);
  std::vector<double> get_ns;
  std::vector<double> put_ns;
  std::vector<double> thread_rates;
  for (const ThreadOutcome& t : traced.threads) {
    get_ns.insert(get_ns.end(), t.get_ns.begin(), t.get_ns.end());
    put_ns.insert(put_ns.end(), t.put_ns.begin(), t.put_ns.end());
    thread_rates.push_back(kOpsPerThread / t.seconds);
  }
  std::vector<double> op_ns = get_ns;
  op_ns.insert(op_ns.end(), put_ns.begin(), put_ns.end());
  const Summary ops = Summarize(std::move(op_ns));
  report.Add("apps.get_ns.p50", Summarize(std::move(get_ns)).p50, "ns");
  report.Add("apps.put_ns.p50", Summarize(std::move(put_ns)).p50, "ns");
  report.Add("kv.op_ns.p50", ops.p50, "ns");
  report.Add("kv.op_ns.p99", ops.p99, "ns");
  report.Add("kv.op_ns.p999", ops.p999, "ns");
  report.Add("kv.fairness", runtime::JainFairnessIndex(thread_rates), "ratio");
  report.Add("kv.uncontended_op_ns", reference.uncontended_op_ns, "ns");
  const std::vector<LevelStats> stats = setup.lock->Stats();
  report.Add("clof.local_pass_ratio.l0", stats.empty() ? 0.0 : stats[0].LocalPassRatio(),
             "ratio");
  report.Add("kv.mops", reference.ops_per_s * 1e-6, "Mops/s");
  report.Add("bench.trace_overhead_frac.native_kv", overhead.frac, "ratio");
}

}  // namespace perfbench
