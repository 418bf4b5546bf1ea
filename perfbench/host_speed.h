// The host's speed at one moment, measured with a yardstick: a fixed piece of work that
// shares no code with the library under test. On a shared host the CPUs' speed drifts by
// tens of percent from minute to minute (other tenants, busy sibling hyperthreads), and
// every workload slows with it. A pass timed between two yardstick readings taken on the
// same CPUs, with the same number of threads, is rescaled to the yardstick's reference
// speed, which removes the drift and keeps what the library itself costs.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "perfbench/report.h"
#include "src/runtime/stats.h"

namespace perfbench {

// The time one yardstick unit is defined to take: a pass rescaled to reference speed
// reads (pass time) * kReferenceUnitS / (measured time per unit). One unit takes about
// this long on an idle core of a 2.1 GHz Intel Xeon VM, so rescaled times read close to
// raw ones there.
inline constexpr double kReferenceUnitS = 1e-3;

// One yardstick unit: a dependent walk over one random cycle through a 64 KiB table,
// mixed with integer hashing. The table is larger than a core's L1 data cache and well
// within its L2, the caches a busy sibling hyperthread of another tenant competes for.
// On the 4-vCPU Xeon VM the benchmark was tuned on, readings of this walk tracked the
// scale1024 pass times around them (correlation 0.74-0.84 over a run); walks over 16 KiB
// (L1), 256 KiB, 1 MiB or 32 MiB tables did not (0.02-0.59). The table and walk never
// change.
class Yardstick {
 public:
  static const Yardstick& Get() {
    static const Yardstick yardstick;
    return yardstick;
  }

  // Walks one unit from `state`; returns the state to continue from, so no step can be
  // elided.
  uint64_t Unit(uint64_t state) const { return Walk(state, kStepsPerUnit); }

  // Walks `steps` steps from `state`.
  uint64_t Walk(uint64_t state, int steps) const {
    uint32_t slot = static_cast<uint32_t>(state) & (kSlots - 1);
    for (int i = 0; i < steps; ++i) {
      slot = next_[slot];
      state = (state ^ slot) * 0x9e3779b97f4a7c15ull;
      state ^= state >> 29;
    }
    return state;
  }

 private:
  static constexpr uint32_t kSlots = 1u << 14;  // 4-byte slots: 64 KiB
  static constexpr int kStepsPerUnit = 330000;

  Yardstick() : next_(kSlots) {
    // Sattolo's algorithm: a single cycle through every slot, from a fixed seed.
    std::vector<uint32_t> order(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      order[i] = i;
    }
    uint64_t x = 0x243f6a8885a308d3ull;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % i]);
    }
    for (uint32_t i = 0; i < kSlots; ++i) {
      next_[order[i]] = order[(i + 1) % kSlots];
    }
  }

  std::vector<uint32_t> next_;
};

// Seconds one thread takes per yardstick unit right now, over `units` units. `threads`
// == 1 walks on the calling thread (on whatever CPU it is pinned to). More threads walk
// at once, left to the scheduler, and share the units through one counter, as executor
// workers share cells.
inline double SecondsPerUnit(int units, int threads = 1) {
  const Yardstick& yardstick = Yardstick::Get();
  std::atomic<uint64_t> sink{yardstick.Walk(7, 1 << 16)};  // warm the table first
  const int64_t start = NowNs();
  if (threads <= 1) {
    uint64_t state = 1;
    for (int i = 0; i < units; ++i) {
      state = yardstick.Unit(state);
    }
    sink.fetch_add(state, std::memory_order_relaxed);
  } else {
    std::atomic<int> next{0};
    std::vector<std::thread> walkers;
    for (int t = 0; t < threads; ++t) {
      walkers.emplace_back([&, t] {
        uint64_t state = static_cast<uint64_t>(t) + 1;
        while (next.fetch_add(1, std::memory_order_relaxed) < units) {
          state = yardstick.Unit(state);
        }
        sink.fetch_add(state, std::memory_order_relaxed);
      });
    }
    for (std::thread& walker : walkers) {
      walker.join();
    }
  }
  const double thread_s = Seconds(NowNs() - start) * std::max(1, threads);
  return sink.load() == 0 ? thread_s : thread_s / units;  // the sink keeps the walk alive
}

// Seconds per yardstick unit right now with `threads` threads (pinned one to a CPU)
// taking turns, as threads contending for a lock do: each turn spins until it is its
// thread's, walks kRingStepsPerTurn steps, and hands the turn to the next thread through
// one shared cache line. A unit is kRingTurnsPerUnit turns.
inline constexpr int kRingTurnsPerUnit = 1000;
inline constexpr int kRingStepsPerTurn = 150;
inline double RingSecondsPerUnit(int units, int threads) {
  const Yardstick& yardstick = Yardstick::Get();
  const uint64_t turns = static_cast<uint64_t>(units) * kRingTurnsPerUnit;
  alignas(64) std::atomic<uint64_t> turn{0};
  std::atomic<int> ready{0};
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> ring;
  int64_t start = 0;
  for (int t = 0; t < threads; ++t) {
    ring.emplace_back([&, t] {
      HostCpus::Allowed().Pin(t);
      uint64_t state = yardstick.Walk(static_cast<uint64_t>(t) + 1, 1 << 14);  // warm
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      if (t == 0) {
        start = NowNs();
      }
      for (uint64_t mine = static_cast<uint64_t>(t); mine < turns; mine += threads) {
        while (turn.load(std::memory_order_acquire) != mine) {
        }
        state = yardstick.Walk(state, kRingStepsPerTurn);
        turn.store(mine + 1, std::memory_order_release);
      }
      sink.fetch_add(state, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : ring) {
    thread.join();
  }
  const double seconds = Seconds(NowNs() - start);
  return sink.load() == 0 ? seconds : seconds / units;
}

// Every pass of a run, raw and rescaled to reference speed.
struct PassTimes {
  std::vector<double> raw_s;
  std::vector<double> reference_s;
};

// How a pass runs on the host, and so how the yardstick readings around it run.
struct PassShape {
  enum Kind {
    // The pass runs on the calling thread, pinned to the next host CPU before each pass;
    // the readings walk on that thread.
    kCallingThread,
    // The pass runs `threads` workers left to the scheduler (they inherit the calling
    // thread's affinity, so it stays unpinned); the readings are as many walking threads.
    kWorkers,
    // `threads` contending threads pinned one to a CPU, after a phase on the calling
    // thread, which is pinned as for kCallingThread; the readings are a ring on those
    // CPUs (RingSecondsPerUnit).
    kRing,
  };
  Kind kind = kCallingThread;
  int threads = 1;
};

// The two yardstick readings around a pass take about as long as the pass: long enough
// that the CPUs' millisecond-scale jitter averages out of them.
inline constexpr double kYardstickShareOfPass = 1.0;

// Runs `pass` (which returns its own measured seconds) until `seconds` of wall time have
// elapsed and at least `min_passes` passes ran, after one unmeasured warm-up pass that
// also sizes the yardstick readings. Each pass is timed between two readings with its
// own shape; its reference time divides by their mean.
template <class Pass>
PassTimes RepeatRescaled(double seconds, int min_passes, PassShape shape, Pass pass) {
  const HostCpus& host = HostCpus::Allowed();
  const bool ring = shape.kind == PassShape::kRing;
  const bool rotate = shape.kind != PassShape::kWorkers;
  const auto reading = [&](int units) {
    return ring ? RingSecondsPerUnit(units, shape.threads)
                : SecondsPerUnit(units, shape.threads);
  };
  if (rotate) {
    host.Pin(0);
  }
  const double warm_s = pass();
  const double wall_per_unit_s = ring ? reading(1) : SecondsPerUnit(1) / shape.threads;
  const int units = std::clamp(
      static_cast<int>(kYardstickShareOfPass / 2 * warm_s / wall_per_unit_s), shape.threads,
      100000);

  PassTimes times;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (static_cast<int>(times.raw_s.size()) < min_passes || NowNs() < deadline) {
    if (rotate) {
      host.Pin(times.raw_s.size());
    }
    const double before = reading(units);
    const double raw = pass();
    const double unit_s = (before + reading(units)) / 2;
    times.raw_s.push_back(raw);
    times.reference_s.push_back(raw * kReferenceUnitS / unit_s);
  }
  host.Unpin();
  return times;
}

// pass_s: the median rescaled pass. The median raw pass is printed for reference.
inline void AddPassMetrics(const PassTimes& times, Report& report) {
  report.Add("pass_s", clof::runtime::Median(times.reference_s), "s");
  report.Add("pass_raw_s", clof::runtime::Median(times.raw_s), "s");
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
