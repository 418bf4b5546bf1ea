// What one benchmark run produces: named metrics with units, and the tally of checks
// and operations attempted and failed. main.cc prints it as one JSON line.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch space inside the checkout (the result-cache sweep writes there).
  std::string scratch_dir = ".bench_build/tmp";
};

class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  // Counts `attempted` operations or checks, `failed` of which went wrong; a failure
  // is kept with its description for the report.
  void Tally(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                          std::to_string(attempted) + ")");
    }
  }
  void Check(bool ok, const std::string& what) { Tally(1, ok ? 0 : 1, what); }

  // Free-form context recorded with the result (lock names, pass counts).
  void Note(std::string key, std::string value) {
    notes_.emplace_back(std::move(key), std::move(value));
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::pair<std::string, std::string>>& notes() const { return notes_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// The host CPUs this process may run on, and pinning to them. On a shared host the
// CPUs differ in speed by tens of percent over minutes (busy sibling cores, other
// tenants), so a single-threaded workload pins itself to each CPU in turn instead of
// staying wherever the scheduler first put it, and the contended workloads give each
// thread a CPU of its own.
class HostCpus {
 public:
  // The set as found on the first call, which main() makes before any thread is pinned
  // (afterwards the calling thread's own affinity would be a single CPU).
  static const HostCpus& Allowed() {
    static const HostCpus cpus;
    return cpus;
  }

  // At least 1, so callers can divide by it; Pin is a no-op without an allowed set.
  int count() const { return std::max(1, static_cast<int>(cpus_.size())); }

  // Pins the calling thread to the i-th allowed CPU (modulo their number).
  void Pin(size_t i) const {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  // Gives the calling thread back every allowed CPU.
  void Unpin() const {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }

 private:
  HostCpus() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) {
        cpus_.push_back(cpu);
      }
    }
  }

  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
