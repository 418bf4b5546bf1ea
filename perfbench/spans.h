// In-memory spans and the summary statistics the benchmark derives from them.
//
// Spans are recorded by the benchmark's own code around calls into the library's public
// functions (nothing inside src/ is instrumented). A span has a name, a start and end on
// the steady clock, the span that caused it, and the host worker that ran it. Spans of
// parallel workers overlap, so a span's self time is its duration minus the *union* of
// its children's intervals, never minus their sum.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans; -1 for a root
  int worker = 0;   // host worker that ran it (0 = the calling thread)

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Thread-safe span store. Begin/End take a mutex: spans sit at cell granularity
// (milliseconds), so the lock is never the measured cost.
class Recorder {
 public:
  int Begin(std::string name, int parent = -1, int worker = 0) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> guard(mu_);
    spans_.push_back({std::move(name), now, now, parent, worker});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> guard(mu_);
    spans_[id].end_ns = now;
  }

  // Read only after every worker that records into this recorder has joined.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Length of the union of [start, end) intervals, each clipped to [lo, hi).
inline int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo,
                             int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

// Self time of spans[id]: its duration minus the part of its interval that at least one
// direct child covers.
inline int64_t SelfTimeNs(const std::vector<Span>& spans, int id) {
  const Span& span = spans[id];
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& child : spans) {
    if (child.parent == id) {
      children.emplace_back(child.start_ns, child.end_ns);
    }
  }
  return span.duration_ns() - UnionLengthNs(std::move(children), span.start_ns, span.end_ns);
}

// Nearest-rank percentiles of one sample (runtime::PercentileSorted's convention: p50 of
// {1..10} is 5, p99 is 10).
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

inline Summary Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.count = values.size();
  s.p50 = clof::runtime::PercentileSorted(values, 0.50);
  s.p99 = clof::runtime::PercentileSorted(values, 0.99);
  s.p999 = clof::runtime::PercentileSorted(values, 0.999);
  s.max = values.empty() ? 0.0 : values.back();
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
