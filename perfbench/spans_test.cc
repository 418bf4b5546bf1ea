// Unit tests for the benchmark's own span arithmetic, percentile helpers and pass
// rescaling. Built as perfbench_test next to the runner; exits non-zero on the first
// failed expectation.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/host_speed.h"
#include "perfbench/report.h"
#include "perfbench/spans.h"

namespace {

using perfbench::Span;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

Span At(int64_t start, int64_t end, int parent, int worker = 0) {
  return {"span", start, end, parent, worker};
}

void SelfTimeWithoutChildrenIsTheDuration() {
  const std::vector<Span> spans = {At(10, 110, -1)};
  Expect(perfbench::SelfTimeNs(spans, 0) == 100, "leaf self time is its duration");
}

void SelfTimeSubtractsDisjointChildren() {
  const std::vector<Span> spans = {At(0, 100, -1), At(10, 20, 0), At(50, 80, 0)};
  Expect(perfbench::SelfTimeNs(spans, 0) == 60, "disjoint children: 100 - 10 - 30");
}

void SelfTimeSubtractsTheUnionOfOverlappingChildren() {
  // Two parallel workers: [10, 60) and [30, 90) overlap on [30, 60). Summing them would
  // subtract 110 from a 100 ns parent; the union covers only 80.
  const std::vector<Span> spans = {At(0, 100, -1), At(10, 60, 0, 1), At(30, 90, 0, 2)};
  Expect(perfbench::SelfTimeNs(spans, 0) == 20, "overlapping children: 100 - |[10,90)|");
}

void SelfTimeHandlesNestedAndContainedChildren() {
  // A child inside another child, and a grandchild, which must not count for the root.
  const std::vector<Span> spans = {At(0, 100, -1), At(0, 50, 0), At(10, 20, 0),
                                   At(60, 70, 1)};
  Expect(perfbench::SelfTimeNs(spans, 0) == 50, "contained child adds nothing");
  Expect(perfbench::SelfTimeNs(spans, 1) == 50, "grandchild outside its parent is clipped");
}

void SelfTimeClipsChildrenToTheParent() {
  const std::vector<Span> spans = {At(100, 200, -1), At(50, 150, 0), At(180, 260, 0)};
  Expect(perfbench::SelfTimeNs(spans, 0) == 30, "children clipped to [100, 200)");
}

void SummaryUsesNearestRank() {
  std::vector<double> values;
  for (int i = 10; i >= 1; --i) {
    values.push_back(i);
  }
  const perfbench::Summary s = perfbench::Summarize(values);
  Expect(s.count == 10, "count");
  Expect(s.p50 == 5.0, "p50 of 1..10 is 5");
  Expect(s.p99 == 10.0, "p99 of 1..10 is 10");
  Expect(s.max == 10.0, "max");

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) {
    thousand.push_back(i);
  }
  const perfbench::Summary t = perfbench::Summarize(thousand);
  Expect(t.p50 == 500.0 && t.p99 == 990.0 && t.p999 == 999.0, "p50/p99/p999 of 1..1000");

  const perfbench::Summary empty = perfbench::Summarize({});
  Expect(empty.count == 0 && empty.p50 == 0.0 && empty.max == 0.0, "empty sample");
}

void RescaledPassesAreTimedBetweenReadings() {
  // With no time to fill, the warm-up pass and then exactly `min_passes` measured passes
  // run, and each rescaled time is the raw time over a positive reading.
  for (const perfbench::PassShape shape :
       {perfbench::PassShape{}, perfbench::PassShape{perfbench::PassShape::kWorkers, 2},
        perfbench::PassShape{perfbench::PassShape::kRing, 2}}) {
    int passes = 0;
    const perfbench::PassTimes times = perfbench::RepeatRescaled(0.0, 3, shape, [&] {
      ++passes;
      return 0.002;
    });
    Expect(passes == 4, "one warm-up pass, then three measured passes");
    Expect(times.raw_s == std::vector<double>(3, 0.002) && times.reference_s.size() == 3,
           "three pass times");
    for (double reference : times.reference_s) {
      Expect(reference > 0.0 && reference < 1.0, "rescaled time is positive and finite");
    }
  }
}

}  // namespace

int main() {
  SelfTimeWithoutChildrenIsTheDuration();
  SelfTimeSubtractsDisjointChildren();
  SelfTimeSubtractsTheUnionOfOverlappingChildren();
  SelfTimeHandlesNestedAndContainedChildren();
  SelfTimeClipsChildrenToTheParent();
  SummaryUsesNearestRank();
  RescaledPassesAreTimedBetweenReadings();
  if (failures == 0) {
    std::printf("perfbench_test: all passed\n");
  }
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
