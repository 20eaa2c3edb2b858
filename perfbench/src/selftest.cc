// Self-test of the benchmark's own arithmetic: percentiles and the rule of
// ten samples beyond each one, self time from nested spans, the geometric
// mean of statement medians, and the ratios the per-layer metrics are built
// from. Exits nonzero if any check fails;
// perfbench/run.py runs it after every build.

#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span MakeSpan(int64_t s, int64_t e, int32_t parent, int thread = 0) {
  perfbench::Span sp;
  sp.start_ns = s;
  sp.end_ns = e;
  sp.parent = parent;
  sp.thread = thread;
  return sp;
}

void TestPercentiles() {
  using namespace perfbench;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Check(Near(Percentile(v, 50), 50), "p50 of 1..100 is 50");
  Check(Near(Percentile(v, 99), 99), "p99 of 1..100 is 99");
  Check(Near(Percentile(v, 100), 100), "p100 is the maximum");
  Check(Near(Percentile({7}, 99), 7), "percentile of one sample");
  Check(Percentile({}, 50) == 0, "percentile of no samples is 0");
  Check(Near(Median({3, 1, 2}), 2), "median of three");

  Check(SamplesBeyond(100, 99) == 1, "1 sample beyond p99 of 100");
  Check(SamplesBeyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  Check(SamplesBeyond(999, 99) == 9, "9 samples beyond p99 of 999");
  Check(SamplesBeyond(20, 50) == 10, "10 samples beyond p50 of 20");

  Check(SupportedPercentile(1000, 99) == 99, "1000 samples support p99");
  Check(SupportedPercentile(999, 99) == 98, "999 samples fall back to p98");
  Check(SupportedPercentile(200, 99) == 95, "200 samples support p95");
  Check(SupportedPercentile(10000, 99) == 99, "target caps the percentile");
  Check(SupportedPercentile(20, 99) == 50, "20 samples support only p50");
  Check(SupportedPercentile(19, 99) == 0, "19 samples support nothing");
  for (size_t n : {20u, 57u, 200u, 999u, 1000u, 12345u}) {
    double p = SupportedPercentile(n, 99.9);
    Check(SamplesBeyond(n, p) >= kMinBeyond,
          "every supported percentile has ten samples beyond it");
  }
}

void TestSelfTime() {
  using namespace perfbench;
  // request [0,100) with children [10,30) and [20,50) (overlapping) and
  // [60,70); the grandchild [12,18) lies inside the first child.
  std::vector<Span> s = {MakeSpan(0, 100, -1), MakeSpan(10, 30, 0),
                         MakeSpan(20, 50, 0), MakeSpan(60, 70, 0),
                         MakeSpan(12, 18, 1)};
  std::vector<int64_t> self = SelfTimes(s);
  Check(self[0] == 100 - 40 - 10, "parent self excludes the union of children");
  Check(self[1] == 20 - 6, "child self excludes its grandchild");
  Check(self[2] == 30, "leaf self is its duration");
  Check(self[4] == 6, "grandchild self is its duration");

  Check(UnionLength({{0, 10}, {5, 15}, {20, 25}}, 0, 100) == 20,
        "union of overlapping intervals");
  Check(UnionLength({{0, 10}, {5, 15}}, 8, 12) == 4, "union clipped to range");

  // Outer spans of thread 1 cover [0,40) and [50,90) of [0,100).
  std::vector<Span> t = {MakeSpan(0, 40, -1, 1), MakeSpan(10, 20, 0, 1),
                         MakeSpan(50, 90, -1, 1), MakeSpan(0, 100, -1, 2)};
  Check(Near(OuterCoverage(t, 1, 0, 100), 0.8), "outer coverage of a thread");
  Check(Near(OuterCoverage(t, 2, 0, 100), 1.0), "coverage is per thread");

  SpanLog log(true, 3);
  {
    ScopedSpan outer(&log, "outer", 7);
    ScopedSpan inner(&log, "inner", 7);
  }
  Check(log.spans().size() == 2 && log.spans()[1].parent == 0 &&
            log.spans()[0].parent == -1 && log.spans()[1].request == 7,
        "scoped spans nest under the innermost open span");
  SpanLog off(false, 0);
  { ScopedSpan span(&off, "x"); }
  Check(off.spans().empty(), "a disabled log records nothing");
  SpanLog merged(true, 0);
  merged.Absorb(log);
  merged.Absorb(log);
  Check(merged.spans()[3].parent == 2, "absorb re-bases parent indices");
}

void TestRatios() {
  using namespace perfbench;
  Check(Near(Ratio(10, 4), 2.5), "ratio");
  Check(Ratio(5, 0) == 0, "ratio over nothing is 0");
  Check(Near(GeoMean({1, 4, 16}), 4), "geometric mean");
  Check(Near(GeoMean({2.5}), 2.5), "geometric mean of one value");
  Check(GeoMean({}) == 0, "geometric mean of nothing is 0");
  Check(GeoMean({3, 0}) == 0, "geometric mean with a zero is 0");
  // Halving one of four statement medians lowers the mean by 2^(1/4).
  Check(Near(GeoMean({1, 10, 100, 1000}) / GeoMean({1, 10, 50, 1000}),
             std::pow(2.0, 0.25)),
        "each statement weighs the same in the geometric mean");
  Check(std::isinf(Percentile({1, 2, HUGE_VAL}, 99)),
        "a failed request (infinite latency) lands in the tail");
  Check(Near(Delta(5, 12), 7), "counter delta");
  Check(Delta(12, 5) == 0, "a counter that went back reads as 0");
  // 120 statements in 40 group commits: 3 statements per fsync.
  Check(Near(Ratio(Delta(100, 220), Delta(10, 50)), 3),
        "statements per group commit from counter deltas");
  Check(Near(OverheadPct(100, 80), 25), "tracing overhead from rates");
  Check(OverheadPct(0, 80) == 0, "no overhead without an untraced rate");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestRatios();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
