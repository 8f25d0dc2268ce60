//===- janbench/selftest.cpp - Tests of the benchmark's own arithmetic -----===//
///
/// \file
/// Checks the percentile rule, geomean, median, ratios with their bases,
/// the span self-time fold and the seeded draw. Exits non-zero on the
/// first failed check; run.py runs it after every build.
///
//===----------------------------------------------------------------------===//

#include "Arith.h"
#include "Spans.h"

#include <cmath>
#include <cstdio>
#include <set>

using namespace janbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What, int Line) {
  if (!Ok) {
    std::fprintf(stderr, "selftest:%d: FAILED: %s\n", Line, What);
    ++Failures;
  }
}
#define CHECK(X) check((X), #X, __LINE__)

bool near(double A, double B) { return std::fabs(A - B) <= 1e-12 * std::fabs(B); }

void testPercentiles() {
  // Nearest rank: p90 of 1..100 is 90, and exactly 10 samples lie above.
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  CHECK(percentile(V, 0.9) == 90);
  CHECK(percentile(V, 0.5) == 50);
  CHECK(percentileReportable(100, 0.9));
  CHECK(!percentileReportable(99, 0.9));
  CHECK(percentileReportable(20, 0.5));
  CHECK(!percentileReportable(19, 0.5));
  CHECK(!percentileReportable(0, 0.5));
  CHECK(percentile({7}, 0.9) == 7);
  CHECK(percentile({}, 0.5) == 0);
  // Floating-point products such as 0.9 * 100 must not round up a rank.
  CHECK(nearestRank(100, 0.9) == 90);
  CHECK(nearestRank(10, 0.1) == 1);
  CHECK(nearestRank(3, 1.0) == 3);
}

void testMeans() {
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  CHECK(median({}) == 0);
  CHECK(mean({1, 2, 6}) == 3);
  CHECK(mean({}) == 0);
  CHECK(near(geomean({2, 8}), 4));
  CHECK(near(geomean({1.5, 1.5, 1.5}), 1.5));
  CHECK(geomean({}) == 0);
}

void testRatios() {
  Ratio R{3, 4};
  CHECK(R.value() == 0.75 && R.Base == 4);
  CHECK((Ratio{5, 0}).value() == 0);
}

void testSelfTime() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: covered
  // 10..50 = 40) and a grandchild [12,14) under the first child.
  std::vector<Span> S = {
      {"root", 0, 100, -1, -1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},
      {"g", 12, 14, 1, 1},
  };
  std::vector<uint64_t> Self = selfTimes(S);
  CHECK(Self[0] == 60);
  CHECK(Self[1] == 18);
  CHECK(Self[2] == 30);
  CHECK(Self[3] == 2);
  // A child poking out of its parent only covers the overlap.
  std::vector<Span> T = {{"p", 10, 20, -1, -1}, {"c", 15, 40, 0, -1}};
  CHECK(selfTimes(T)[0] == 5);
  // Without overlapping siblings, self times sum to the root's duration.
  std::vector<Span> U = {{"r", 0, 50, -1, -1},
                         {"x", 5, 15, 0, -1},
                         {"y", 20, 45, 0, -1},
                         {"z", 30, 35, 2, -1}};
  uint64_t Sum = 0;
  for (uint64_t X : selfTimes(U))
    Sum += X;
  CHECK(Sum == 50);
}

void testRecorder() {
  SpanRecorder Off(false);
  {
    SpanRecorder::Scope S(Off, "x");
    CHECK(S.close() >= 0);
  }
  CHECK(Off.spans().empty());
  SpanRecorder On(true);
  {
    SpanRecorder::Scope Outer(On, "outer", 7);
    SpanRecorder::Scope Inner(On, "inner");
    Inner.close();
    SpanRecorder::Scope Next(On, "next");
  }
  const std::vector<Span> &Sp = On.spans();
  CHECK(Sp.size() == 3);
  CHECK(Sp[1].Parent == 0 && Sp[2].Parent == 0);
  CHECK(Sp[1].Prog == 7 && Sp[2].Prog == 7);
  CHECK(Sp[0].EndNs >= Sp[2].EndNs && Sp[2].StartNs >= Sp[1].EndNs);
}

void testDraw() {
  std::vector<size_t> A = drawIndices(42, 28, 24);
  CHECK(A == drawIndices(42, 28, 24));
  CHECK(A.size() == 24);
  CHECK(std::set<size_t>(A.begin(), A.end()).size() == 24);
  for (size_t I : A)
    CHECK(I < 28);
  CHECK(A != drawIndices(43, 28, 24));
  CHECK(drawIndices(1, 5, 9).size() == 5);
  // Pinned values: a change to the generator would silently change every
  // workload's draw.
  Rng R(0);
  CHECK(R.next() == 0xE220A8397B1DCDAFull);
}

} // namespace

int main() {
  testPercentiles();
  testMeans();
  testRatios();
  testSelfTime();
  testRecorder();
  testDraw();
  if (Failures)
    return 1;
  std::printf("janbench selftest: all checks passed\n");
  return 0;
}
