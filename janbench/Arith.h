//===- janbench/Arith.h - The benchmark's own arithmetic -------------------===//
///
/// \file
/// Statistics, ratios, span self-time folding and the seeded program draw.
/// Kept free of the library so the self-tests (selftest.cpp) can check
/// every number the benchmark reports without running a workload.
///
//===----------------------------------------------------------------------===//

#ifndef JANBENCH_ARITH_H
#define JANBENCH_ARITH_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace janbench {

/// Median of \p V (mean of the two middle values for an even count; 0 for
/// an empty vector).
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Arithmetic mean of \p V (0 for an empty vector).
inline double mean(const std::vector<double> &V) {
  double Sum = 0.0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
}

/// 1-based nearest-rank index of the \p Q quantile (0 < Q <= 1) among
/// \p N sorted samples.
inline size_t nearestRank(size_t N, double Q) {
  size_t K = static_cast<size_t>(std::ceil(Q * static_cast<double>(N) - 1e-9));
  return std::clamp<size_t>(K, 1, N);
}

/// A percentile is reportable only when at least 10 samples lie above it.
inline bool percentileReportable(size_t N, double Q) {
  return N > 0 && N - nearestRank(N, Q) >= 10;
}

/// Nearest-rank percentile of \p V (0 for an empty vector).
inline double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return V[nearestRank(V.size(), Q) - 1];
}

/// Geometric mean of positive values (0 for an empty vector).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// A ratio that keeps its base, so every reported ratio can say what it
/// was taken over. An empty base reads as 0.
struct Ratio {
  double Num = 0;
  double Base = 0;
  double value() const { return Base > 0 ? Num / Base : 0.0; }
};

/// One recorded span. Parent is an index into the same vector (-1 for a
/// root); Prog groups the spans of one program (-1 outside programs).
struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1;
  int Prog = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once,
/// child time outside the parent's interval not at all).
inline std::vector<uint64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Kids[S.Parent].push_back({S.StartNs, S.EndNs});
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    uint64_t Lo = Spans[I].StartNs, Hi = std::max(Lo, Spans[I].EndNs);
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, Cur = Lo;
    for (auto [S, E] : K) {
      S = std::max(S, Cur);
      E = std::min(E, Hi);
      if (E > S) {
        Covered += E - S;
        Cur = E;
      }
    }
    Self[I] = (Hi - Lo) - Covered;
  }
  return Self;
}

/// splitmix64: the benchmark's own generator, so a seed keeps drawing the
/// same programs whatever the library's generators do.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N) (N > 0; the modulo bias is irrelevant at these N).
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

/// Draws \p K distinct indices of [0, N) in a seeded order (partial
/// Fisher-Yates). K is clamped to N.
inline std::vector<size_t> drawIndices(uint64_t Seed, size_t N, size_t K) {
  std::vector<size_t> All(N);
  for (size_t I = 0; I < N; ++I)
    All[I] = I;
  Rng R(Seed);
  K = std::min(K, N);
  for (size_t I = 0; I < K; ++I)
    std::swap(All[I], All[I + R.below(N - I)]);
  All.resize(K);
  return All;
}

/// FNV-1a, for the determinism digests.
inline uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace janbench

#endif // JANBENCH_ARITH_H
