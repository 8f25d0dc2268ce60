//===- janbench/Spans.h - In-memory span recorder --------------------------===//
///
/// \file
/// Times every layer call the benchmark makes. The clock is always read,
/// because the end-to-end phase sums (harden_s, run_s) come from the same
/// timings; a span is kept only when the recorder is enabled (the traced
/// run). Spans stay in memory and are written out once, at exit.
///
//===----------------------------------------------------------------------===//

#ifndef JANBENCH_SPANS_H
#define JANBENCH_SPANS_H

#include "Arith.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace janbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  /// Spans opened while disabled are not kept; close open scopes first.
  void setEnabled(bool On) { Enabled = On; }
  const std::vector<Span> &spans() const { return Spans; }

  /// RAII scope: opens a span under the innermost open one. close()
  /// returns the elapsed time whether or not the span is kept.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name, int Prog = -1)
        : R(R), StartNs(nowNs()) {
      if (!R.Enabled)
        return;
      Idx = static_cast<int>(R.Spans.size());
      int Parent = R.Open.empty() ? -1 : R.Open.back();
      if (Prog < 0 && Parent >= 0)
        Prog = R.Spans[Parent].Prog;
      R.Spans.push_back({Name, StartNs, 0, Parent, Prog});
      R.Open.push_back(Idx);
    }
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double close() {
      if (!Closed) {
        Closed = true;
        EndNs = nowNs();
        if (Idx >= 0) {
          R.Spans[Idx].EndNs = EndNs;
          R.Open.pop_back();
        }
      }
      return static_cast<double>(EndNs - StartNs) * 1e-9;
    }

  private:
    SpanRecorder &R;
    uint64_t StartNs;
    uint64_t EndNs = 0;
    bool Closed = false;
    int Idx = -1;
  };

  /// Writes every span as one JSON array (times in ns from the first
  /// span). Returns false on I/O failure.
  bool writeJson(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    uint64_t T0 = Spans.empty() ? 0 : Spans.front().StartNs;
    std::vector<uint64_t> Self = selfTimes(Spans);
    std::fputs("[\n", F);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%d,\"prog\":%d,"
                   "\"self_ns\":%llu}%s\n",
                   I, S.Name.c_str(),
                   static_cast<unsigned long long>(S.StartNs - T0),
                   static_cast<unsigned long long>(S.EndNs - T0), S.Parent,
                   S.Prog, static_cast<unsigned long long>(Self[I]),
                   I + 1 < Spans.size() ? "," : "");
    }
    std::fputs("]\n", F);
    return std::fclose(F) == 0;
  }

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

} // namespace janbench

#endif // JANBENCH_SPANS_H
