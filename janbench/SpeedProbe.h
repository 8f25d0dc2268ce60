//===- janbench/SpeedProbe.h - Host speed probe ----------------------------===//
///
/// \file
/// A fixed slice of host work that shares no code with the library: a
/// switch-dispatched toy interpreter over a 256 KiB table, the shape of
/// work the measured layers do. On a shared host the speed of a vCPU
/// drifts by tens of percent over tens of seconds; slices interleaved
/// with the measured work track that drift, and the benchmark divides it
/// out of every time it reports, so that a slower program and a slower
/// machine read differently. The probe cannot see the program, so a real
/// gain or regression of the program still shows in full.
///
//===----------------------------------------------------------------------===//

#ifndef JANBENCH_SPEEDPROBE_H
#define JANBENCH_SPEEDPROBE_H

#include "Spans.h"

#include <cstdint>
#include <vector>

namespace janbench {

class SpeedProbe {
public:
  /// Time of one slice on a quiet reference host (4-vCPU Xeon at
  /// 2.1 GHz); only sets the scale that reported times are expressed in.
  static constexpr double NominalSliceS = 2.5e-3;

  SpeedProbe() : Table(TableWords) {
    uint64_t X = 0x2545F4914F6CDD1Dull;
    for (uint64_t &W : Table) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      W = X;
    }
  }

  /// Runs one slice; returns its duration in seconds.
  double slice() {
    uint64_t T0 = nowNs();
    uint64_t A = Sink, B = 1, Pc = 0;
    for (uint64_t Step = 0; Step < SliceSteps; ++Step) {
      uint64_t &W = Table[(A ^ Pc) & (TableWords - 1)];
      switch ((W >> (Pc & 31)) & 7) {
      case 0: A += W; break;
      case 1: A ^= W >> 3; break;
      case 2: B = B * 31 + A; break;
      case 3: W += B; break;
      case 4: A = (A << 1) | (A >> 63); break;
      case 5: B = (A & 1) ? B ^ W : B + 7; break;
      case 6: Pc += B & 15; break;
      default: A -= B; break;
      }
      ++Pc;
    }
    Sink = A ^ B;
    return static_cast<double>(nowNs() - T0) * 1e-9;
  }

private:
  static constexpr uint64_t TableWords = 1 << 15; ///< 256 KiB
  static constexpr uint64_t SliceSteps = 1 << 17;
  std::vector<uint64_t> Table;
  uint64_t Sink = 0;
};

} // namespace janbench

#endif // JANBENCH_SPEEDPROBE_H
