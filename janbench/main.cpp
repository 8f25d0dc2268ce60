//===- janbench/main.cpp - The repository benchmark ------------------------===//
///
/// \file
/// One single-threaded process runs one workload in a closed loop of one
/// client: the drawn programs are hardened and run back to back, round
/// after round, until the measuring time is up. Every cell (one program
/// under one configuration) is checked against its native reference run,
/// and its guest cycle digest must repeat exactly from round to round and
/// from run to run with the same seed.
///
///   janbench --workload <spec-hybrid|juliet-cold|spec-aot> --seed <n>
///            --seconds <s> --trace <0|1> --state-dir <dir>
///
/// Each layer is measured from outside, by timing calls to its public
/// functions and reading its public stats structs. With --trace 1 every
/// other round records spans around those calls; the per-layer metrics
/// come from those rounds, and the rounds in between give the untraced
/// wall time the tracing overhead is stated against. Every time and rate
/// is reported on a common host-speed scale: SpeedProbe slices run between
/// programs and are left out of the measured phases; each round's (and
/// each set-up repetition's) times are multiplied by
/// SpeedProbe::NominalSliceS over the mean slice time seen during it,
/// which divides out the drift of a shared host. The last line of
/// stdout is one JSON object with the metrics; its attempted/failed counts
/// are checked cells (one program under one configuration, the traced-only
/// legs included), plus one failed cell per native reference that drifts
/// between set-up repetitions.
///
//===----------------------------------------------------------------------===//

#include "Arith.h"
#include "Spans.h"
#include "SpeedProbe.h"

#include "core/JanitizerDynamic.h"
#include "core/StaticAnalyzer.h"
#include "dbi/NullClient.h"
#include "jasan/JASan.h"
#include "jasm/Assembler.h"
#include "jcfi/JCFI.h"
#include "rewrite/AotRewriter.h"
#include "rewrite/AotRunner.h"
#include "runtime/Jlibc.h"
#include "workloads/JulietGen.h"
#include "workloads/WorkloadGen.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

using namespace janitizer;
using namespace janbench;

namespace {

// --- workload shape ----------------------------------------------------------
/// SPEC-like programs drawn per seed, and their WorkScale (8 is the
/// figures' default; 32 lets steady-state execution dominate).
constexpr size_t SpecDraw = 24;
constexpr unsigned SpecScale = 32;
/// Juliet cases drawn per family (good and bad variant of each); a smaller
/// family is taken whole.
constexpr size_t JulietPerFamily = 32;
constexpr uint64_t SpecMaxSteps = 1ull << 31;
constexpr uint64_t JulietMaxSteps = 1ull << 24;

// --- measuring ---------------------------------------------------------------
/// Set-up runs at least MinSetupReps times, and again until
/// MinSetupSeconds have passed, so a short set-up still gets a steady
/// median; setup_s is the median repetition.
constexpr unsigned MinSetupReps = 3;
constexpr double MinSetupSeconds = 2.0;
/// Measured rounds (of each kind in a traced run) before the clock may
/// end the phase.
constexpr unsigned MinRounds = 3;
/// Latency samples needed for a reportable p90 (10 above it).
constexpr size_t MinLatencySamples = 100;
/// No new round starts after this, whatever the minimums say.
constexpr double HardCapSeconds = 120.0;
/// Work between two host speed probe slices.
constexpr uint64_t ProbeEveryNs = 50'000'000;

enum class Workload { SpecHybrid, JulietCold, SpecAot };

struct Options {
  Workload W = Workload::SpecHybrid;
  std::string Name;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string StateDir;
};

/// One drawn program with its native reference.
struct Program {
  std::string Name;
  WorkloadBuild W;
  std::string Checksum;
  uint64_t NativeCycles = 0;
  uint64_t NativeRetired = 0;
  bool Juliet = false;
  bool Bad = false;
  /// Distinct violations JASan must report (the Figure 10 classification:
  /// HeapToStack bad variants are caught by the canary only).
  size_t ExpectedDistinct = 0;
};

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto S = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return S(U.ru_utime) + S(U.ru_stime);
}

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

size_t distinctViolations(const std::vector<Violation> &Vs) {
  std::set<std::pair<uint64_t, std::string>> D;
  for (const Violation &V : Vs)
    D.insert({V.PC, V.What});
  return D.size();
}

/// Everything one round measures. Times in seconds, scaled by K once the
/// round ends.
struct RoundStats {
  double WallS = 0, CpuS = 0, HardenS = 0, RunS = 0;
  /// Host speed factor of this round (SpeedProbe::NominalSliceS over the
  /// mean slice time the probe saw during it), and the unscaled wall time.
  double K = 1, RawWallS = 0;
  /// Harden+run latency of each cell, in ms.
  std::vector<double> LatencyMs;
  /// Time spent in legs that exist only in traced rounds (the null-client
  /// runs and the load-only legs).
  double TracedOnlyS = 0;

  // core
  uint64_t InsnsDecoded = 0, BlocksDiscovered = 0, RulesEmitted = 0;
  uint64_t RuleLookups = 0, RuleHits = 0, StaticBlocks = 0, DynamicBlocks = 0;
  // dbi (hybrid runs)
  DbiStats Dbi;
  uint64_t HybridRetired = 0;
  // rewrite (AOT runs)
  uint64_t NativeLegs = 0, DbiLegs = 0, TierEnters = 0, Intercepts = 0,
           AotChecks = 0, VacatedEnters = 0, AotDispatchEntries = 0;
  // jasan
  uint64_t Violations = 0;
  /// Per-configuration slowdowns of the cells that passed.
  std::map<std::string, std::vector<double>> Slowdowns;

  uint64_t Attempted = 0, Failed = 0;
  /// Index range of this round's spans (traced rounds only).
  size_t SpanBegin = 0, SpanEnd = 0;
  /// Index range of this round's speed probe slices.
  size_t SliceBegin = 0, SliceEnd = 0;

  void scale() {
    RawWallS = WallS;
    for (double *T : {&WallS, &CpuS, &HardenS, &RunS, &TracedOnlyS})
      *T *= K;
    for (double &L : LatencyMs)
      L *= K;
  }
};

class Bench {
public:
  explicit Bench(Options O) : Opt(std::move(O)), Rec(Opt.Trace) {}
  int run();

private:
  // set-up
  bool setupOnce(std::vector<Program> &Out);
  bool setupSpec(std::vector<Program> &Out);
  bool setupJuliet(std::vector<Program> &Out);

  // measured cells
  void runProgram(const Program &P, int Id, RoundStats &RS);
  void hybridCell(const Program &P, int Id, const char *Config,
                  RoundStats &RS);
  void aotCell(const Program &P, int Id, RoundStats &RS);
  void tracedOnlyLegs(const Program &P, int Id, RoundStats &RS);
  /// Runs a speed probe slice if ProbeEveryNs have passed since the last
  /// one, or if forced.
  void maybeProbe(bool Force = false);
  /// Checks one cell's outcome and records its digest and slowdown.
  void finishCell(const Program &P, const std::string &Config,
                  const RunResult &R, const std::string &Out,
                  const std::vector<Violation> &Vs, RoundStats &RS);
  void fail(const std::string &Cell, const std::string &Why, RoundStats &RS);

  // reporting
  uint64_t checkRunDigest();
  void report(const std::vector<RoundStats> &Plain,
              const std::vector<RoundStats> &Traced);

  Options Opt;
  SpanRecorder Rec;
  std::vector<Program> Progs;

  SpeedProbe Probe;
  std::vector<double> Slices;
  /// Total time spent in probe slices; phases subtract their share.
  double ProbeTotalS = 0;
  uint64_t LastSliceNs = 0;

  /// First-seen digest of every cell; any later round must match it.
  std::map<std::string, std::string> Digests;
  std::vector<std::string> Failures;
  /// Cells whose digest differs from an earlier run with the same seed.
  uint64_t RunDrift = 0;

  /// Host speed factor of the slices in [Begin, End).
  double speedFactor(size_t Begin, size_t End) const;

  /// Scaled set-up times and the speed factor of each repetition.
  std::vector<double> SetupS, SetupK;
  /// Span index ranges of each set-up repetition (traced run only).
  std::vector<std::pair<size_t, size_t>> SetupSpans;
  uint64_t SetupFailed = 0;
};

//===----------------------------------------------------------------------===//
// Set-up: generate, assemble and run the native references
//===----------------------------------------------------------------------===//

bool Bench::setupSpec(std::vector<Program> &Out) {
  const std::vector<BenchProfile> &All = specProfiles();
  int Id = 0;
  for (size_t I : drawIndices(Opt.Seed, All.size(), SpecDraw)) {
    const BenchProfile &Prof = All[I];
    Program P;
    P.Name = Prof.Name;
    {
      SpanRecorder::Scope S(Rec, "workloads.build", Id);
      WorkloadOptions WO;
      WO.WorkScale = SpecScale;
      ErrorOr<WorkloadBuild> W = buildWorkload(Prof, WO);
      if (!W) {
        Failures.push_back(P.Name + ": generation: " + W.message());
        return false;
      }
      P.W = W.takeValue();
    }
    {
      SpanRecorder::Scope S(Rec, "vm.native", Id);
      RunResult R;
      P.Checksum = nativeReference(P.W, &R);
      if (R.St != RunResult::Status::Exited || P.Checksum.empty()) {
        Failures.push_back(P.Name + ": native reference run failed");
        return false;
      }
      P.NativeCycles = R.Cycles;
      P.NativeRetired = R.Retired;
    }
    Out.push_back(std::move(P));
    ++Id;
    maybeProbe();
  }
  return true;
}

bool Bench::setupJuliet(std::vector<Program> &Out) {
  Module Libc;
  {
    SpanRecorder::Scope S(Rec, "workloads.build");
    ErrorOr<Module> L = buildJlibc();
    if (!L) {
      Failures.push_back("libjz.so: " + L.message());
      return false;
    }
    Libc = L.takeValue();
  }
  std::vector<JulietCase> Suite = julietCwe122Suite();
  std::map<JulietCase::Family, std::vector<size_t>> ByFamily;
  for (size_t I = 0; I < Suite.size(); ++I)
    ByFamily[Suite[I].Kind].push_back(I);
  int Id = 0;
  for (auto &[Family, Cases] : ByFamily) {
    uint64_t FamilySeed = Opt.Seed * 4 + static_cast<uint64_t>(Family);
    for (size_t Pick : drawIndices(FamilySeed, Cases.size(), JulietPerFamily)) {
      const JulietCase &C = Suite[Cases[Pick]];
      for (bool Bad : {false, true}) {
        Program P;
        P.Name = C.Name + (Bad ? "/bad" : "/good");
        P.Juliet = true;
        P.Bad = Bad;
        if (Bad)
          P.ExpectedDistinct = C.Kind == JulietCase::Family::HeapToStack
                                   ? 1
                                   : C.ExpectedViolations;
        P.W.ExeName = "prog";
        {
          SpanRecorder::Scope S(Rec, "workloads.build", Id);
          P.W.Store.add(Libc);
          ErrorOr<Module> M = assembleModule(Bad ? C.BadSource : C.GoodSource);
          if (!M) {
            Failures.push_back(P.Name + ": assembly: " + M.message());
            return false;
          }
          P.W.Store.add(M.takeValue());
        }
        {
          SpanRecorder::Scope S(Rec, "vm.native", Id);
          Process Proc(P.W.Store);
          if (Error E = Proc.loadProgram(P.W.ExeName)) {
            Failures.push_back(P.Name + ": native load: " + E.message());
            return false;
          }
          RunResult R = Proc.runNative(JulietMaxSteps);
          if (R.St != RunResult::Status::Exited) {
            Failures.push_back(P.Name + ": native reference run failed");
            return false;
          }
          P.Checksum = Proc.output();
          P.NativeCycles = R.Cycles;
          P.NativeRetired = R.Retired;
        }
        Out.push_back(std::move(P));
        ++Id;
        maybeProbe();
      }
    }
  }
  return true;
}

bool Bench::setupOnce(std::vector<Program> &Out) {
  return Opt.W == Workload::JulietCold ? setupJuliet(Out) : setupSpec(Out);
}

//===----------------------------------------------------------------------===//
// Measured cells
//===----------------------------------------------------------------------===//

void Bench::fail(const std::string &Cell, const std::string &Why,
                 RoundStats &RS) {
  ++RS.Failed;
  if (Failures.size() < 20)
    Failures.push_back(Cell + ": " + Why);
}

void Bench::finishCell(const Program &P, const std::string &Config,
                       const RunResult &R, const std::string &Out,
                       const std::vector<Violation> &Vs, RoundStats &RS) {
  std::string Cell = P.Name + "/" + Config;
  ++RS.Attempted;

  // Cycle-domain determinism: the same cell must repeat exactly.
  std::ostringstream D;
  D << R.Cycles << ' ' << R.Retired << ' ' << static_cast<int>(R.St) << ' '
    << std::hex << fnv1a(Out);
  uint64_t VH = fnv1a("");
  for (const Violation &V : Vs)
    VH = fnv1a(std::to_string(V.Code) + ':' + std::to_string(V.PC) + ':' +
                   std::to_string(V.Detail) + ':' + V.What + ';',
               VH);
  D << ' ' << VH;
  auto [It, New] = Digests.emplace(Cell, D.str());
  if (!New && It->second != D.str()) {
    fail(Cell, "cycle digest drifted: " + It->second + " -> " + D.str(), RS);
    return;
  }

  size_t Distinct = distinctViolations(Vs);
  RS.Violations += Distinct;
  if (R.St != RunResult::Status::Exited) {
    fail(Cell, "did not exit normally: " + R.FaultMsg, RS);
    return;
  }
  if (Out != P.Checksum) {
    fail(Cell, "output '" + Out + "' != native '" + P.Checksum + "'", RS);
    return;
  }
  if (!P.Juliet && !Vs.empty()) {
    fail(Cell, std::to_string(Vs.size()) + " violations on a clean program",
         RS);
    return;
  }
  if (Distinct != P.ExpectedDistinct) {
    fail(Cell,
         std::to_string(Distinct) + " distinct violations, expected " +
             std::to_string(P.ExpectedDistinct),
         RS);
    return;
  }
  RS.Slowdowns[Config].push_back(static_cast<double>(R.Cycles) /
                                 static_cast<double>(P.NativeCycles));
}

void Bench::hybridCell(const Program &P, int Id, const char *Config,
                       RoundStats &RS) {
  bool Jcfi = std::strcmp(Config, "jcfi_hybrid") == 0;
  uint64_t MaxSteps = P.Juliet ? JulietMaxSteps : SpecMaxSteps;
  JcfiDatabase Db;
  RuleStore Rules;
  double HardenS = 0;
  // Only the configured tool is built: JCFI's static pass fills Db, which
  // the run-time tool then reads.
  auto MakeTool = [&](bool Static) -> std::unique_ptr<SecurityTool> {
    if (!Jcfi)
      return std::make_unique<JASanTool>();
    auto T = std::make_unique<JCFITool>(Db);
    if (Static)
      T->setStaticOutput(&Db);
    return T;
  };
  {
    std::unique_ptr<SecurityTool> Tool = MakeTool(true);
    SpanRecorder::Scope S(Rec, "core.analyze", Id);
    StaticAnalyzer SA;
    Error E = SA.analyzeProgram(P.W.Store, P.W.ExeName, *Tool, Rules,
                                P.W.DlopenOnly);
    HardenS = S.close();
    if (E) {
      ++RS.Attempted;
      fail(P.Name + "/" + Config, "analysis refused: " + E.message(), RS);
      return;
    }
    const StaticAnalyzerStats &St = SA.stats();
    RS.InsnsDecoded += St.InstructionsDecoded;
    RS.BlocksDiscovered += St.BlocksDiscovered;
    RS.RulesEmitted += St.RulesEmitted;
  }
  JanitizerRun R;
  double RunS = 0;
  {
    std::unique_ptr<SecurityTool> Tool = MakeTool(false);
    SpanRecorder::Scope S(Rec, Jcfi ? "dbi.run.jcfi" : "dbi.run.jasan", Id);
    R = runUnderJanitizer(P.W.Store, P.W.ExeName, *Tool, Rules, MaxSteps);
    RunS = S.close();
  }
  RS.HardenS += HardenS;
  RS.RunS += RunS;
  RS.LatencyMs.push_back((HardenS + RunS) * 1e3);
  RS.RuleLookups += R.Coverage.RuleLookups;
  RS.RuleHits += R.Coverage.RuleHits;
  RS.StaticBlocks += R.Coverage.StaticBlocks;
  RS.DynamicBlocks += R.Coverage.DynamicBlocks;
  uint64_t Arena = std::max(RS.Dbi.JitArenaBytes, R.Dbi.JitArenaBytes);
  RS.Dbi.add(R.Dbi);
  RS.Dbi.JitArenaBytes = Arena;
  RS.HybridRetired += R.Result.Retired;
  finishCell(P, Config, R.Result, R.Output, R.Violations, RS);
}

void Bench::aotCell(const Program &P, int Id, RoundStats &RS) {
  const std::string Cell = P.Name + "/jasan_aot";
  RuleStore Rules;
  double HardenS = 0;
  {
    JASanTool StaticTool;
    SpanRecorder::Scope S(Rec, "core.analyze", Id);
    StaticAnalyzer SA;
    Error E = SA.analyzeProgram(P.W.Store, P.W.ExeName, StaticTool, Rules,
                                P.W.DlopenOnly);
    HardenS += S.close();
    if (E) {
      ++RS.Attempted;
      fail(Cell, "analysis refused: " + E.message(), RS);
      return;
    }
    const StaticAnalyzerStats &St = SA.stats();
    RS.InsnsDecoded += St.InstructionsDecoded;
    RS.BlocksDiscovered += St.BlocksDiscovered;
    RS.RulesEmitted += St.RulesEmitted;
  }
  ModuleStore Rewritten;
  AotManifest Manifest;
  {
    SpanRecorder::Scope S(Rec, "rewrite.rewrite", Id);
    Error E = aotRewriteProgram(P.W.Store, P.W.ExeName, Rules, "jasan",
                                Rewritten, Manifest);
    // dlopen-only modules have no rules: rewrite them all-stubbed so the
    // DBI tier discovers their code, as the hybrid tier would.
    for (const std::string &Name : P.W.DlopenOnly) {
      if (E)
        break;
      const Module *M = P.W.Store.find(Name);
      if (!M)
        continue;
      ErrorOr<AotModuleResult> MR = aotRewriteModule(*M, nullptr, "jasan");
      if (!MR) {
        E = MR.takeError();
        break;
      }
      Manifest.Modules[M->Name] = std::move(MR->Manifest);
      Rewritten.add(std::move(MR->NewMod));
    }
    HardenS += S.close();
    if (E) {
      ++RS.Attempted;
      fail(Cell, "rewrite refused: " + E.message(), RS);
      return;
    }
  }
  AotRun R;
  double RunS = 0;
  {
    JASanTool Tool;
    SpanRecorder::Scope S(Rec, "rewrite.run", Id);
    R = runUnderJanitizerAot(Rewritten, P.W.ExeName, Tool, Rules, Manifest);
    RunS = S.close();
  }
  RS.HardenS += HardenS;
  RS.RunS += RunS;
  RS.LatencyMs.push_back((HardenS + RunS) * 1e3);
  RS.NativeLegs += R.NativeLegs;
  RS.DbiLegs += R.DbiLegs;
  RS.TierEnters += R.TierEnters;
  RS.Intercepts += R.Intercepts;
  RS.AotChecks += R.AotChecks;
  RS.VacatedEnters += R.VacatedEnters;
  RS.AotDispatchEntries += R.Dbi.DispatchEntries;
  finishCell(P, "jasan_aot", R.Result, R.Output, R.Violations, RS);
}

/// Traced rounds only: a null-client run of the program (the base the
/// tools' self time is taken over) and a load-only leg, which makes the
/// same public calls runUnderJanitizer makes before it runs.
void Bench::tracedOnlyLegs(const Program &P, int Id, RoundStats &RS) {
  uint64_t MaxSteps = P.Juliet ? JulietMaxSteps : SpecMaxSteps;
  {
    JASanTool Tool;
    RuleStore Rules;
    SpanRecorder::Scope S(Rec, "vm.load", Id);
    Process Proc(P.W.Store);
    JanitizerDynamic Dyn(Tool, Rules);
    DbiEngine E(Proc, Dyn);
    Error Err = Proc.loadProgram(P.W.ExeName);
    RS.TracedOnlyS += S.close();
    ++RS.Attempted;
    if (Err)
      fail(P.Name + "/load", Err.message(), RS);
  }
  if (Opt.W == Workload::SpecAot)
    return;
  SpanRecorder::Scope S(Rec, "dbi.run.null", Id);
  Process Proc(P.W.Store);
  NullClient Tool;
  DbiEngine E(Proc, Tool);
  RunResult R;
  if (Error Err = Proc.loadProgram(P.W.ExeName))
    R.St = RunResult::Status::Faulted;
  else
    R = E.run(MaxSteps);
  RS.TracedOnlyS += S.close();
  ++RS.Attempted;
  if (R.St != RunResult::Status::Exited || Proc.output() != P.Checksum)
    fail(P.Name + "/null", "null-client run did not reproduce native", RS);
}

double Bench::speedFactor(size_t Begin, size_t End) const {
  double Sum = 0;
  for (size_t I = Begin; I < End; ++I)
    Sum += Slices[I];
  return Sum > 0 ? SpeedProbe::NominalSliceS * static_cast<double>(End - Begin) / Sum
                 : 1.0;
}

void Bench::maybeProbe(bool Force) {
  if (!Force && nowNs() - LastSliceNs < ProbeEveryNs)
    return;
  SpanRecorder::Scope S(Rec, "bench.probe");
  Slices.push_back(Probe.slice());
  ProbeTotalS += S.close();
  LastSliceNs = nowNs();
}

void Bench::runProgram(const Program &P, int Id, RoundStats &RS) {
  SpanRecorder::Scope S(Rec, "bench.program", Id);
  switch (Opt.W) {
  case Workload::SpecHybrid:
    hybridCell(P, Id, "jasan_hybrid", RS);
    hybridCell(P, Id, "jcfi_hybrid", RS);
    break;
  case Workload::JulietCold:
    hybridCell(P, Id, "jasan_hybrid", RS);
    break;
  case Workload::SpecAot:
    aotCell(P, Id, RS);
    break;
  }
  if (Rec.enabled())
    tracedOnlyLegs(P, Id, RS);
  maybeProbe();
}

//===----------------------------------------------------------------------===//
// Run loop
//===----------------------------------------------------------------------===//

/// Cross-run determinism: the first run of a (workload, seed) in a state
/// directory stores its cell digests; every later run must match them.
/// Returns the number of cells that drifted (a cell missing on either
/// side counts as drifted).
uint64_t Bench::checkRunDigest() {
  if (Opt.StateDir.empty())
    return 0;
  std::string Path = Opt.StateDir + "/digest-" + Opt.Name + "-" +
                     std::to_string(Opt.Seed) + ".txt";
  std::ifstream In(Path);
  if (!In) {
    std::string Tmp = Path + ".tmp";
    {
      std::ofstream Out(Tmp);
      for (const auto &[Cell, D] : Digests)
        Out << Cell << ' ' << D << '\n';
    }
    std::rename(Tmp.c_str(), Path.c_str());
    return 0;
  }
  std::map<std::string, std::string> Prev;
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Sp = Line.find(' ');
    if (Sp != std::string::npos)
      Prev[Line.substr(0, Sp)] = Line.substr(Sp + 1);
  }
  uint64_t Drifted = 0;
  for (const auto &[Cell, D] : Digests) {
    auto It = Prev.find(Cell);
    if (It == Prev.end() || It->second != D) {
      ++Drifted;
      if (Failures.size() < 20)
        Failures.push_back(Cell + ": cycle digest differs from an earlier "
                           "run with the same seed");
    }
  }
  for (const auto &[Cell, D] : Prev)
    Drifted += !Digests.count(Cell);
  return Drifted;
}

int Bench::run() {
  // Set-up, repeated; its median is setup_s. The last repetition's
  // programs are measured, and every repetition must agree on them.
  double SetupTotal = 0;
  for (unsigned Rep = 0; Rep < MinSetupReps || SetupTotal < MinSetupSeconds;
       ++Rep) {
    std::vector<Program> Fresh;
    size_t Begin = Rec.spans().size();
    bool Ok;
    {
      double Probed = ProbeTotalS;
      size_t FirstSlice = Slices.size();
      SpanRecorder::Scope S(Rec, "bench.setup");
      maybeProbe(true);
      Ok = setupOnce(Fresh);
      double Raw = S.close() - (ProbeTotalS - Probed);
      SetupTotal += Raw;
      SetupK.push_back(speedFactor(FirstSlice, Slices.size()));
      SetupS.push_back(Raw * SetupK.back());
    }
    SetupSpans.push_back({Begin, Rec.spans().size()});
    if (!Ok) {
      std::fprintf(stderr, "janbench: set-up failed: %s\n",
                   Failures.back().c_str());
      return 1;
    }
    for (size_t I = 0; Rep && I < Fresh.size(); ++I)
      if (Fresh[I].Checksum != Progs[I].Checksum ||
          Fresh[I].NativeCycles != Progs[I].NativeCycles ||
          Fresh[I].NativeRetired != Progs[I].NativeRetired) {
        ++SetupFailed;
        Failures.push_back(Fresh[I].Name + ": native reference drifted");
      }
    Progs = std::move(Fresh);
  }

  std::vector<RoundStats> Plain, Traced;
  size_t Samples = 0;
  uint64_t Start = nowNs();
  for (unsigned Round = 0;; ++Round) {
    double Elapsed = static_cast<double>(nowNs() - Start) * 1e-9;
    // Latency is reported from untraced runs only, so only they need
    // enough samples for a p90.
    bool Enough = Plain.size() >= MinRounds &&
                  (Opt.Trace ? Traced.size() >= MinRounds
                             : Samples >= MinLatencySamples);
    if (!Plain.empty() && (!Opt.Trace || !Traced.empty()) &&
        ((Elapsed >= Opt.Seconds && Enough) || Elapsed >= HardCapSeconds))
      break;
    bool TracedRound = Opt.Trace && Round % 2 == 1;
    Rec.setEnabled(TracedRound);
    RoundStats RS;
    RS.SpanBegin = Rec.spans().size();
    RS.SliceBegin = Slices.size();
    double Cpu0 = cpuSeconds(), Probed = ProbeTotalS;
    {
      SpanRecorder::Scope S(Rec, "bench.round");
      maybeProbe(true);
      for (size_t I = 0; I < Progs.size(); ++I)
        runProgram(Progs[I], static_cast<int>(I), RS);
      RS.WallS = S.close() - (ProbeTotalS - Probed);
    }
    RS.CpuS = cpuSeconds() - Cpu0 - (ProbeTotalS - Probed);
    RS.SpanEnd = Rec.spans().size();
    RS.SliceEnd = Slices.size();
    RS.K = speedFactor(RS.SliceBegin, RS.SliceEnd);
    RS.scale();
    if (TracedRound) {
      Traced.push_back(std::move(RS));
    } else {
      Samples += RS.LatencyMs.size();
      Plain.push_back(std::move(RS));
    }
  }
  Rec.setEnabled(false);
  RunDrift = checkRunDigest();
  if (Opt.Trace && !Opt.StateDir.empty()) {
    std::string Path = Opt.StateDir + "/spans-" + Opt.Name + "-" +
                       std::to_string(Opt.Seed) + ".json";
    if (!Rec.writeJson(Path))
      std::fprintf(stderr, "janbench: could not write %s\n", Path.c_str());
  }
  report(Plain, Traced);
  return 0;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// Sums the self time of the spans named \p Name within [Begin, End).
double selfSeconds(const std::vector<Span> &Spans,
                   const std::vector<uint64_t> &Self, size_t Begin, size_t End,
                   const std::string &Name) {
  uint64_t Ns = 0;
  for (size_t I = Begin; I < End; ++I)
    if (Spans[I].Name == Name)
      Ns += Self[I];
  return static_cast<double>(Ns) * 1e-9;
}

/// Per-round figures are averaged, not taken as a median: on a shared host
/// round times are often bimodal, and the median of a bimodal sample jumps
/// between modes from run to run while the mean moves with the mixture.
template <typename Fn>
double meanOf(const std::vector<RoundStats> &Rounds, Fn F) {
  std::vector<double> V;
  for (const RoundStats &R : Rounds)
    V.push_back(F(R));
  return mean(V);
}

void Bench::report(const std::vector<RoundStats> &Plain,
                   const std::vector<RoundStats> &Traced) {
  uint64_t Attempted = SetupFailed, Failed = SetupFailed + RunDrift;
  for (const auto *Set : {&Plain, &Traced})
    for (const RoundStats &R : *Set) {
      Attempted += R.Attempted;
      Failed += R.Failed;
    }
  const RoundStats &First = Plain.front();

  std::vector<double> Latency;
  for (const RoundStats &R : Plain)
    Latency.insert(Latency.end(), R.LatencyMs.begin(), R.LatencyMs.end());
  std::vector<double> AllSlow;
  std::map<std::string, double> Slow;
  for (const char *C : {"jasan_hybrid", "jcfi_hybrid", "jasan_aot"}) {
    auto It = First.Slowdowns.find(C);
    if (It == First.Slowdowns.end())
      continue;
    Slow[C] = geomean(It->second);
    AllSlow.insert(AllSlow.end(), It->second.begin(), It->second.end());
  }

  std::printf("# janbench %s seed=%" PRIu64 " trace=%d: %zu programs, %zu "
              "rounds (+%zu traced), %" PRIu64 "/%" PRIu64 " cells failed\n",
              Opt.Name.c_str(), Opt.Seed, Opt.Trace ? 1 : 0, Progs.size(),
              Plain.size(), Traced.size(), Failed, Attempted);
  std::printf("# fail_ratio %.6g (%" PRIu64 " failed / %" PRIu64
              " attempted)\n",
              Attempted ? static_cast<double>(Failed) / Attempted : 0.0,
              Failed, Attempted);
  for (const std::string &F : Failures)
    std::printf("# FAIL %s\n", F.c_str());
  std::printf("# round wall_s (raw):");
  for (const RoundStats &R : Plain)
    std::printf(" %.4f", R.RawWallS);
  std::printf("\n# round speed factor:");
  for (const RoundStats &R : Plain)
    std::printf(" %.4f", R.K);
  std::printf("\n");
  std::printf("# latency samples %zu (p90 %s)\n", Latency.size(),
              percentileReportable(Latency.size(), 0.9)
                  ? "reportable"
                  : "NOT reportable: fewer than 10 samples above it");
  for (const auto &[C, V] : Slow) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    std::printf("# slowdown.%s %.17g over %zu cells (bits %016" PRIx64 ")\n",
                C.c_str(), V, First.Slowdowns.at(C).size(), Bits);
  }

  std::vector<Metric> M;
  if (!Opt.Trace) {
    auto Avg = [&](auto F) { return meanOf(Plain, F); };
    M = {
        {"setup_s", median(SetupS), "s"},
        {"wall_s", Avg([](const RoundStats &R) { return R.WallS; }), "s"},
        {"cpu_s", Avg([](const RoundStats &R) { return R.CpuS; }), "s"},
        {"harden_s", Avg([](const RoundStats &R) { return R.HardenS; }), "s"},
        {"run_s", Avg([](const RoundStats &R) { return R.RunS; }), "s"},
        {"latency_ms_p50", percentile(Latency, 0.5), "ms"},
        {"latency_ms_p90", percentile(Latency, 0.9), "ms"},
        {"slowdown", geomean(AllSlow), "x"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
  } else {
    const std::vector<Span> &Spans = Rec.spans();
    std::vector<uint64_t> Self = selfTimes(Spans);
    auto Layer = [&](const RoundStats &R, const char *Name) {
      return R.K * selfSeconds(Spans, Self, R.SpanBegin, R.SpanEnd, Name);
    };
    auto Avg = [&](auto F) { return meanOf(Traced, F); };
    auto SetupLayer = [&](const char *Name) {
      std::vector<double> V;
      for (size_t I = 0; I < SetupSpans.size(); ++I)
        V.push_back(SetupK[I] * selfSeconds(Spans, Self, SetupSpans[I].first,
                                            SetupSpans[I].second, Name));
      return median(V);
    };
    const RoundStats &T = Traced.back();
    uint64_t NativeRetired = 0;
    for (const Program &P : Progs)
      NativeRetired += P.NativeRetired;

    double NativeS = SetupLayer("vm.native");
    double AnalyzeS = Avg([&](const RoundStats &R) {
      return Layer(R, "core.analyze");
    });
    double DbiS = Avg([&](const RoundStats &R) {
      return Layer(R, "dbi.run.jasan") + Layer(R, "dbi.run.jcfi");
    });
    // A tool's self time: its runs minus the null-client runs of the same
    // programs (0 where the tool does not run under the DBI engine).
    auto ToolSelf = [&](const char *Span) {
      return Avg([&](const RoundStats &R) {
        double Tool = Layer(R, Span);
        return Tool > 0 ? Tool - Layer(R, "dbi.run.null") : 0.0;
      });
    };
    double UntracedWall = meanOf(Plain, [](const RoundStats &R) {
      return R.WallS;
    });
    double TracedWall = Avg([](const RoundStats &R) {
      return R.WallS - R.TracedOnlyS;
    });
    Ratio RuleHit{double(T.RuleHits), double(T.RuleLookups)};
    Ratio DynFrac{double(T.DynamicBlocks),
                  double(T.StaticBlocks + T.DynamicBlocks)};
    Ratio Ibl{double(T.Dbi.IblHits), double(T.Dbi.IblHits + T.Dbi.IblMisses)};
    Ratio JitExec{double(T.Dbi.JitExecs), double(T.Dbi.BlocksExecuted)};
    auto SlowOr0 = [&](const char *C) {
      auto It = Slow.find(C);
      return It == Slow.end() ? 0.0 : It->second;
    };
    auto Per = [](double N, double S) { return S > 0 ? N / S : 0.0; };
    M = {
        {"workloads.build_s", SetupLayer("workloads.build"), "s"},
        {"vm.native_s", NativeS, "s"},
        {"vm.native_mips", Per(NativeRetired * 1e-6, NativeS), "Minsn/s"},
        {"vm.load_s", Avg([&](const RoundStats &R) {
           return Layer(R, "vm.load");
         }), "s"},
        {"core.analyze_s", AnalyzeS, "s"},
        {"core.insns_decoded", double(T.InsnsDecoded), "count"},
        {"core.blocks_discovered", double(T.BlocksDiscovered), "count"},
        {"core.rules_emitted", double(T.RulesEmitted), "count"},
        {"core.analyze_insn_per_s", Per(double(T.InsnsDecoded), AnalyzeS),
         "1/s"},
        {"core.rule_hit_ratio", RuleHit.value(), "ratio"},
        {"core.rule_lookups", RuleHit.Base, "count"},
        {"core.dynamic_block_frac", DynFrac.value(), "ratio"},
        {"core.blocks_classified", DynFrac.Base, "count"},
        {"dbi.run_s", DbiS, "s"},
        {"dbi.mips", Per(T.HybridRetired * 1e-6, DbiS), "Minsn/s"},
        {"dbi.blocks_built", double(T.Dbi.BlocksBuilt), "count"},
        {"dbi.dispatch_entries", double(T.Dbi.DispatchEntries), "count"},
        {"dbi.links_followed", double(T.Dbi.LinksFollowed), "count"},
        {"dbi.ibl_hit_ratio", Ibl.value(), "ratio"},
        {"dbi.ibl_lookups", Ibl.Base, "count"},
        {"dbi.traces_built", double(T.Dbi.TracesBuilt), "count"},
        {"dbi.jit_compiled", double(T.Dbi.JitCompiled), "count"},
        {"dbi.jit_exec_ratio", JitExec.value(), "ratio"},
        {"dbi.blocks_executed", JitExec.Base, "count"},
        {"dbi.jit_refused", double(T.Dbi.JitRefused), "count"},
        {"dbi.jit_arena_bytes", double(T.Dbi.JitArenaBytes), "bytes"},
        {"dbi.clean_calls", double(T.Dbi.CleanCalls), "count"},
        {"jasan.self_s", ToolSelf("dbi.run.jasan"), "s"},
        {"jcfi.self_s", ToolSelf("dbi.run.jcfi"), "s"},
        {"jasan.violations", double(T.Violations), "count"},
        {"rewrite.rewrite_s", Avg([&](const RoundStats &R) {
           return Layer(R, "rewrite.rewrite");
         }), "s"},
        {"rewrite.run_s", Avg([&](const RoundStats &R) {
           return Layer(R, "rewrite.run");
         }), "s"},
        {"rewrite.native_legs", double(T.NativeLegs), "count"},
        {"rewrite.dbi_legs", double(T.DbiLegs), "count"},
        {"rewrite.tier_enters", double(T.TierEnters), "count"},
        {"rewrite.intercepts", double(T.Intercepts), "count"},
        {"rewrite.aot_checks", double(T.AotChecks), "count"},
        {"rewrite.vacated_enters", double(T.VacatedEnters), "count"},
        {"rewrite.dbi_dispatch_entries", double(T.AotDispatchEntries),
         "count"},
        {"slowdown.jasan_hybrid", SlowOr0("jasan_hybrid"), "x"},
        {"slowdown.jcfi_hybrid", SlowOr0("jcfi_hybrid"), "x"},
        {"slowdown.jasan_aot", SlowOr0("jasan_aot"), "x"},
        {"bench.self_s", Avg([&](const RoundStats &R) {
           return Layer(R, "bench.program") + Layer(R, "bench.round");
         }), "s"},
        {"trace.wall_s", TracedWall, "s"},
        {"trace.overhead_s", TracedWall - UntracedWall, "s"},
    };
    std::printf("# tracing overhead: traced wall_s %.6f - untraced wall_s "
                "%.6f = %.6f s (traced-only legs excluded)\n",
                TracedWall, UntracedWall, TracedWall - UntracedWall);
  }

  double MeanSlice = 0;
  for (double X : Slices)
    MeanSlice += X / static_cast<double>(Slices.size());
  std::printf("# host speed: %zu probe slices, mean %.4f ms (nominal %.4f "
              "ms); each time is scaled by its round's factor\n",
              Slices.size(), MeanSlice * 1e3, SpeedProbe::NominalSliceS * 1e3);
  if (Opt.Trace)
    M.push_back({"host.probe_ms", MeanSlice * 1e3, "ms/slice"});
  for (const Metric &X : M)
    std::printf("# %-30s %.9g %s\n", X.Name.c_str(), X.Value, X.Unit);
  bool Correct = Failed == 0;
  std::string J = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < M.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", M[I].Value);
    J += (I ? ", \"" : "\"") + M[I].Name + "\": {\"value\": " +
         Buf + ", \"unit\": \"" + M[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: janbench --workload <spec-hybrid|juliet-cold|spec-aot>"
               " --seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload") {
      O.Name = V;
      HaveWorkload = true;
      if (V == "spec-hybrid")
        O.W = Workload::SpecHybrid;
      else if (V == "juliet-cold")
        O.W = Workload::JulietCold;
      else if (V == "spec-aot")
        O.W = Workload::SpecAot;
      else
        return usage();
    } else if (K == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (K == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
    } else if (K == "--trace") {
      O.Trace = V == "1";
    } else if (K == "--state-dir") {
      O.StateDir = V;
    } else {
      return usage();
    }
    if (End && *End)
      return usage();
  }
  if (!HaveWorkload || Argc % 2 == 0)
    return usage();
  return Bench(std::move(O)).run();
}
