//===- perfbench/src/main.cpp - End-to-end compile benchmark --------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
//
// One workload per process, one thread, a closed loop: each cell goes
// through compileFunctionGuarded (the guard, deadline and degradation
// ladder pirac uses; no cache, no isolation, no journal) and starts when
// the previous one returned. Every cell's output is checked. The run
// prints each metric with its unit, then one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 1 also replays every cell under spans (Replay.h) and reports
// per-layer metrics instead of the end-to-end ones. See ../README.md.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Workloads.h"

#include "ir/Verifier.h"
#include "pipeline/Batch.h"
#include "support/Hash.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

using namespace pira;
using namespace pira::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  bool SetupOnly = false; ///< Time one set-up, print it, exit.
  std::string SpansOut;
};

[[noreturn]] void usage(const std::string &Problem) {
  std::cerr << "pira_perfbench: " << Problem << "\n"
            << "usage: pira_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--spans-out FILE]\n"
            << "workloads:";
  for (const std::string &N : Workload::names())
    std::cerr << ' ' << N;
  std::cerr << '\n';
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(A + " needs a value");
      return Argv[++I];
    };
    auto Number = [&](const std::string &V) {
      char *End = nullptr;
      double D = std::strtod(V.c_str(), &End);
      if (V.empty() || *End != '\0' || !(D >= 0))
        usage("bad number '" + V + "' for " + A);
      return D;
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = static_cast<uint64_t>(Number(Value()));
    else if (A == "--seconds")
      O.Seconds = Number(Value());
    else if (A == "--trace")
      O.Trace = Number(Value()) != 0;
    else if (A == "--smoke")
      O.Smoke = true;
    else if (A == "--spans-out")
      O.SpansOut = Value();
    else if (A == "--setup-only")
      O.SetupOnly = true;
    else
      usage("unknown argument '" + A + "'");
  }
  if (O.Workload.empty())
    usage("--workload is required");
  return O;
}

/// Shortest text that reads back as exactly \p V.
std::string num(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : std::string("0");
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest of p75..p99.9 with at least ten samples above it (nearest
/// rank); p50 when there are fewer than twenty samples. The rungs are
/// close together so the rank moves little as the sample count changes.
std::pair<double, double> tail(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const double N = static_cast<double>(V.size());
  for (double P : {99.9, 99.5, 99.0, 95.0, 90.0, 80.0, 75.0}) {
    size_t Rank = static_cast<size_t>(std::ceil(P / 100 * N));
    if (Rank >= 1 && N - static_cast<double>(Rank) >= 10)
      return {V[Rank - 1], P};
  }
  return {median(V), 50.0};
}

/// EXPERIMENTS S1: geomean dynamic-cycle ratio versus combined.
struct S1Row {
  const char *Machine;
  const char *AllocFirst, *SchedFirst, *Ips;
};
constexpr S1Row S1Expected[] = {
    {"paper-two-unit", "1.048", "1.010", "0.996"},
    {"rs6000", "1.120", "1.030", "0.999"},
    {"vliw4", "1.133", "1.076", "1.057"},
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Everything a run measures; filled by the closed loop.
struct RunTotals {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  unsigned Passes = 0;
  std::vector<double> CellMs;
  uint64_t Instructions = 0;
  double CompileSeconds = 0;

  uint64_t QualityCells = 0;
  uint64_t DynCycles = 0;
  uint64_t SpillInsts = 0;
  uint64_t FalseDeps = 0;
  hash::Sha256 Digest;
  /// machine -> kernel -> strategy -> dynamic cycles (kernel suite).
  std::map<std::string, std::map<std::string, std::map<std::string, uint64_t>>>
      S1Cycles;

  uint64_t ReplayMismatches = 0;
  double TracedRealSeconds = 0;
  LayerCounts Counts;

  void fail(const Cell &C, const std::string &Why) {
    ++Failed;
    if (Failures.size() < 5)
      Failures.push_back(C.Name + ": " + Why);
  }
};

/// Empty when \p C's compile is correct: not degraded, verifier-clean,
/// and its simulated outputs equal the interpreter's.
std::string checkCell(const Cell &C, const GuardedResult &G) {
  const PipelineResult &R = G.Result;
  if (!R.Success)
    return "compile failed: " + R.Error;
  if (G.Outcome.Degraded || G.Outcome.Used != strategyName(C.Strategy))
    return "degraded to " + G.Outcome.Used;
  std::string VerifyError;
  if (!verifyFunction(R.Final, VerifyError))
    return "final code fails verification: " + VerifyError;
  if (!R.SemanticsPreserved)
    return "compiler reports diverged semantics";
  Measurement M = measureOutputs(*C.Input, R, *C.Machine, C.SimSeed);
  if (!M.Mismatch.empty())
    return M.Mismatch;
  if (M.Cycles != R.DynCycles)
    return "reported " + std::to_string(R.DynCycles) +
           " dynamic cycles, simulation gives " + std::to_string(M.Cycles);
  return {};
}

/// Compares the kernel suite's S1 ratios with EXPERIMENTS.md; prints one
/// line per machine. False on any difference.
bool checkS1(const RunTotals &T) {
  bool Ok = true;
  for (const S1Row &Row : S1Expected) {
    auto It = T.S1Cycles.find(Row.Machine);
    if (It == T.S1Cycles.end()) {
      std::cout << "check s1 " << Row.Machine << " missing\n";
      Ok = false;
      continue;
    }
    const char *Names[3] = {"alloc-first", "sched-first", "goodman-hsu-ips"};
    const char *Want[3] = {Row.AllocFirst, Row.SchedFirst, Row.Ips};
    double LogSum[3] = {0, 0, 0};
    for (const auto &[Kernel, ByStrategy] : It->second) {
      double Combined = static_cast<double>(ByStrategy.at("combined"));
      for (unsigned K = 0; K != 3; ++K)
        LogSum[K] += std::log(static_cast<double>(ByStrategy.at(Names[K])) /
                              Combined);
    }
    std::cout << "check s1 " << Row.Machine;
    bool RowOk = true;
    for (unsigned K = 0; K != 3; ++K) {
      char Got[32];
      double Kernels = static_cast<double>(It->second.size());
      std::snprintf(Got, sizeof(Got), "%.3f", std::exp(LogSum[K] / Kernels));
      bool Same = std::string(Got) == Want[K];
      RowOk &= Same;
      std::cout << ' ' << Names[K] << ' ' << Got
                << (Same ? "" : std::string(" (expected ") + Want[K] + ")");
    }
    std::cout << (RowOk ? " ok\n" : " MISMATCH\n");
    Ok &= RowOk;
  }
  return Ok;
}

/// One cold set-up: build the machines, generate the first pass, and
/// compile a small warm-up cell for every (machine, strategy) pair.
/// Returns its seconds.
double setUp(const Options &O, std::unique_ptr<Workload> &W, Pass &First) {
  auto Start = Clock::now();
  W = Workload::create(O.Workload, O.Seed, O.Smoke);
  First = W->makePass(0);
  Pass Warm = W->makeWarmup();
  for (const Cell &C : Warm.Cells) {
    BatchOptions Opts;
    Opts.Strategy = C.Strategy;
    compileFunctionGuarded(*C.Input, *C.Machine, Opts);
  }
  return secondsSince(Start);
}

/// Runs setUp() in a fresh copy of this process and returns its seconds.
double setupInChild(const Options &O) {
  char Exe[4096];
  ssize_t Len = readlink("/proc/self/exe", Exe, sizeof(Exe) - 1);
  if (Len <= 0) {
    std::cerr << "pira_perfbench: cannot find its own executable\n";
    std::exit(1);
  }
  std::string Quoted = "'";
  for (char Ch : std::string(Exe, static_cast<size_t>(Len)))
    Quoted += Ch == '\'' ? std::string("'\\''") : std::string(1, Ch);
  std::string Cmd = Quoted + "' --setup-only --workload " + O.Workload +
                    " --seed " + std::to_string(O.Seed) +
                    (O.Smoke ? " --smoke" : "");
  double Seconds = -1;
  if (FILE *Child = popen(Cmd.c_str(), "r")) {
    char Line[256];
    while (std::fgets(Line, sizeof(Line), Child) != nullptr)
      std::sscanf(Line, "setup_s %lf", &Seconds);
    if (pclose(Child) != 0)
      Seconds = -1;
  }
  if (Seconds < 0) {
    std::cerr << "pira_perfbench: set-up in a child process failed\n";
    std::exit(1);
  }
  return Seconds;
}

/// Compiles, checks and (with \p Trace) replays every cell of \p P.
void runPass(const Workload &W, const Pass &P, bool Quality, Tracer *Trace,
             RunTotals &T) {
  for (const Cell &C : P.Cells) {
    ++T.Attempted;
    BatchOptions Opts;
    Opts.Strategy = C.Strategy;
    Opts.Seed = C.SimSeed;
    auto Start = Clock::now();
    GuardedResult G = compileFunctionGuarded(*C.Input, *C.Machine, Opts);
    double Seconds = secondsSince(Start);
    T.CellMs.push_back(Seconds * 1e3);
    T.CompileSeconds += Seconds;
    T.Instructions += C.Input->totalInstructions();

    std::string Why = checkCell(C, G);
    if (!Why.empty()) {
      T.fail(C, Why);
      continue;
    }
    const PipelineResult &R = G.Result;
    if (Quality) {
      ++T.QualityCells;
      T.DynCycles += R.DynCycles;
      T.SpillInsts += R.SpillInstructions;
      T.FalseDeps += R.FalseDeps;
      T.Digest.update(C.Name + "\n" + printedOutput(R));
      if (W.checksS1())
        T.S1Cycles[C.Machine->name()][C.Program][strategyName(C.Strategy)] =
            R.DynCycles;
    }
    if (Trace != nullptr) {
      Trace->setCell(static_cast<uint32_t>(T.Attempted - 1));
      T.TracedRealSeconds += Seconds;
      std::string Diff =
          replayMismatch(R, replayCell(C, *Trace, T.Counts));
      if (!Diff.empty()) {
        ++T.ReplayMismatches;
        T.fail(C, "replay differs: " + Diff);
      }
      probeScheduleGraphs(C, *Trace);
    }
  }
}

std::vector<Metric> endToEndMetrics(const RunTotals &T, double SetupS) {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return {
      {"insts_per_s", static_cast<double>(T.Instructions) / T.CompileSeconds,
       "insts/s"},
      {"fn_ms.p50", median(T.CellMs), "ms"},
      {"fn_ms.tail", tail(T.CellMs).first, "ms"},
      {"setup_s", SetupS, "s"},
      {"peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0, "MB"},
      {"dyn_cycles", static_cast<double>(T.DynCycles), "cycles"},
      {"spill_insts", static_cast<double>(T.SpillInsts), "insts"},
      {"false_deps", static_cast<double>(T.FalseDeps), "edges"},
  };
}

/// Per-layer metrics from the replay's spans, normalised per pass so they
/// do not grow with the number of passes a run fits in.
std::vector<Metric> layerMetrics(const RunTotals &T, const Tracer &Trace) {
  std::map<std::string, Tracer::Time> Times = Trace.timeByName();
  const double Passes = T.Passes;
  auto Self = [&](const char *Span) {
    auto It = Times.find(Span);
    return It == Times.end() ? 0.0 : It->second.Self / Passes;
  };
  auto Ratio = [](uint64_t A, uint64_t B) {
    return B == 0 ? 0.0 : static_cast<double>(A) / static_cast<double>(B);
  };
  const Tracer::Time CellTime = Times["cell"];
  std::vector<Metric> Out;
  for (const char *Span :
       {"core.pig_color", "core.pig_build", "analysis.webs",
        "regalloc.interference", "regalloc.spill_cost", "core.false_deps",
        "sched.list", "sched.prepass", "sched.ips", "sched.preschedule",
        "regalloc.chaitin_color", "regalloc.spill_insert", "regalloc.apply",
        "analysis.depgraph", "analysis.closure", "ir.verify",
        "ir.interpret", "sim.simulate"})
    Out.push_back({std::string(Span) + ".self_s", Self(Span), "s"});
  const LayerCounts &C = T.Counts;
  Out.push_back({"core.pig_color.edges_dropped",
                 static_cast<double>(C.EdgesDropped) / Passes, "edges"});
  Out.push_back({"core.pig.parallel_only_edges",
                 static_cast<double>(C.ParallelOnlyEdges) / Passes, "edges"});
  Out.push_back({"core.pinter.round_yield",
                 Ratio(C.PinterAllocations, C.PinterRounds), "ratio"});
  Out.push_back({"regalloc.chaitin.round_yield",
                 Ratio(C.ChaitinAllocations, C.ChaitinRounds), "ratio"});
  Out.push_back({"sched.ips.csr_decisions",
                 static_cast<double>(C.CsrDecisions) / Passes, "count"});
  // Level-1 spans are the cell span's children: the replayed calls.
  Out.push_back({"trace.coverage",
                 (CellTime.Total - CellTime.Self) / T.TracedRealSeconds,
                 "ratio"});
  Out.push_back({"trace.overhead", T.TracedRealSeconds / CellTime.Total,
                 "ratio"});
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (Workload::create(O.Workload, O.Seed, O.Smoke) == nullptr)
    usage("unknown workload '" + O.Workload + "'");
  if (O.SetupOnly) {
    std::unique_ptr<Workload> W;
    Pass First;
    std::cout << "setup_s " << num(setUp(O, W, First)) << '\n';
    return 0;
  }
  std::cout << "perfbench workload " << O.Workload << " seed " << O.Seed
            << " seconds " << O.Seconds << " trace " << O.Trace
            << (O.Smoke ? " smoke" : "") << '\n';

  // The parent's own set-up is the first sample; fresh copies of this
  // process give the rest, so one-time initialisation counts every time.
  std::unique_ptr<Workload> W;
  Pass First;
  std::vector<double> SetupTimes = {setUp(O, W, First)};
  const unsigned SetupReps = O.Smoke ? 2 : 5;
  while (SetupTimes.size() < SetupReps)
    SetupTimes.push_back(setupInChild(O));
  const double SetupS = median(SetupTimes);

  RunTotals T;
  std::unique_ptr<Tracer> Trace;
  if (O.Trace)
    Trace = std::make_unique<Tracer>();
  const size_t CellsPerPass = First.Cells.size();
  std::vector<double> PassSeconds;
  auto RunStart = Clock::now();
  for (unsigned Index = 0;; ++Index) {
    Pass P = Index == 0 ? std::move(First) : W->makePass(Index);
    const double Before = T.CompileSeconds;
    runPass(*W, P, Index < W->qualityPasses(), Trace.get(), T);
    PassSeconds.push_back(T.CompileSeconds - Before);
    ++T.Passes;
    if (T.Passes >= W->qualityPasses() &&
        (O.Smoke || secondsSince(RunStart) >= O.Seconds))
      break;
  }
  const double RunS = secondsSince(RunStart);

  std::cout << "setup " << SetupReps << " cold set-ups, median " << num(SetupS)
            << " s\n"
            << "run " << T.Passes << " passes of " << CellsPerPass
            << " cells in " << num(RunS) << " s; " << T.Instructions
            << " input instructions, " << num(T.CompileSeconds)
            << " s inside compileFunctionGuarded\n"
            << "passes compile seconds min "
            << num(*std::min_element(PassSeconds.begin(), PassSeconds.end()))
            << " median " << num(median(PassSeconds)) << " max "
            << num(*std::max_element(PassSeconds.begin(), PassSeconds.end()))
            << '\n';

  bool Correct = T.Failed == 0;
  for (const std::string &F : T.Failures)
    std::cout << "FAIL " << F << '\n';
  std::cout << "check outputs " << T.Attempted - T.Failed << " of "
            << T.Attempted
            << " cells verifier-clean, undegraded, and equal to the "
               "interpreter on arrays and return value\n";
  std::cout << "check digest sha256:" << T.Digest.hexDigest() << " over "
            << T.QualityCells << " cells of " << W->qualityPasses()
            << " quality pass(es)\n";
  if (W->checksS1() && T.Failed == 0)
    Correct &= checkS1(T);

  std::vector<Metric> Metrics = endToEndMetrics(T, SetupS);
  const double TailRank = tail(T.CellMs).second;
  for (const Metric &M : Metrics) {
    std::cout << "metric " << M.Name << ' ' << num(M.Value) << ' ' << M.Unit;
    if (M.Name == "fn_ms.tail")
      std::cout << " (p" << num(TailRank) << " of " << T.CellMs.size()
                << " cells"
                << (T.CellMs.size() < 20 ? "; under 20 cells, so the median"
                                         : "")
                << ")";
    else if (M.Name == "fn_ms.p50")
      std::cout << " (of " << T.CellMs.size() << " cells)";
    std::cout << '\n';
  }
  std::cout << "metric fail_frac "
            << num(static_cast<double>(T.Failed) /
                   static_cast<double>(std::max<uint64_t>(T.Attempted, 1)))
            << " ratio (" << T.Failed << " of " << T.Attempted << " cells)\n";

  if (Trace) {
    Metrics = layerMetrics(T, *Trace);
    std::map<std::string, Tracer::Time> Times = Trace->timeByName();
    double Replay = Times["cell"].Total;
    for (const auto &[Name, Time] : Times)
      std::cout << "span " << Name << " self " << num(Time.Self)
                << " s total " << num(Time.Total) << " s ("
                << num(100 * Time.Self / Replay) << "% of replayed cells)\n";
    for (const Metric &M : Metrics)
      std::cout << "layer " << M.Name << ' ' << num(M.Value) << ' ' << M.Unit
                << '\n';
    if (T.ReplayMismatches != 0) {
      std::cout << "check replay " << T.ReplayMismatches
                << " cells differ from the real compile\n";
      Correct = false;
    } else {
      std::cout << "check replay every traced cell matches the real "
                   "compile\n";
    }
    if (!O.SpansOut.empty()) {
      // The quality passes' spans: the same cells on every run of a seed,
      // and a file that stays small however many passes the run fits in.
      std::ofstream Out(O.SpansOut);
      Trace->write(Out, static_cast<uint32_t>(CellsPerPass *
                                              W->qualityPasses()));
      if (!Out) {
        std::cout << "FAIL could not write " << O.SpansOut << '\n';
        Correct = false;
      }
    }
  }

  std::ostringstream Json;
  Json << "{\"correct\": " << (Correct ? "true" : "false")
       << ", \"attempted\": " << T.Attempted << ", \"failed\": " << T.Failed
       << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Json << (I ? ", " : "") << '"' << Metrics[I].Name << "\": {\"value\": "
         << num(Metrics[I].Value) << ", \"unit\": \"" << Metrics[I].Unit
         << "\"}";
  Json << "}}";
  std::cout << Json.str() << std::endl;
  return Correct ? 0 : 1;
}
