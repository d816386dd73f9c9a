//===- examples/pirac.cpp - Textual-IR compiler driver --------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// A miniature compiler driver over the textual IR: parse a function from
// a file (or stdin), verify it, run the chosen phase-ordering strategy
// for the chosen machine, and print the allocated code, schedule, and
// statistics. With no input file it compiles a built-in sample so the
// binary runs out of the box.
//
// With several input files, or with --jobs, pirac switches to the batch
// driver: every function is compiled through compileBatch() on up to N
// threads plus the calling one (N from --jobs, else PIRA_JOBS, else the
// hardware; at most MaxJobs, and --jobs above it is a usage error; the
// summary counts the threads that ran, at most one per function), a
// per-function summary table is printed in input order, and
// --stats-out emits the batch-shaped "pira.stats" report. Batch results
// and reports are byte-identical for any --jobs value; only the "timers"
// section varies (see DESIGN.md).
//
// The driver is fault-isolated end to end: an unreadable, unparsable, or
// unverifiable input gets a per-file diagnostic and is skipped — never a
// reason to abandon the rest of the batch — and every function compiles
// through the guarded pipeline (budget checks, watchdog deadline,
// degradation ladder; DESIGN.md §8). Input failures land in the stats
// report's "failures" section next to compile failures, and pirac exits
// nonzero at the end if anything went wrong along the way.
//
// Usage: pirac [file.pir ...]
//          [--strategy alloc-first|sched-first|ips|combined|spill-all|oracle]
//          [--machine scalar|paper|mips|rs6000|vliw4]
//          [--machine-file desc.mach] [--regs N] [--jobs N]
//          [--deadline-ms N] [--max-instructions N] [--max-blocks N]
//          [--oracle-max-insts N] [--oracle-node-budget N]
//          [--tournament] [--corpus-count N] [--corpus-insts N]
//          [--corpus-seed N]
//          [--no-degrade] [--fault-inject site:n[,site:n...]]
//          [--dump-graphs]
//          [--trace-out trace.json] [--stats-out stats.json]
//          [--time-passes] [--version]
//
// Observability sinks: --stats-out writes the versioned "pira.stats"
// JSON report and --trace-out the Chrome trace. Each sink accepts "-"
// for stdout, but only one may take it (exit 2 otherwise), and when one
// does, the human-readable output moves to stderr so the
// machine-readable stream stays clean. --version prints the
// build-provenance line and exits.
//
// --strategy oracle runs the exact branch-and-bound search
// (pipeline/Oracle.h) — provably minimum-makespan spill-free code for
// small single blocks; --oracle-max-insts and --oracle-node-budget set
// its scope cap and search budget. Out-of-scope or over-budget inputs
// fail with a search-exhausted diagnostic and (in batch mode) degrade
// down the ladder like any other rung failure.
//
// --tournament runs the heuristic-gap tournament instead of a compile:
// every strategy compiles every corpus function and the aggregate
// gap-vs-oracle table is printed (pipeline/Tournament.h). The corpus is
// generated (--corpus-count/--corpus-insts/--corpus-seed) unless input
// files are given, which then form the corpus. --stats-out emits the
// "pira.tournament" v1 report, byte-identical across --jobs values.
//
// --fault-inject (or the PIRA_FAULT environment variable) arms the
// deterministic fault-injection harness; see support/FaultInjection.h
// for the site table.
//
// Exit codes are a stable contract: 0 = everything compiled and
// verified clean; 1 = at least one input or compile/verify failure;
// 2 = usage errors (unknown flag, bad or missing value); 3 = internal
// errors — a report that could not be written. 3 takes precedence over
// 1 when both apply.
//
//===----------------------------------------------------------------------===//

#include "analysis/Webs.h"
#include "core/FalseDependenceGraph.h"
#include "core/ParallelInterferenceGraph.h"
#include "ir/Parser.h"
#include "regalloc/InterferenceGraph.h"
#include "support/DotWriter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/MachineConfig.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Report.h"
#include "pipeline/Strategies.h"
#include "pipeline/Tournament.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"

#include <charconv>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

using namespace pira;

static const char *SampleProgram = R"(# Built-in sample: strided array sum.
func @sample regs 16 {
  array data 64
  array out 1
block entry:
  %s0 = li 0        # sum
  %s1 = li 0        # i
  %s2 = li 64       # n
  %s3 = li 2        # stride
  br loop
block loop:
  %s4 = load data[%s1]
  %s5 = load data[%s1 + 1]
  %s6 = fmul %s4, %s5
  %s0 = fadd %s0, %s6
  %s1 = add %s1, %s3
  %s7 = cmplt %s1, %s2
  cbr %s7, loop, done
block done:
  store out[0], %s0
  ret %s0
}
)";

/// Strictly parses \p Text as a decimal count for \p Flag: the whole
/// string must be digits and the value must fit in [\p Min, \p Max].
/// atoi-style silent zeroes ("--regs banana") and wrapped garbage
/// ("--regs 99999999999") become diagnostics instead. On failure prints
/// the Status and returns false (callers exit 2, the usage-error code).
static bool parseCliCount(const std::string &Flag, const std::string &Text,
                          uint64_t Min, uint64_t Max, uint64_t &Out) {
  uint64_t Value = 0;
  const char *Begin = Text.data(), *End = Begin + Text.size();
  auto [Ptr, Ec] = std::from_chars(Begin, End, Value);
  std::string Problem;
  if (Text.empty() || Ec == std::errc::invalid_argument || Ptr == Begin)
    Problem = "expected an unsigned integer, got '" + Text + "'";
  else if (Ptr != End)
    Problem = "trailing junk after number in '" + Text + "'";
  else if (Ec == std::errc::result_out_of_range || Value > Max)
    Problem = "value '" + Text + "' is out of range (max " +
              std::to_string(Max) + ")";
  else if (Value < Min)
    Problem = "value must be at least " + std::to_string(Min);
  if (!Problem.empty()) {
    Status S = Status::error(ErrorCode::InvalidArgument, "cli",
                             Flag + ": " + Problem);
    std::cerr << "pirac: " << S.toString() << '\n';
    return false;
  }
  Out = Value;
  return true;
}

/// Writes the --trace-out and --stats-out reports asked for, the stats
/// document from \p MakeStats, and prints the --time-passes table.
/// \returns false when a report could not be written (pirac exits 3).
static bool emitReports(const std::string &TraceOut,
                        const std::string &StatsOut, bool TimePasses,
                        const std::function<json::Value()> &MakeStats) {
  bool Ok = true;
  std::string ReportError;
  if (!TraceOut.empty() &&
      !telemetry::writeChromeTraceFile(TraceOut, ReportError)) {
    std::cerr << "trace-out: " << ReportError << '\n';
    Ok = false;
  }
  if (!StatsOut.empty() && !writeJsonFile(MakeStats(), StatsOut, ReportError)) {
    std::cerr << "stats-out: " << ReportError << '\n';
    Ok = false;
  }
  if (TimePasses)
    telemetry::printTimerReport(std::cerr);
  return Ok;
}

int main(int argc, char **argv) {
  // Process-wide, before any output: a report sink or pipe reader that
  // vanishes must surface as EPIPE on the write (a structured diagnostic
  // and exit 3), never as silent SIGPIPE death (141).
  ::signal(SIGPIPE, SIG_IGN);

  // (name, source) per input; empty after flag parsing means the sample.
  std::vector<std::pair<std::string, std::string>> Inputs;
  StrategyKind Strategy = StrategyKind::Combined;
  MachineModel Machine = MachineModel::rs6000();
  unsigned Regs = 0;
  unsigned Jobs = 0;
  bool BatchMode = false;
  bool DumpGraphs = false;
  std::string TraceOut;
  std::string StatsOut;
  bool TimePasses = false;
  ResourceBudget Budget;
  bool NoDegrade = false;
  OracleOptions OracleOpts;
  bool Tournament = false;
  uint64_t CorpusCount = 200;
  uint64_t CorpusInsts = 12;
  uint64_t CorpusSeed = 7;

  // Inputs that never reach compilation: unreadable files, parse and
  // verify failures. They are reported per file, carried into the stats
  // report, and folded into the exit code — but they never stop the run.
  std::vector<BatchFailure> InputFailures;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    // False (with a message) when the flag's value is missing; a usage
    // error is the one thing that still ends the run immediately.
    auto NextValue = [&](std::string &Out) -> bool {
      if (I + 1 >= argc) {
        std::cerr << "pirac: missing value for " << Arg << '\n';
        return false;
      }
      Out = argv[++I];
      return true;
    };
    if (Arg == "--strategy") {
      std::string V;
      if (!NextValue(V))
        return 2;
      Expected<StrategyKind> K = strategyFromName(V);
      if (!K) {
        std::cerr << "pirac: " << K.status().toString() << '\n';
        return 2;
      }
      Strategy = *K;
    } else if (Arg == "--machine") {
      std::string V;
      if (!NextValue(V))
        return 2;
      if (V == "scalar")
        Machine = MachineModel::scalar();
      else if (V == "paper")
        Machine = MachineModel::paperTwoUnit();
      else if (V == "mips")
        Machine = MachineModel::mipsR3000();
      else if (V == "rs6000")
        Machine = MachineModel::rs6000();
      else if (V == "vliw4")
        Machine = MachineModel::vliw4();
      else {
        std::cerr << "pirac: unknown machine '" << V << "'\n";
        return 2;
      }
    } else if (Arg == "--machine-file") {
      std::string V;
      if (!NextValue(V))
        return 2;
      std::ifstream In(V);
      if (!In) {
        std::cerr << "pirac: cannot open machine description '" << V << "'\n";
        return 2;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      std::string MachineError;
      std::optional<MachineModel> Parsed =
          parseMachineModel(SS.str(), MachineError);
      if (!Parsed) {
        std::cerr << "pirac: machine description error: " << MachineError
                  << '\n';
        return 2;
      }
      Machine = *Parsed;
    } else if (Arg == "--regs") {
      std::string V;
      uint64_t N = 0;
      // A zero register file cannot hold any value live; reject it here
      // rather than let every allocator fail one by one.
      if (!NextValue(V) ||
          !parseCliCount(Arg, V, 1, std::numeric_limits<unsigned>::max(), N))
        return 2;
      Regs = static_cast<unsigned>(N);
    } else if (Arg == "--jobs") {
      std::string V;
      uint64_t N = 0;
      // 0 stays meaningful: "use the default worker count".
      if (!NextValue(V) || !parseCliCount(Arg, V, 0, MaxJobs, N))
        return 2;
      Jobs = static_cast<unsigned>(N);
      BatchMode = true;
    } else if (Arg == "--deadline-ms") {
      std::string V;
      if (!NextValue(V) || !parseCliCount(Arg, V, 0, UINT64_MAX,
                                          Budget.DeadlineMs))
        return 2;
    } else if (Arg == "--max-instructions") {
      std::string V;
      if (!NextValue(V) || !parseCliCount(Arg, V, 0, UINT64_MAX,
                                          Budget.MaxInstructions))
        return 2;
    } else if (Arg == "--max-blocks") {
      std::string V;
      if (!NextValue(V) || !parseCliCount(Arg, V, 0, UINT64_MAX,
                                          Budget.MaxBlocks))
        return 2;
    } else if (Arg == "--oracle-max-insts") {
      std::string V;
      uint64_t N = 0;
      // 64 is the oracle's hard representation cap (one bit per
      // instruction in the search mask).
      if (!NextValue(V) || !parseCliCount(Arg, V, 1, 64, N))
        return 2;
      OracleOpts.MaxInstructions = static_cast<unsigned>(N);
    } else if (Arg == "--oracle-node-budget") {
      std::string V;
      // 0 stays meaningful: "search without a node budget".
      if (!NextValue(V) ||
          !parseCliCount(Arg, V, 0, UINT64_MAX, OracleOpts.NodeBudget))
        return 2;
    } else if (Arg == "--tournament") {
      Tournament = true;
    } else if (Arg == "--corpus-count") {
      std::string V;
      // 0 is allowed: "run the harness over nothing" yields a valid
      // zero-row report, which scripted sweeps rely on.
      if (!NextValue(V) || !parseCliCount(Arg, V, 0, 1000000, CorpusCount))
        return 2;
    } else if (Arg == "--corpus-insts") {
      std::string V;
      // At least roots + one body op + ret; capped at the oracle's
      // representation limit so a generated corpus stays comparable.
      if (!NextValue(V) || !parseCliCount(Arg, V, 3, 64, CorpusInsts))
        return 2;
    } else if (Arg == "--corpus-seed") {
      std::string V;
      if (!NextValue(V) || !parseCliCount(Arg, V, 0, UINT64_MAX, CorpusSeed))
        return 2;
    } else if (Arg == "--no-degrade") {
      NoDegrade = true;
    } else if (Arg == "--fault-inject") {
      std::string V;
      if (!NextValue(V))
        return 2;
      std::string FaultError;
      if (!faultinject::configure(V, FaultError)) {
        std::cerr << "pirac: --fault-inject: " << FaultError << '\n';
        return 2;
      }
    } else if (Arg == "--dump-graphs") {
      DumpGraphs = true;
    } else if (Arg == "--trace-out") {
      if (!NextValue(TraceOut))
        return 2;
    } else if (Arg == "--stats-out") {
      if (!NextValue(StatsOut))
        return 2;
    } else if (Arg == "--time-passes") {
      TimePasses = true;
    } else if (Arg == "--version") {
      const json::Value P = buildProvenanceToJson();
      std::cout << "pirac " << P.find("tool_version")->asString() << " (git "
                << P.find("git_sha")->asString() << ", "
                << P.find("compiler")->asString() << ", "
                << P.find("build_type")->asString()
                << (P.find("ndebug")->asBool() ? ", ndebug" : "") << ")\n";
      return 0;
    } else if (Arg == "-") {
      std::ostringstream SS;
      SS << std::cin.rdbuf();
      Inputs.emplace_back("<stdin>", SS.str());
    } else if (Arg.rfind("--", 0) == 0) {
      // A flag we don't know must not be silently treated as an input
      // path; that would turn a typo into a "cannot open" compile
      // failure (exit 1) instead of a usage error (exit 2).
      std::cerr << "pirac: unknown option '" << Arg << "'\n";
      return 2;
    } else {
      std::ifstream In(Arg);
      if (!In) {
        std::cerr << "pirac: cannot open '" << Arg << "'\n";
        Status S = Status::error(ErrorCode::InvalidArgument, "input",
                                 "cannot open file");
        S.addContext("input " + Arg);
        InputFailures.push_back({Arg, std::move(S)});
        continue;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      Inputs.emplace_back(Arg, SS.str());
    }
  }
  if (Regs != 0)
    Machine.setNumPhysRegs(Regs);
  // At most one machine-readable sink may own stdout; the other must go
  // to a real file or the streams would interleave into garbage.
  unsigned StdoutWriters = static_cast<unsigned>(TraceOut == "-") +
                           static_cast<unsigned>(StatsOut == "-");
  if (StdoutWriters > 1) {
    std::cerr << "pirac: --trace-out and --stats-out may not both write to "
                 "stdout ('-')\n";
    return 2;
  }
  // With stdout claimed by a report, the human-readable output moves to
  // stderr so the machine-readable stream stays parseable.
  std::ostream &Hum = StdoutWriters != 0 ? std::cerr : std::cout;
  if (Inputs.empty() && InputFailures.empty() && !Tournament)
    Inputs.emplace_back("<sample>", SampleProgram);
  if (Inputs.size() + InputFailures.size() > 1)
    BatchMode = true;

  std::vector<BatchItem> Batch;
  for (size_t Idx = 0; Idx != Inputs.size(); ++Idx) {
    const auto &[Name, Source] = Inputs[Idx];
    // The parse-time fault key is the input's position, mirroring the
    // batch-position keys compileBatch assigns at compile time, so
    // "parse.enter:n" fires for a fixed set of inputs at any --jobs.
    faultinject::ScopedKey Key(Idx);
    Expected<Function> F = parseFunctionEx(Source, Name);
    if (!F) {
      std::cerr << "pirac: " << Name << ": " << F.status().toString() << '\n';
      InputFailures.push_back({Name, F.status()});
      continue;
    }
    Status VS = verifyFunctionStatus(*F);
    if (!VS.ok()) {
      VS.addContext("input " + Name);
      std::cerr << "pirac: " << Name << ": " << VS.toString() << '\n';
      InputFailures.push_back({Name, std::move(VS)});
      continue;
    }
    Batch.push_back({Name, F.take()});
  }

  if (Tournament) {
    if (!TraceOut.empty() || !StatsOut.empty() || TimePasses)
      telemetry::setEnabled(true);
    TournamentOptions TOpts;
    TOpts.Jobs = Jobs;
    TOpts.Budget = Budget;
    TOpts.Oracle = OracleOpts;
    std::vector<BatchItem> Corpus;
    if (Inputs.empty() && InputFailures.empty()) {
      Corpus = makeTournamentCorpus(static_cast<unsigned>(CorpusCount),
                                    static_cast<unsigned>(CorpusInsts),
                                    CorpusSeed, TOpts);
    } else {
      // Input files form the corpus — even when every one failed to
      // parse. Falling back to a generated corpus here would silently
      // score the strategies on functions the user never supplied; an
      // all-failed corpus instead yields a valid zero-row report and
      // the compile-failure exit code below.
      Corpus = std::move(Batch);
      TOpts.CorpusCount = static_cast<unsigned>(Corpus.size());
    }
    json::Value Report = runTournament(Corpus, Machine, TOpts);
    printTournamentSummary(Report, Hum);

    if (!emitReports(TraceOut, StatsOut, TimePasses, [&] { return Report; }))
      return 3;
    // A heuristic "beating" the provably optimal baseline means the
    // oracle (or a heuristic's reported cost) is wrong — surface that
    // as a failure even when nobody inspects the report.
    uint64_t BeatsOracle = 0;
    if (const json::Value *Agg = Report.find("aggregate"))
      for (const json::Value &Row : Agg->elements())
        if (const json::Value *B = Row.find("beats_oracle"))
          BeatsOracle += static_cast<uint64_t>(B->asInt());
    return (BeatsOracle == 0 && InputFailures.empty()) ? 0 : 1;
  }

  if (BatchMode) {
    if (!TraceOut.empty() || !StatsOut.empty() || TimePasses)
      telemetry::setEnabled(true);
    BatchOptions Opts;
    Opts.Strategy = Strategy;
    Opts.Oracle = OracleOpts;
    Opts.Jobs = Jobs;
    Opts.Budget = Budget;
    Opts.Degrade = !NoDegrade;

    BatchResult BR = compileBatch(Batch, Machine, Opts);
    Hum << "; batch of " << Batch.size() << " function(s), "
        << strategyName(Strategy) << " for " << Machine.name() << " ("
        << Machine.numPhysRegs() << " regs), " << BR.JobsUsed
        << " worker(s)\n";
    for (size_t I = 0; I != Batch.size(); ++I) {
      const PipelineResult &R = BR.Results[I];
      const CompileOutcome &O = BR.Outcomes[I];
      Hum << ";   " << Batch[I].Name << " @"
          << Batch[I].Input.name() << ": ";
      if (R.Success) {
        Hum << "regs " << R.RegistersUsed << ", spills "
            << R.SpillInstructions << ", false deps " << R.FalseDeps
            << ", cycles " << R.DynCycles << ", semantics "
            << (R.SemanticsPreserved ? "pass" : "FAIL");
        if (O.Degraded)
          Hum << " (degraded to " << O.Used << ", rung " << O.Rung << ")";
        Hum << '\n';
      } else {
        Hum << "FAILED: " << (R.Diag.ok() ? R.Error : R.Diag.toString())
            << '\n';
      }
    }
    Hum << "; batch: " << BR.Succeeded << "/" << BR.Results.size() << " ok";
    if (!InputFailures.empty())
      Hum << ", " << InputFailures.size() << " input failure(s)";
    if (BR.Degraded != 0)
      Hum << ", " << BR.Degraded << " degraded";
    Hum << ", static cycles " << BR.TotalStaticCycles
        << ", dynamic cycles " << BR.TotalDynCycles << '\n';

    // Exit taxonomy (see the usage comment): a report that could not be
    // written takes precedence over compile failures.
    if (!emitReports(TraceOut, StatsOut, TimePasses, [&] {
          return makeBatchStatsReport(BR, Batch, strategyName(Strategy),
                                      Machine, InputFailures);
        }))
      return 3;
    return (BR.Succeeded == BR.Results.size() && InputFailures.empty()) ? 0
                                                                        : 1;
  }

  // Single-function mode; the lone input may already have failed.
  if (Batch.empty())
    return 1;
  Function F = std::move(Batch.front().Input);

  if (DumpGraphs) {
    // Per-block paper graphs in DOT, before compilation touches F.
    Webs W(F);
    InterferenceGraph IG(F, W);
    ParallelInterferenceGraph PIG(F, W, IG, Machine);
    std::vector<std::string> Labels;
    for (unsigned Web = 0; Web != PIG.numWebs(); ++Web)
      Labels.push_back("%s" + std::to_string(W.webRegister(Web)));
    writePigDot(Hum, "pig", PIG, Labels);
    for (unsigned B2 = 0; B2 != F.numBlocks(); ++B2) {
      FalseDependenceGraph FDG(F, B2, Machine);
      DotWriter Dot(Hum, "ef_" + F.block(B2).name(),
                    /*Directed=*/false);
      for (unsigned V = 0; V != FDG.size(); ++V)
        Dot.node(V, F.block(B2).name() + ":" + std::to_string(V));
      Dot.allEdges(FDG.parallelPairs(), "style=dashed");
    }
  }

  Hum << "; compiling @" << F.name() << " with "
      << strategyName(Strategy) << " for " << Machine.name() << " ("
      << Machine.numPhysRegs() << " regs)\n\n";

  // Telemetry is opt-in: any observability flag turns on scope recording
  // for the compilation that follows.
  if (!TraceOut.empty() || !StatsOut.empty() || TimePasses)
    telemetry::setEnabled(true);

  // Single-function compiles run under the same guard as batch items:
  // budget checks, watchdog deadline, exception capture, degradation
  // ladder. The fault key stays at its default of 0, so every armed site
  // fires — handy for exercising one site in isolation.
  BatchOptions GuardOpts;
  GuardOpts.Strategy = Strategy;
  GuardOpts.Oracle = OracleOpts;
  GuardOpts.Budget = Budget;
  GuardOpts.Degrade = !NoDegrade;
  GuardedResult G = compileFunctionGuarded(F, Machine, GuardOpts);
  PipelineResult &R = G.Result;

  for (const CompileAttempt &A : G.Outcome.FailedAttempts)
    Hum << "; attempt " << A.Rung << " failed: " << A.Diag.toString() << '\n';
  if (G.Outcome.Degraded)
    Hum << "; NOTE: degraded to " << G.Outcome.Used << " (rung "
        << G.Outcome.Rung << ")\n";

  // Reports are written even for failed runs — a trace of a failing
  // pipeline is exactly when you want one.
  auto StatsReport = [&] {
    return makeStatsReport(R, strategyName(Strategy), Machine);
  };

  if (!R.Success) {
    std::cerr << "compilation failed: "
              << (R.Diag.ok() ? R.Error : R.Diag.toString()) << '\n';
    return emitReports(TraceOut, StatsOut, TimePasses, StatsReport) ? 1 : 3;
  }

  printFunction(R.Final, Hum);
  Hum << "\n; schedule:\n";
  for (unsigned B = 0; B != R.Final.numBlocks(); ++B) {
    Hum << "; block " << R.Final.block(B).name() << " ("
        << R.Sched.Blocks[B].Makespan << " cycles)\n";
    auto Groups = R.Sched.Blocks[B].groupsByCycle();
    for (unsigned C = 0; C != Groups.size(); ++C) {
      Hum << ";   " << C << ":";
      for (unsigned I : Groups[C])
        Hum << "  " << formatInstruction(R.Final.block(B).inst(I),
                                         true, &R.Final);
      Hum << '\n';
    }
  }
  Hum << "\n; registers used:   " << R.RegistersUsed
      << "\n; spill instrs:     " << R.SpillInstructions
      << "\n; false deps:       " << R.FalseDeps
      << "\n; dynamic cycles:   " << R.DynCycles
      << "\n; semantics check:  "
      << (R.SemanticsPreserved ? "pass" : "FAIL") << '\n';
  return emitReports(TraceOut, StatsOut, TimePasses, StatsReport) ? 0 : 3;
}
