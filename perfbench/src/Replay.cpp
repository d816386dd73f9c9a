//===- perfbench/src/Replay.cpp - Outside-in layer trace ------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "Workloads.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "core/FalseDepChecker.h"
#include "core/ParallelInterferenceGraph.h"
#include "ir/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/MachineModel.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/IntegratedPrepass.h"
#include "sched/ListScheduler.h"
#include "sched/PreScheduler.h"
#include "sim/SuperscalarSim.h"

#include <chrono>
#include <limits>
#include <optional>
#include <set>

using namespace pira;
using namespace pira::perfbench;

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

static uint64_t steadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer() : Epoch(steadyNowNs()) {}

uint64_t Tracer::now() const { return steadyNowNs() - Epoch; }

void Tracer::begin(const char *Name) {
  int32_t Parent = Open.empty() ? -1 : Open.back();
  Open.push_back(static_cast<int32_t>(Spans.size()));
  Spans.push_back({Name, now(), 0, Parent, CellId});
}

void Tracer::end() {
  Spans[static_cast<size_t>(Open.back())].EndNs = now();
  Open.pop_back();
}

std::map<std::string, Tracer::Time> Tracer::timeByName() const {
  std::vector<uint64_t> SelfNs(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    SelfNs[I] = Spans[I].EndNs - Spans[I].StartNs;
  // Children of one parent run one after another on this one thread, so
  // their intervals are disjoint and simply subtract.
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      SelfNs[static_cast<size_t>(S.Parent)] -= S.EndNs - S.StartNs;
  std::map<std::string, Time> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Time &T = Out[Spans[I].Name];
    T.Total += static_cast<double>(Spans[I].EndNs - Spans[I].StartNs) * 1e-9;
    T.Self += static_cast<double>(SelfNs[I]) * 1e-9;
  }
  return Out;
}

void Tracer::write(std::ostream &OS, uint32_t CellLimit) const {
  OS << "{\"traceEvents\":[";
  const char *Sep = "\n";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Cell >= CellLimit)
      continue;
    OS << Sep << "{\"name\":\"" << S.Name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(S.StartNs) / 1e3
       << ",\"dur\":" << static_cast<double>(S.EndNs - S.StartNs) / 1e3
       << ",\"args\":{\"id\":" << I << ",\"parent\":" << S.Parent
       << ",\"cell\":" << S.Cell << "}}";
    Sep = ",\n";
  }
  OS << "\n]}\n";
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Fn inside a span named \p Name and returns its result.
template <typename Fn> auto timed(Tracer &T, const char *Name, Fn &&F) {
  SpanScope S(&T, Name);
  return F();
}

/// Mirrors the color/spill/repeat loop of pinterAllocate (\p Combined)
/// or chaitinAllocate on R.Final, with a span around each layer call.
bool replayAllocation(PipelineResult &R, const MachineModel &M,
                      bool Combined, Tracer &T, LayerCounts &Counts) {
  const PinterOptions Opts;
  const unsigned MaxRounds = Combined ? Opts.MaxRounds : 32;
  const unsigned K = M.numPhysRegs();
  Function &F = R.Final;
  std::set<Reg> NoSpillRegs;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    ++(Combined ? Counts.PinterRounds : Counts.ChaitinRounds);
    if (Combined && Round == 0 && Opts.PreSchedule)
      timed(T, "sched.preschedule", [&] { return preScheduleFunction(F, M); });
    Webs W = timed(T, "analysis.webs", [&] { return Webs(F); });
    InterferenceGraph IG = timed(T, "regalloc.interference",
                                 [&] { return InterferenceGraph(F, W); });
    std::optional<ParallelInterferenceGraph> PIG;
    if (Combined) {
      {
        SpanScope S(&T, "core.pig_build");
        PIG.emplace(F, W, IG, M, Opts.UseRegions);
      }
      Counts.ParallelOnlyEdges += PIG->numParallelOnlyEdges();
    }
    std::vector<double> Costs = timed(T, "regalloc.spill_cost",
                                      [&] { return computeSpillCosts(F, W); });
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)))
        Costs[Web] = std::numeric_limits<double>::infinity();

    Allocation A =
        Combined ? timed(T, "core.pig_color",
                         [&] { return pinterColor(*PIG, Costs, K, Opts); })
                 : timed(T, "regalloc.chaitin_color",
                         [&] { return chaitinColor(IG.graph(), Costs, K); });
    Counts.EdgesDropped += A.ParallelEdgesDropped;
    R.ParallelEdgesDropped += A.ParallelEdgesDropped;
    if (A.fullyColored()) {
      R.SymbolicTwin = F;
      timed(T, "regalloc.apply", [&] { applyAllocation(F, W, A); });
      ++(Combined ? Counts.PinterAllocations : Counts.ChaitinAllocations);
      R.RegistersUsed = A.NumColorsUsed;
      return true;
    }
    R.SpilledWebs += static_cast<unsigned>(A.SpilledWebs.size());
    SpillCode Code = timed(T, "regalloc.spill_insert", [&] {
      return insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
    });
    R.SpillInstructions += Code.Stores + Code.Loads;
  }
  return false;
}

PipelineResult failed(PipelineResult R, std::string Why) {
  R.Success = false;
  R.Error = std::move(Why);
  return R;
}

} // namespace

PipelineResult perfbench::replayCell(const Cell &C, Tracer &T,
                                     LayerCounts &Counts) {
  const MachineModel &M = *C.Machine;
  SpanScope CellSpan(&T, "cell");
  PipelineResult R;
  {
    SpanScope S(&T, "strategy");
    R.Final = *C.Input;
    bool Combined = false;
    switch (C.Strategy) {
    case StrategyKind::Combined:
      Combined = true;
      break;
    case StrategyKind::AllocFirst:
      break;
    case StrategyKind::SchedFirst:
      timed(T, "sched.prepass", [&] {
        preScheduleFunction(R.Final, M);
        FunctionSchedule Pre = scheduleFunction(R.Final, M);
        for (unsigned B = 0, E = R.Final.numBlocks(); B != E; ++B)
          reorderBlockBySchedule(R.Final, B, Pre.Blocks[B]);
      });
      break;
    case StrategyKind::IntegratedPrepass:
      Counts.CsrDecisions +=
          timed(T, "sched.ips", [&] {
            return integratedPrepassSchedule(R.Final, M, M.numPhysRegs());
          }).CsrDecisions;
      break;
    default:
      return failed(std::move(R), std::string("no replay for strategy ") +
                                      strategyName(C.Strategy));
    }
    if (!replayAllocation(R, M, Combined, T, Counts))
      return failed(std::move(R), "replayed allocation did not converge");
  }

  std::string VerifyError;
  if (!timed(T, "ir.verify",
             [&] { return verifyFunction(R.Final, VerifyError); }))
    return failed(std::move(R),
                  "replayed code fails verification: " + VerifyError);
  R.Sched =
      timed(T, "sched.list", [&] { return scheduleFunction(R.Final, M); });
  R.StaticCycles = R.Sched.totalMakespan();
  {
    SpanScope S(&T, "core.false_deps");
    R.FalseDeps = static_cast<unsigned>(
        findFalseDependences(R.SymbolicTwin, R.Final, M).size());
    R.AntiOrderingLosses = countAntiOrderingLosses(R.SymbolicTwin, R.Final, M);
  }

  Measurement Out = measureOutputs(*C.Input, R, M, C.SimSeed, &T);
  R.DynCycles = Out.Cycles;
  R.SemanticsPreserved = Out.Mismatch.empty();
  if (!R.SemanticsPreserved)
    return failed(std::move(R), Out.Mismatch);
  R.Success = true;
  return R;
}

Measurement perfbench::measureOutputs(const Function &Input,
                                      const PipelineResult &R,
                                      const MachineModel &M, uint64_t Seed,
                                      Tracer *T) {
  Measurement Out;
  ExecState Initial;
  ExecResult Ref;
  {
    SpanScope S(T, "ir.interpret");
    Initial = makeInitialState(Input, Seed);
    Ref = interpret(Input, Initial);
  }
  if (!Ref.Completed) {
    Out.Mismatch = "reference interpretation failed: " + Ref.Error;
    return Out;
  }
  SimResult Sim;
  {
    SpanScope S(T, "sim.simulate");
    // Same arrays as the input's initial state; spill memory starts zeroed.
    ExecState SimInitial = makeInitialState(R.Final, Seed);
    for (auto &[Name, Data] : SimInitial.Arrays) {
      auto It = Initial.Arrays.find(Name);
      if (It != Initial.Arrays.end())
        Data = It->second;
      else
        Data.assign(Data.size(), 0);
    }
    Sim = simulate(R.Final, R.Sched, M, std::move(SimInitial));
  }
  Out.Cycles = Sim.Cycles;
  if (!Sim.Completed) {
    Out.Mismatch = "simulation failed: " + Sim.Error;
    return Out;
  }
  for (const auto &[Name, Data] : Ref.Final.Arrays) {
    auto It = Sim.Final.Arrays.find(Name);
    if (It == Sim.Final.Arrays.end() || It->second != Data) {
      Out.Mismatch = "array '" + Name + "' differs from the interpreter's";
      return Out;
    }
  }
  if (Ref.HasReturnValue != Sim.HasReturnValue ||
      (Ref.HasReturnValue && Ref.ReturnValue != Sim.ReturnValue))
    Out.Mismatch = "return value differs from the interpreter's";
  return Out;
}

void perfbench::probeScheduleGraphs(const Cell &C, Tracer &T) {
  SpanScope Probe(&T, "probe");
  for (unsigned B = 0, E = C.Input->numBlocks(); B != E; ++B) {
    std::optional<DependenceGraph> G;
    {
      SpanScope S(&T, "analysis.depgraph");
      G.emplace(*C.Input, B, *C.Machine);
    }
    SpanScope S(&T, "analysis.closure");
    (void)G->reachability();
  }
}

std::string perfbench::replayMismatch(const PipelineResult &Real,
                                      const PipelineResult &Replay) {
  auto Field = [](const char *Name, uint64_t A, uint64_t B) {
    return A == B ? std::string()
                  : std::string(Name) + " " + std::to_string(A) +
                        " (real) vs " + std::to_string(B) + " (replay)";
  };
  if (!Replay.Success)
    return "replay failed: " + Replay.Error;
  for (std::string D :
       {Field("static cycles", Real.StaticCycles, Replay.StaticCycles),
        Field("dynamic cycles", Real.DynCycles, Replay.DynCycles),
        Field("spill instructions", Real.SpillInstructions,
              Replay.SpillInstructions),
        Field("spilled webs", Real.SpilledWebs, Replay.SpilledWebs),
        Field("false dependences", Real.FalseDeps, Replay.FalseDeps),
        Field("anti-ordering losses", Real.AntiOrderingLosses,
              Replay.AntiOrderingLosses),
        Field("dropped edges", Real.ParallelEdgesDropped,
              Replay.ParallelEdgesDropped),
        Field("registers used", Real.RegistersUsed, Replay.RegistersUsed)})
    if (!D.empty())
      return D;
  if (printedOutput(Real) != printedOutput(Replay))
    return "printed code or schedule differs";
  return {};
}

std::string perfbench::printedOutput(const PipelineResult &R) {
  std::string Out = functionToString(R.Final);
  for (unsigned B = 0; B != R.Sched.Blocks.size(); ++B) {
    Out += "sched " + std::to_string(B) + ":";
    for (unsigned Cycle : R.Sched.Blocks[B].CycleOf)
      Out += " " + std::to_string(Cycle);
    Out += "\n";
  }
  return Out;
}
