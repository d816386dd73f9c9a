//===- pipeline/Strategies.cpp - Phase-ordering strategies ----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Strategies.h"

#include "analysis/Webs.h"
#include "core/FalseDepChecker.h"
#include "ir/Verifier.h"
#include "machine/MachineModel.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/SpillInserter.h"
#include "sched/ListScheduler.h"
#include "sched/IntegratedPrepass.h"
#include "sched/PreScheduler.h"
#include "sim/SuperscalarSim.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <iterator>
#include <numeric>
#include <set>

using namespace pira;

PIRA_STAT(NumPipelineRuns, "Strategy pipelines started");
PIRA_STAT(NumPipelineFailures, "Strategy pipelines that did not succeed");

namespace {

/// The single source of truth for strategy naming: display name, an
/// optional accepted alias, and the telemetry scope label. strategyName,
/// strategyFromName (including its valid-names error text), and
/// allStrategies all read this table, so none of them can drift when a
/// strategy is added — the historical failure mode was an error message
/// that never learned about "spill-all".
struct StrategyNameRow {
  StrategyKind Kind;
  const char *Name;
  const char *Alias; ///< nullptr when the canonical name is the only one.
  const char *ScopeLabel;
};

constexpr StrategyNameRow StrategyNameTable[] = {
    {StrategyKind::AllocFirst, "alloc-first", nullptr,
     "strategy/alloc-first"},
    {StrategyKind::SchedFirst, "sched-first", nullptr,
     "strategy/sched-first"},
    {StrategyKind::IntegratedPrepass, "goodman-hsu-ips", "ips",
     "strategy/goodman-hsu-ips"},
    {StrategyKind::Combined, "combined", nullptr, "strategy/combined"},
    {StrategyKind::SpillAll, "spill-all", nullptr, "strategy/spill-all"},
    {StrategyKind::Oracle, "oracle", nullptr, "strategy/oracle"},
};

} // namespace

const char *pira::strategyName(StrategyKind Kind) {
  for (const StrategyNameRow &Row : StrategyNameTable)
    if (Row.Kind == Kind)
      return Row.Name;
  // Out-of-range enum values reach here (e.g. a bad cast); naming them
  // beats the undefined behaviour an assert leaves in release builds.
  return "unknown";
}

Expected<StrategyKind> pira::strategyFromName(std::string_view Name) {
  std::string Valid;
  for (const StrategyNameRow &Row : StrategyNameTable) {
    if (Name == Row.Name || (Row.Alias != nullptr && Name == Row.Alias))
      return Row.Kind;
    if (!Valid.empty())
      Valid += &Row == &StrategyNameTable[std::size(StrategyNameTable) - 1]
                   ? ", or "
                   : ", ";
    Valid += Row.Name;
    if (Row.Alias != nullptr)
      Valid += std::string(" (alias ") + Row.Alias + ")";
  }
  return Status::error(ErrorCode::InvalidArgument, "strategy",
                       "unknown strategy '" + std::string(Name) +
                           "' (expected " + Valid + ")");
}

const std::vector<StrategyKind> &pira::allStrategies() {
  static const std::vector<StrategyKind> All = [] {
    // Oracle first (the tournament baseline), then the heuristics from
    // most to least integrated, the safety net last.
    std::vector<StrategyKind> V = {
        StrategyKind::Oracle,     StrategyKind::Combined,
        StrategyKind::IntegratedPrepass, StrategyKind::SchedFirst,
        StrategyKind::AllocFirst, StrategyKind::SpillAll,
    };
    assert(V.size() == std::size(StrategyNameTable) &&
           "allStrategies out of sync with the name table");
    return V;
  }();
  return All;
}

/// Timer label for one strategy (PIRA_TIME_SCOPE needs a literal with
/// static lifetime).
static const char *strategyScopeName(StrategyKind Kind) {
  for (const StrategyNameRow &Row : StrategyNameTable)
    if (Row.Kind == Kind)
      return Row.ScopeLabel;
  return "strategy/unknown";
}

/// Marks \p R failed with both the legacy string and the structured
/// diagnostic.
static void fail(PipelineResult &R, ErrorCode Code, std::string Phase,
                 std::string Message) {
  R.Success = false;
  R.Error = Message;
  R.Diag = Status::error(Code, std::move(Phase), std::move(Message));
}

/// Shared tail: schedule the allocated code, count false dependences,
/// verify structure. A verification failure here leaves the dynamic
/// fields at their defaults, so the error spells out that the run died
/// before simulation — a JSON report must never show Success == false
/// with an empty (or misleading) Error. \p KeepSchedule preserves a
/// schedule the strategy already computed (the oracle's proven-optimal
/// cycle assignment must not be replaced by the list scheduler's).
static void finishPipeline(PipelineResult &R, const MachineModel &Machine,
                           bool KeepSchedule = false) {
  std::string VerifyError;
  {
    PIRA_TIME_SCOPE("verify/final");
    bool Injected = faultinject::shouldFire("verify.final");
    if (Injected || !verifyFunction(R.Final, VerifyError)) {
      if (Injected)
        VerifyError = "injected verification failure";
      fail(R, Injected ? ErrorCode::FaultInjected : ErrorCode::VerifyError,
           "verify/final",
           "final code fails verification (pipeline aborted before "
           "scheduling and simulation; dynamic counts are zero and "
           "semantics were never checked): " +
               VerifyError);
      return;
    }
  }
  faultinject::maybeThrow("sched.final");
  deadline::checkpoint();
  if (!KeepSchedule)
    R.Sched = scheduleFunction(R.Final, Machine);
  R.StaticCycles = R.Sched.totalMakespan();
  {
    PIRA_TIME_SCOPE("analysis/falsedeps");
    R.FalseDeps = static_cast<unsigned>(
        findFalseDependences(R.SymbolicTwin, R.Final, Machine).size());
    R.AntiOrderingLosses =
        countAntiOrderingLosses(R.SymbolicTwin, R.Final, Machine);
  }
}

PipelineResult pira::runStrategy(StrategyKind Kind, const Function &Input,
                                 const MachineModel &Machine,
                                 const PinterOptions &Opts,
                                 const OracleOptions &OOpts) {
  PIRA_TIME_SCOPE(strategyScopeName(Kind));
  ++NumPipelineRuns;
  PipelineResult R;
  if (Input.isAllocated()) {
    // Input-dependent precondition: a structured error, not an assert
    // that vanishes (into UB) under NDEBUG.
    fail(R, ErrorCode::InvalidArgument, "strategy",
         "strategies start from symbolic code, but @" + Input.name() +
             " is already allocated");
    ++NumPipelineFailures;
    return R;
  }
  faultinject::maybeThrow("strategy.entry");
  deadline::checkpoint();
  R.Final = Input;
  unsigned K = Machine.numPhysRegs();

  // Shared Chaitin tail of the three phase-ordered strategies; also the
  // residue coloring of SpillAll. \p Site lets the fault harness target
  // the real strategies without condemning the safety-net rung.
  auto AllocateWithChaitin = [&](const char *Site) -> bool {
    bool Injected = faultinject::shouldFire(Site);
    AllocStats Stats;
    if (!Injected)
      Stats = chaitinAllocate(R.Final, K, /*MaxRounds=*/32, &R.SymbolicTwin);
    if (!Stats.Success) {
      fail(R, Injected ? ErrorCode::FaultInjected : ErrorCode::AllocFailure,
           "alloc/chaitin",
           Injected ? "injected allocation failure"
                    : "chaitin allocation did not converge");
      return false;
    }
    R.Success = true;
    R.RegistersUsed = Stats.ColorsUsed;
    R.SpilledWebs += Stats.SpilledWebs;
    R.SpillInstructions += Stats.SpillStores + Stats.SpillLoads;
    return true;
  };

  switch (Kind) {
  case StrategyKind::AllocFirst: {
    if (!AllocateWithChaitin("alloc.chaitin"))
      return R;
    break;
  }
  case StrategyKind::SchedFirst: {
    // Aggressive pre-pass: order each block exactly as the list scheduler
    // would issue it with unlimited registers, then allocate on the
    // stretched live ranges, then re-schedule the allocated code.
    {
      PIRA_TIME_SCOPE("sched/aggressive-prepass");
      preScheduleFunction(R.Final, Machine);
      FunctionSchedule Pre = scheduleFunction(R.Final, Machine);
      for (unsigned B = 0, E = R.Final.numBlocks(); B != E; ++B)
        reorderBlockBySchedule(R.Final, B, Pre.Blocks[B]);
    }
    if (!AllocateWithChaitin("alloc.chaitin"))
      return R;
    break;
  }
  case StrategyKind::IntegratedPrepass: {
    // Goodman-Hsu: pressure-aware prepass ordering, then Chaitin.
    integratedPrepassSchedule(R.Final, Machine, K);
    if (!AllocateWithChaitin("alloc.chaitin"))
      return R;
    break;
  }
  case StrategyKind::Combined: {
    bool Injected = faultinject::shouldFire("alloc.pinter");
    PinterStats Stats;
    if (!Injected)
      Stats = pinterAllocate(R.Final, K, Machine, Opts, &R.SymbolicTwin);
    if (!Stats.Success) {
      fail(R, Injected ? ErrorCode::FaultInjected : ErrorCode::AllocFailure,
           "alloc/pinter",
           Injected ? "injected allocation failure"
                    : "combined allocation did not converge");
      return R;
    }
    R.Success = true;
    R.RegistersUsed = Stats.ColorsUsed;
    R.SpilledWebs = Stats.SpilledWebs;
    R.SpillInstructions = Stats.SpillStores + Stats.SpillLoads;
    R.ParallelEdgesDropped = Stats.ParallelEdgesDropped;
    break;
  }
  case StrategyKind::Oracle: {
    // The exact search does scheduling and allocation in one piece and
    // returns a proven-optimal cycle assignment; the shared tail must
    // keep that schedule rather than re-run the list scheduler.
    Status S = oracleCompile(Input, Machine, OOpts, R);
    if (!S.ok()) {
      R.Success = false;
      R.Error = S.message();
      R.Diag = std::move(S);
      ++NumPipelineFailures;
      return R;
    }
    R.Success = true;
    deadline::checkpoint();
    finishPipeline(R, Machine, /*KeepSchedule=*/true);
    if (!R.Success)
      ++NumPipelineFailures;
    return R;
  }
  case StrategyKind::SpillAll: {
    // The safety net: send every web to memory, then color the residue
    // of short reload/store ranges. Lives entirely in spill code, so it
    // succeeds wherever Chaitin's degenerate case (everything already
    // spilled) would — the bottom rung of the degradation ladder.
    PIRA_TIME_SCOPE("alloc/spill-all");
    {
      Webs W(R.Final);
      std::vector<unsigned> AllWebs(W.numWebs());
      std::iota(AllWebs.begin(), AllWebs.end(), 0u);
      std::set<Reg> NoSpillRegs;
      SpillCode Code = insertSpillCode(R.Final, W, AllWebs, NoSpillRegs);
      R.SpilledWebs = static_cast<unsigned>(AllWebs.size());
      R.SpillInstructions = Code.Stores + Code.Loads;
    }
    if (!AllocateWithChaitin("alloc.spillall"))
      return R;
    break;
  }
  default:
    fail(R, ErrorCode::InvalidArgument, "strategy",
         "unknown strategy kind " +
             std::to_string(static_cast<int>(Kind)));
    ++NumPipelineFailures;
    return R;
  }

  deadline::checkpoint();
  finishPipeline(R, Machine);
  if (!R.Success) {
    ++NumPipelineFailures;
    if (R.Error.empty())
      R.Error = "pipeline failed without a recorded reason";
    if (R.Diag.ok())
      R.Diag = Status::error(ErrorCode::Internal, "strategy", R.Error);
  }
  return R;
}

PipelineResult pira::runAndMeasure(StrategyKind Kind, const Function &Input,
                                   const MachineModel &Machine,
                                   const PinterOptions &Opts, uint64_t Seed,
                                   const OracleOptions &OOpts) {
  PipelineResult R = runStrategy(Kind, Input, Machine, Opts, OOpts);
  if (!R.Success)
    return R;

  // Ground truth: sequential interpretation of the *input* code. The
  // final code touches the same arrays plus spillmem, so its initial
  // state copies the input's arrays and starts spill memory zeroed.
  PIRA_TIME_SCOPE("sim/measure");
  faultinject::maybeThrow("sim.measure");
  deadline::checkpoint();
  ExecState Initial = makeInitialState(Input, Seed);
  ExecState SimInitial;
  SimInitial.Regs.assign(R.Final.numRegs(), 0);
  for (const ArrayDecl &A : R.Final.arrays()) {
    auto It = Initial.Arrays.find(A.Name);
    SimInitial.Arrays[A.Name] = It != Initial.Arrays.end()
                                    ? It->second
                                    : std::vector<int64_t>(A.Size, 0);
  }
  ExecResult Ref = [&] {
    PIRA_TIME_SCOPE("sim/reference");
    return interpret(Input, std::move(Initial));
  }();
  if (!Ref.Completed) {
    ++NumPipelineFailures;
    fail(R, ErrorCode::SimFailure, "sim/reference",
         "reference interpretation failed: " + Ref.Error);
    return R;
  }

  SimResult Sim = simulate(R.Final, R.Sched, Machine, std::move(SimInitial));
  R.DynCycles = Sim.Cycles;
  R.DynInstructions = Sim.Instructions;
  if (!Sim.Completed) {
    ++NumPipelineFailures;
    fail(R, ErrorCode::SimFailure, "sim/measure",
         "simulation failed after " + std::to_string(R.DynInstructions) +
             " instructions: " + Sim.Error);
    return R;
  }

  // Observable outputs: every array of the original program, plus the
  // returned value. On divergence the error names the first mismatched
  // observable so reports are actionable without rerunning.
  std::string Mismatch;
  for (const auto &[Name, Data] : Ref.Final.Arrays) {
    auto It = Sim.Final.Arrays.find(Name);
    if (It == Sim.Final.Arrays.end()) {
      Mismatch = "array '" + Name + "' missing from simulated state";
      break;
    }
    if (It->second != Data) {
      Mismatch = "array '" + Name + "' contents differ";
      break;
    }
  }
  if (Mismatch.empty() && Ref.HasReturnValue != Sim.HasReturnValue)
    Mismatch = "return-value presence differs";
  if (Mismatch.empty() && Ref.HasReturnValue &&
      Ref.ReturnValue != Sim.ReturnValue)
    Mismatch = "return value differs (" + std::to_string(Ref.ReturnValue) +
               " vs " + std::to_string(Sim.ReturnValue) + ")";

  R.SemanticsPreserved = Mismatch.empty();
  if (!R.SemanticsPreserved) {
    ++NumPipelineFailures;
    fail(R, ErrorCode::SemanticsDiverged, "sim/measure",
         "semantics diverged from the sequential reference after " +
             std::to_string(R.DynInstructions) + " instructions: " +
             Mismatch);
  }
  return R;
}
