//===- pipeline/Batch.cpp - Parallel batch-compilation driver -------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Batch.h"

#include "machine/MachineModel.h"
#include "pipeline/Report.h"
#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace pira;

PIRA_STAT(NumBatchesCompiled, "Batch compilations driven");
PIRA_STAT(NumBatchItemsCompiled, "Functions compiled via compileBatch");
PIRA_STAT(NumGuardedCompiles, "Functions run through the compile guard");
PIRA_STAT(NumBudgetRejections, "Functions rejected by the resource budget");
PIRA_STAT(NumDegradedFunctions,
          "Functions rescued by a lower ladder rung than requested");
PIRA_STAT(NumFailedFunctions, "Functions that failed every ladder rung");
PIRA_STAT(NumCapturedTaskExceptions,
          "Phase exceptions captured by the compile guard");

PIRA_HIST(CompileFunctionLatency,
          "End-to-end latency of one function's guarded compile (every "
          "ladder rung included)");
PIRA_HIST(LadderRungLatency,
          "Latency of one degradation-ladder rung attempt");

/// Marks \p R failed with both the legacy string and the structured
/// diagnostic (the Strategies-side twin is file-static).
static void failResult(PipelineResult &R, Status S) {
  R.Success = false;
  R.Error = S.toString();
  R.Diag = std::move(S);
}

/// One ladder rung under the guard: arms the deadline, runs the
/// strategy, and converts anything thrown into a structured failure.
static PipelineResult runRungGuarded(StrategyKind Kind, const Function &Input,
                                     const MachineModel &Machine,
                                     const BatchOptions &Opts) {
  PipelineResult R;
  try {
    deadline::ScopedDeadline Deadline(Opts.Budget.DeadlineMs);
    R = Opts.Measure
            ? runAndMeasure(Kind, Input, Machine, Opts.Pinter, Opts.Seed,
                            Opts.Oracle)
            : runStrategy(Kind, Input, Machine, Opts.Pinter, Opts.Oracle);
  } catch (const faultinject::FaultInjectedError &E) {
    ++NumCapturedTaskExceptions;
    failResult(R, Status::error(ErrorCode::FaultInjected, "guard", E.what()));
  } catch (const deadline::DeadlineExceededError &) {
    ++NumCapturedTaskExceptions;
    failResult(R, Status::error(
                      ErrorCode::DeadlineExceeded, "guard",
                      "watchdog deadline exceeded (budget " +
                          std::to_string(Opts.Budget.DeadlineMs) + " ms)"));
  } catch (const std::exception &E) {
    ++NumCapturedTaskExceptions;
    failResult(R, Status::error(ErrorCode::Internal, "guard",
                                std::string("unhandled exception: ") +
                                    E.what()));
  } catch (...) {
    ++NumCapturedTaskExceptions;
    failResult(R, Status::error(ErrorCode::Internal, "guard",
                                "unhandled non-standard exception"));
  }
  return R;
}

GuardedResult pira::compileFunctionGuarded(const Function &Input,
                                           const MachineModel &Machine,
                                           const BatchOptions &Opts) {
  PIRA_TIME_SCOPE("batch/guarded-compile");
  ++NumGuardedCompiles;
  GuardedResult Out;
  Out.Outcome.Requested = strategyName(Opts.Strategy);
  std::string FnFrame = "function @" + Input.name();

  // Budget gate: reject oversized inputs before any phase burns time on
  // them. Deterministic — a pure function of the input.
  bool InjectedBudget = faultinject::shouldFire("budget.instructions");
  uint64_t Insts = Input.totalInstructions();
  if (InjectedBudget ||
      (Opts.Budget.MaxInstructions != 0 &&
       Insts > Opts.Budget.MaxInstructions)) {
    ++NumBudgetRejections;
    Status S =
        InjectedBudget
            ? Status::error(ErrorCode::FaultInjected, "budget",
                            "injected instruction-budget overrun")
            : Status::error(ErrorCode::ResourceExhausted, "budget",
                            std::to_string(Insts) +
                                " instructions exceed the budget of " +
                                std::to_string(Opts.Budget.MaxInstructions));
    S.addContext(FnFrame);
    failResult(Out.Result, std::move(S));
    return Out;
  }
  if (Opts.Budget.MaxBlocks != 0 && Input.numBlocks() > Opts.Budget.MaxBlocks) {
    ++NumBudgetRejections;
    Status S = Status::error(
        ErrorCode::ResourceExhausted, "budget",
        std::to_string(Input.numBlocks()) +
            " blocks exceed the budget of " +
            std::to_string(Opts.Budget.MaxBlocks));
    S.addContext(FnFrame);
    failResult(Out.Result, std::move(S));
    return Out;
  }

  // The degradation ladder: requested strategy first, then Chaitin on
  // the plain interference graph, then the spill-everywhere baseline.
  std::vector<StrategyKind> Rungs = {Opts.Strategy};
  if (Opts.Degrade) {
    if (Opts.Strategy != StrategyKind::AllocFirst &&
        Opts.Strategy != StrategyKind::SpillAll)
      Rungs.push_back(StrategyKind::AllocFirst);
    if (Opts.Strategy != StrategyKind::SpillAll)
      Rungs.push_back(StrategyKind::SpillAll);
  }

  for (unsigned I = 0; I != Rungs.size(); ++I) {
    PipelineResult R;
    {
      telemetry::HistTimer RungTimer(LadderRungLatency);
      R = runRungGuarded(Rungs[I], Input, Machine, Opts);
    }
    R.Diag.addContext("rung " + std::string(strategyName(Rungs[I])));
    R.Diag.addContext(FnFrame);
    Out.Outcome.Used = strategyName(Rungs[I]);
    Out.Outcome.Rung = I;
    if (R.Success) {
      Out.Outcome.Degraded = I != 0;
      if (Out.Outcome.Degraded)
        ++NumDegradedFunctions;
      Out.Result = std::move(R);
      return Out;
    }
    // A blown deadline or budget would blow again on a retry that
    // starts from the same input; stop the ladder there.
    bool Fatal = R.Diag.code() == ErrorCode::DeadlineExceeded ||
                 R.Diag.code() == ErrorCode::ResourceExhausted;
    Out.Outcome.FailedAttempts.push_back(
        {std::string(strategyName(Rungs[I])), R.Diag});
    Out.Result = std::move(R);
    if (Fatal)
      break;
  }
  ++NumFailedFunctions;
  return Out;
}

/// Recomputes every aggregate field of \p R (Succeeded, Failed,
/// Degraded, the Total* sums) from Results and Outcomes, walking them in
/// input order.
static void finalizeBatchAggregates(BatchResult &R) {
  R.Succeeded = R.Failed = R.Degraded = 0;
  R.TotalRegistersUsed = R.TotalSpilledWebs = R.TotalSpillInstructions = 0;
  R.TotalFalseDeps = R.TotalStaticCycles = 0;
  R.TotalDynCycles = R.TotalDynInstructions = 0;
  for (size_t I = 0; I != R.Results.size(); ++I) {
    const PipelineResult &P = R.Results[I];
    if (!P.Success) {
      ++R.Failed;
      continue;
    }
    ++R.Succeeded;
    if (R.Outcomes[I].Degraded)
      ++R.Degraded;
    R.TotalRegistersUsed = std::max(R.TotalRegistersUsed, P.RegistersUsed);
    R.TotalSpilledWebs += P.SpilledWebs;
    R.TotalSpillInstructions += P.SpillInstructions;
    R.TotalFalseDeps += P.FalseDeps;
    R.TotalStaticCycles += P.StaticCycles;
    R.TotalDynCycles += P.DynCycles;
    R.TotalDynInstructions += P.DynInstructions;
  }
}

BatchResult pira::compileBatch(const std::vector<BatchItem> &Batch,
                               const MachineModel &Machine,
                               const BatchOptions &Opts) {
  // The whole-batch span is recorded by hand at the end rather than as
  // a TimeScope: a live scope on the caller's thread would prefix the
  // paths of the items the caller runs but not of those other threads
  // run, and the trace contract is that the event set does not depend
  // on the job count.
  uint64_t BatchStartNs = telemetry::monotonicNowNs();
  ++NumBatchesCompiled;
  NumBatchItemsCompiled += Batch.size();

  BatchResult R;
  R.Results.resize(Batch.size());
  R.Outcomes.resize(Batch.size());

  unsigned N = static_cast<unsigned>(Batch.size());
  R.JobsUsed = parallelFor(N, Opts.Jobs, [&](unsigned I) {
    // Each slot is written by exactly one thread; the MachineModel and
    // the inputs are read-only. runStrategy copies the function, so the
    // item itself is never mutated. The fault key is the input position,
    // so injected faults hit the same functions for any worker count.
    faultinject::ScopedKey Key(I);
    telemetry::HistTimer Latency(CompileFunctionLatency);
    GuardedResult G = compileFunctionGuarded(Batch[I].Input, Machine, Opts);
    R.Results[I] = std::move(G.Result);
    R.Outcomes[I] = std::move(G.Outcome);
  });

  if (telemetry::enabled()) {
    telemetry::TimedEvent Span;
    Span.Path = "batch/compile";
    Span.Label = "batch/compile";
    Span.StartNs = BatchStartNs;
    Span.DurationNs = telemetry::monotonicNowNs() - BatchStartNs;
    Span.ThreadId = 0; // compileBatch runs on the driver's main thread
    Span.Depth = 0;
    telemetry::recordForeignEvents({std::move(Span)});
  }

  // Deterministic merge: aggregates walk the results in input order, and
  // every aggregated field came from a computation independent of worker
  // scheduling.
  finalizeBatchAggregates(R);
  return R;
}

/// Serializes one ladder record ({"requested", "used", "rung",
/// "attempts": [{"rung", "diagnostic"}]}).
static json::Value outcomeToJson(const CompileOutcome &O) {
  json::Value Out = json::Value::object();
  Out.set("requested", O.Requested);
  Out.set("used", O.Used);
  Out.set("rung", O.Rung);
  json::Value Attempts = json::Value::array();
  for (const CompileAttempt &A : O.FailedAttempts) {
    json::Value One = json::Value::object();
    One.set("rung", A.Rung);
    One.set("diagnostic", A.Diag.toJson());
    Attempts.push(std::move(One));
  }
  Out.set("attempts", std::move(Attempts));
  return Out;
}

json::Value pira::makeBatchStatsReport(
    const BatchResult &R, const std::vector<BatchItem> &Batch,
    const std::string &Strategy, const MachineModel &Machine,
    const std::vector<BatchFailure> &InputFailures) {
  json::Value Root = json::Value::object();
  Root.set("schema", StatsSchemaName);
  Root.set("version", StatsSchemaVersion);
  Root.set("provenance", buildProvenanceToJson());
  if (!Strategy.empty())
    Root.set("strategy", Strategy);
  Root.set("machine", machineToJson(Machine));

  // Callers that assembled a BatchResult by hand may not have outcome
  // records; the report degrades to the pre-ladder shape then.
  bool HaveOutcomes = R.Outcomes.size() == R.Results.size();

  json::Value Functions = json::Value::array();
  for (size_t I = 0; I != R.Results.size(); ++I) {
    json::Value One = json::Value::object();
    One.set("name", I < Batch.size() ? Batch[I].Name : std::string());
    One.set("pipeline", pipelineResultToJson(R.Results[I]));
    if (HaveOutcomes && (R.Outcomes[I].Rung != 0 ||
                         !R.Outcomes[I].FailedAttempts.empty()))
      One.set("degradation", outcomeToJson(R.Outcomes[I]));
    Functions.push(std::move(One));
  }
  Root.set("functions", std::move(Functions));

  json::Value Agg = json::Value::object();
  Agg.set("items", static_cast<uint64_t>(R.Results.size()));
  Agg.set("succeeded", R.Succeeded);
  Agg.set("failed", R.Failed + static_cast<unsigned>(InputFailures.size()));
  Agg.set("degraded", R.Degraded);
  Agg.set("max_registers_used", R.TotalRegistersUsed);
  Agg.set("spilled_webs", R.TotalSpilledWebs);
  Agg.set("spill_instructions", R.TotalSpillInstructions);
  Agg.set("false_deps", R.TotalFalseDeps);
  Agg.set("static_cycles", R.TotalStaticCycles);
  Agg.set("dyn_cycles", R.TotalDynCycles);
  Agg.set("dyn_instructions", R.TotalDynInstructions);
  Root.set("batch", std::move(Agg));

  // Failures: inputs that never compiled first (they precede the batch
  // in pipeline order), then every function that failed all its rungs.
  json::Value Failures = json::Value::array();
  for (const BatchFailure &F : InputFailures) {
    json::Value One = json::Value::object();
    One.set("name", F.Name);
    One.set("diagnostic", F.Diag.toJson());
    Failures.push(std::move(One));
  }
  for (size_t I = 0; I != R.Results.size(); ++I) {
    if (R.Results[I].Success)
      continue;
    json::Value One = json::Value::object();
    One.set("name", I < Batch.size() ? Batch[I].Name : std::string());
    One.set("diagnostic", R.Results[I].Diag.toJson());
    Failures.push(std::move(One));
  }
  Root.set("failures", std::move(Failures));

  json::Value Degradations = json::Value::array();
  if (HaveOutcomes)
    for (size_t I = 0; I != R.Results.size(); ++I) {
      if (!R.Outcomes[I].Degraded)
        continue;
      json::Value One = json::Value::object();
      One.set("name", I < Batch.size() ? Batch[I].Name : std::string());
      One.set("ladder", outcomeToJson(R.Outcomes[I]));
      Degradations.push(std::move(One));
    }
  Root.set("degradations", std::move(Degradations));

  Root.set("counters", countersToJson());
  // The volatile tail: histogram bucket placement and timers carry wall
  // clock. Identity checks neutralize both (histogram *counts* stay
  // comparable; see Report.h).
  Root.set("histograms", histogramsToJson());
  Root.set("timers", timersToJson());
  return Root;
}
