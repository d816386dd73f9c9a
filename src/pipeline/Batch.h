//===- pipeline/Batch.h - Parallel batch-compilation driver -----*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// compileBatch(): runs one strategy over a batch of independent
/// functions, one parallelFor (support/Parallel.h) over the items, with
/// a deterministic merge. Per-function compilation is pure — runStrategy
/// copies its input, the MachineModel is shared strictly read-only, and
/// telemetry counters are relaxed atomics — so the only thread-visible
/// ordering is which thread picks which item, and results are written
/// into pre-sized slots indexed by input position. Consequently every
/// field of BatchResult, and the stats report built from it, is
/// bit-identical for any worker count; only the telemetry *timers*
/// (wall-clock samples) differ run to run. That is the determinism
/// contract the parallel-vs-serial property tests pin down.
///
/// Fault isolation (the failure model, see DESIGN.md §8): every function
/// compiles through compileFunctionGuarded, which
///
///   1. rejects inputs over the resource budget (instruction / block
///      caps) with a structured ResourceExhausted diagnostic,
///   2. arms a deadline (support/Deadline.h) around each attempt,
///   3. captures phase exceptions, injected faults, and deadline
///      overruns into the function's result instead of letting them
///      escape to the batch, and
///   4. walks the degradation ladder — requested strategy, then
///      Chaitin (alloc-first), then the spill-everywhere baseline — so
///      that every input yields verifier-clean code unless even the
///      bottom rung fails.
///
/// A failed or degraded function never stops the batch; its outcome is
/// recorded per-function and surfaced in the stats report's "failures"
/// and "degradations" sections. Ladder decisions depend only on the
/// input (fault-injection keys are input positions, real wall-clock
/// deadlines are off by default), so fault-injected batches keep the
/// worker-count determinism guarantee. Arming DeadlineMs trades that
/// guarantee for overrun protection — expiry depends on machine load.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PIPELINE_BATCH_H
#define PIRA_PIPELINE_BATCH_H

#include "pipeline/Strategies.h"
#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pira {

class MachineModel;

/// One unit of batch work: a named symbolic-form function.
struct BatchItem {
  std::string Name;  ///< Display name ("file.pir" or the function name).
  Function Input;    ///< Symbolic code to compile.
};

/// Per-function resource budget; 0 means unlimited. Instruction and
/// block caps are checked against the input before any phase runs and
/// are fully deterministic. DeadlineMs arms a cooperative deadline
/// (support/Deadline.h) around every ladder rung — overruns depend on
/// wall clock, so arming it trades batch determinism for protection
/// against pathological inputs.
struct ResourceBudget {
  uint64_t MaxInstructions = 0; ///< Cap on input instruction count.
  uint64_t MaxBlocks = 0;       ///< Cap on input basic-block count.
  uint64_t DeadlineMs = 0;      ///< Wall-clock budget per ladder rung.
};

/// Batch-wide knobs.
struct BatchOptions {
  StrategyKind Strategy = StrategyKind::Combined;
  PinterOptions Pinter;       ///< Tunes the Combined strategy only.
  OracleOptions Oracle;       ///< Tunes the Oracle strategy only.
  /// Job count; 0 means defaultJobCount() (PIRA_JOBS or the hardware
  /// concurrency). 1 compiles inline, which doubles as the serial
  /// reference for determinism checks; N > 1 runs up to N threads beside
  /// the caller.
  unsigned Jobs = 0;
  bool Measure = true;        ///< Also simulate + check semantics.
  uint64_t Seed = 42;         ///< Simulation seed (Measure only).
  ResourceBudget Budget;      ///< Per-function resource limits.
  /// Walk the degradation ladder on failure (requested strategy →
  /// alloc-first → spill-all). Off means one attempt, report as-is.
  bool Degrade = true;
};

/// One failed ladder attempt: which rung, and why it failed.
struct CompileAttempt {
  std::string Rung;  ///< Strategy name of the attempt.
  Status Diag;       ///< Its structured failure.
};

/// How one function travelled through the guard and the ladder.
struct CompileOutcome {
  std::string Requested;   ///< Strategy the caller asked for.
  std::string Used;        ///< Rung that produced the final result
                           ///< (empty when the budget rejected the input).
  unsigned Rung = 0;       ///< 0 = requested strategy, 1 = alloc-first, ...
  bool Degraded = false;   ///< Succeeded, but below the requested rung.
  std::vector<CompileAttempt> FailedAttempts; ///< Rungs that failed first.
};

/// Guarded result: the final PipelineResult (last rung attempted) plus
/// the ladder record.
struct GuardedResult {
  PipelineResult Result;
  CompileOutcome Outcome;
};

/// Compiles one function under the full fault-isolation contract (see
/// file comment): budget check, watchdog deadline, exception capture,
/// degradation ladder. Never throws; every failure is a structured
/// diagnostic in the returned result.
GuardedResult compileFunctionGuarded(const Function &Input,
                                     const MachineModel &Machine,
                                     const BatchOptions &Opts = {});

/// An input that never reached compilation (unreadable file, parse or
/// verify failure). pirac collects these so the stats report's
/// "failures" section covers the whole input set, not just the
/// functions that compiled.
struct BatchFailure {
  std::string Name;
  Status Diag;
};

/// Everything a batch run produces. Results sits in input order no
/// matter which worker finished first.
struct BatchResult {
  std::vector<PipelineResult> Results;  ///< Parallel to the input batch.
  std::vector<CompileOutcome> Outcomes; ///< Ladder record per item.
  unsigned JobsUsed = 0;                ///< Threads that compiled items.
  unsigned Succeeded = 0;               ///< Results with Success set.
  unsigned Failed = 0;                  ///< Results with Success clear.
  unsigned Degraded = 0;                ///< Succeeded below the requested rung.

  /// Sums over successful results (deterministic; see file comment).
  unsigned TotalRegistersUsed = 0;   ///< Max, not sum: peak register need.
  unsigned TotalSpilledWebs = 0;
  unsigned TotalSpillInstructions = 0;
  unsigned TotalFalseDeps = 0;
  unsigned TotalStaticCycles = 0;
  uint64_t TotalDynCycles = 0;
  uint64_t TotalDynInstructions = 0;
};

/// Compiles every item of \p Batch with \p Opts.Strategy for \p Machine.
/// \p Machine is shared read-only across threads and must outlive the
/// call. Items compile independently; a failure in one does not stop the
/// others. Each item's fault-injection key is its input position.
BatchResult compileBatch(const std::vector<BatchItem> &Batch,
                         const MachineModel &Machine,
                         const BatchOptions &Opts = {});

/// Assembles the versioned "pira.stats" document for a batch run: the
/// shared preamble, one "functions" array entry per item (input order),
/// batch aggregates, a "failures" array (every failed function plus the
/// \p InputFailures that never compiled), a "degradations" array (every
/// function rescued below its requested rung, with the per-rung
/// diagnostics), counters, histograms and timers (schema v6; see
/// pipeline/Report.h). Everything except "histograms" bucket placement
/// and "timers" is byte-identical across worker counts (histogram
/// *counts* included); the worker count itself is deliberately not
/// recorded so reports diff clean across --jobs values.
json::Value
makeBatchStatsReport(const BatchResult &R, const std::vector<BatchItem> &Batch,
                     const std::string &Strategy, const MachineModel &Machine,
                     const std::vector<BatchFailure> &InputFailures = {});

} // namespace pira

#endif // PIRA_PIPELINE_BATCH_H
