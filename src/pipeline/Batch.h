//===- pipeline/Batch.h - Parallel batch-compilation driver -----*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// compileBatch(): runs one strategy over a batch of independent
/// functions, sharded across a work-stealing thread pool (support/
/// ThreadPool), with a deterministic merge. Per-function compilation is
/// pure — runStrategy copies its input, the MachineModel is shared
/// strictly read-only, and telemetry counters are relaxed atomics — so
/// the only thread-visible ordering is which worker picks which item,
/// and results are written into pre-sized slots indexed by input
/// position. Consequently every field of BatchResult, and the stats
/// report built from it, is bit-identical for any worker count; only the
/// telemetry *timers* (wall-clock samples) differ run to run. That is
/// the determinism contract the parallel-vs-serial property tests pin
/// down.
///
/// Fault isolation (the failure model, see DESIGN.md §8): every function
/// compiles through compileFunctionGuarded, which
///
///   1. rejects inputs over the resource budget (instruction / block
///      caps) with a structured ResourceExhausted diagnostic,
///   2. arms the per-task watchdog deadline around each attempt,
///   3. captures phase exceptions, injected faults, and deadline
///      overruns into the function's result instead of letting them
///      escape to the pool, and
///   4. walks the degradation ladder — requested strategy, then
///      Chaitin (alloc-first), then the spill-everywhere baseline — so
///      that every input yields verifier-clean code unless even the
///      bottom rung fails.
///
/// When BatchOptions::Cache is set, every item's content-addressed key
/// is computed up front and looked up *before* the guard runs; a hit
/// short-circuits compilation entirely (or, in Verify mode, recompiles
/// and cross-checks byte identity), and only verifier-clean
/// non-degraded successes are ever inserted. See pipeline/Cache.h.
///
/// A failed or degraded function never stops the batch; its outcome is
/// recorded per-function and surfaced in the stats report's "failures"
/// and "degradations" sections. Ladder decisions depend only on the
/// input (fault-injection keys are input positions, real wall-clock
/// deadlines are off by default), so fault-injected batches keep the
/// worker-count determinism guarantee. Arming DeadlineMs trades that
/// guarantee for overrun protection — expiry depends on machine load.
///
/// Process isolation (BatchOptions::Isolate): each ladder rung runs in a
/// sandboxed child process (pirac --worker, see pipeline/Worker.h and
/// support/Subprocess.h) so a crash, OOM kill, or hard hang in one
/// function becomes a structured ChildCrashed / ChildKilled /
/// ChildTimeout diagnostic instead of taking down the batch driver.
/// Spawn-level failures and ChildKilled retry up to MaxRetries times
/// with a deterministic backoff. When BatchOptions::Journal is set,
/// every finished function is appended to a crash-safe on-disk journal,
/// and a resumed run replays journal records instead of recompiling.
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
class CompilationCache;
class BatchJournal;

/// One unit of batch work: a named symbolic-form function.
struct BatchItem {
  std::string Name;  ///< Display name ("file.pir" or the function name).
  Function Input;    ///< Symbolic code to compile.
};

/// Per-function resource budget; 0 means unlimited. Instruction and
/// block caps are checked against the input before any phase runs and
/// are fully deterministic. DeadlineMs arms the cooperative per-task
/// watchdog (support/ThreadPool) around every ladder rung — overruns
/// depend on wall clock, so arming it trades batch determinism for
/// protection against pathological inputs.
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
  /// Worker threads; 0 means ThreadPool::defaultJobCount() (PIRA_JOBS or
  /// the hardware concurrency). 1 compiles inline with no pool at all,
  /// which doubles as the serial reference for determinism checks.
  unsigned Jobs = 0;
  bool Measure = true;        ///< Also simulate + check semantics.
  uint64_t Seed = 42;         ///< Simulation seed (Measure only).
  ResourceBudget Budget;      ///< Per-function resource limits.
  /// Walk the degradation ladder on failure (requested strategy →
  /// alloc-first → spill-all). Off means one attempt, report as-is.
  bool Degrade = true;
  /// Content-addressed compilation cache (pipeline/Cache.h), consulted
  /// before the compile guard and fed after verifier-clean non-degraded
  /// successes. Null (the default) disables caching; non-owning, must
  /// outlive the call. The cache's own mode picks On vs Verify.
  CompilationCache *Cache = nullptr;

  /// Run every ladder rung in a sandboxed child process (see file
  /// comment). Requires WorkerExe; child deaths become structured
  /// ChildCrashed / ChildKilled / ChildTimeout diagnostics.
  bool Isolate = false;
  /// Path of the pirac binary to self-exec as `WorkerExe --worker`.
  /// pirac fills this from /proc/self/exe; empty disables isolation.
  std::string WorkerExe;
  /// Extra attempts for retryable child failures (spawn errors and
  /// ChildKilled). 0 means one attempt, no retries.
  unsigned MaxRetries = 0;
  /// Base backoff before retry attempt N: RetryBackoffMs << (N - 1)
  /// milliseconds. Deterministic — no jitter, no clock sampling.
  unsigned RetryBackoffMs = 10;
  /// Address-space cap (RLIMIT_AS) per child, MiB; 0 leaves it off.
  /// Keep it off under sanitizers — ASan reserves terabytes of shadow.
  uint64_t ChildMemLimitMB = 0;
  /// Wall-clock budget per child, ms; the parent SIGKILLs overruns and
  /// reports ChildTimeout. 0 leaves it off. Like Budget.DeadlineMs this
  /// depends on real time, so arming it trades batch determinism for
  /// hang protection.
  uint64_t ChildTimeoutMs = 0;
  /// Crash-safe batch journal (pipeline/Journal.h). Non-owning; must be
  /// open and must outlive the call. Finished functions are appended;
  /// positions already present replay instead of recompiling.
  BatchJournal *Journal = nullptr;

  /// Emit a live progress line to stderr as items finish: done/total,
  /// failed/degraded/crashed tallies, cache hit rate (when a cache is
  /// live), and an ETA. Rate-limited, and TTY-aware: a terminal gets an
  /// in-place carriage-return line, a pipe gets occasional full lines.
  /// Display only — no effect on results or reports.
  bool Progress = false;
};

/// One failed ladder attempt: which rung, and why it failed.
struct CompileAttempt {
  std::string Rung;  ///< Strategy name of the attempt.
  Status Diag;       ///< Its structured failure.
};

/// How one function's sandboxed children behaved (Isolate mode only;
/// all-zero otherwise). Every field is a deterministic function of the
/// input and the armed fault sites — wall-clock timeouts excepted — so
/// it may appear in the stats report without breaking the byte-identity
/// contract.
struct IsolationOutcome {
  bool Isolated = false;   ///< Compiled out of process at all.
  unsigned Spawns = 0;     ///< Children forked (rungs × attempts).
  unsigned Retries = 0;    ///< Attempts beyond the first, summed.
  unsigned Crashes = 0;    ///< Children that died on a crash signal.
  unsigned Timeouts = 0;   ///< Children SIGKILLed by the watchdog.
  int ExitCode = 0;        ///< Last child's exit code (-1 if signaled).
  int Signal = 0;          ///< Last child's fatal signal (0 if none).
  bool TimedOut = false;   ///< Last child hit the wall-clock budget.
};

/// How one function travelled through the guard and the ladder.
struct CompileOutcome {
  std::string Requested;   ///< Strategy the caller asked for.
  std::string Used;        ///< Rung that produced the final result
                           ///< (empty when the budget rejected the input).
  unsigned Rung = 0;       ///< 0 = requested strategy, 1 = alloc-first, ...
  bool Degraded = false;   ///< Succeeded, but below the requested rung.
  std::vector<CompileAttempt> FailedAttempts; ///< Rungs that failed first.
  IsolationOutcome Isolation; ///< Child-process record (Isolate mode).
  /// Replayed from a batch journal rather than compiled. Deliberately
  /// not serialized into per-function stats: a resumed run's report must
  /// stay byte-identical to the uninterrupted run's (the resumed tally
  /// lives in the telemetry counters instead).
  bool Resumed = false;
};

/// Guarded result: the final PipelineResult (last rung attempted) plus
/// the ladder record.
struct GuardedResult {
  PipelineResult Result;
  CompileOutcome Outcome;
  /// Raw result-doc-v2 telemetry blocks from every sandboxed child that
  /// answered (Isolate mode only; empty otherwise). Already merged into
  /// the live registries by the time the caller sees them; kept so the
  /// journal can store them and a resumed run can re-merge. Not part of
  /// stats reports.
  std::vector<json::Value> ChildTelemetry;
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
  unsigned JobsUsed = 0;                ///< Worker threads actually used.
  unsigned Succeeded = 0;               ///< Results with Success set.
  unsigned Failed = 0;                  ///< Results with Success clear.
  unsigned Degraded = 0;                ///< Succeeded below the requested rung.

  /// Isolation tallies (zero outside Isolate mode). Deterministic, so
  /// they live in the report's "batch" block — except Resumed, which
  /// depends on where the previous run died and is surfaced via the
  /// counters section only (see CompileOutcome::Resumed).
  unsigned Isolated = 0;  ///< Functions compiled in child processes.
  unsigned Crashes = 0;   ///< Child crash signals over the whole batch.
  unsigned Timeouts = 0;  ///< Child wall/CPU overruns over the batch.
  unsigned Retries = 0;   ///< Child retry attempts over the batch.
  unsigned Resumed = 0;   ///< Functions replayed from the journal.

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
/// \p Machine is shared read-only across workers and must outlive the
/// call. Items compile independently; a failure in one does not stop the
/// others. Each item's fault-injection key is its input position.
BatchResult compileBatch(const std::vector<BatchItem> &Batch,
                         const MachineModel &Machine,
                         const BatchOptions &Opts = {});

/// One observation of batch progress, as rendered into a --progress
/// stderr line. Plain data so the formatting is unit-testable away from
/// the atomics and the rate limiter that feed it.
struct ProgressSnapshot {
  uint64_t Done = 0;
  uint64_t Total = 0;
  uint64_t Failed = 0;
  uint64_t Degraded = 0;
  uint64_t Crashed = 0;
  /// Cache tallies; the cache segment is omitted when HasCache is false
  /// or no lookup has happened yet.
  bool HasCache = false;
  uint64_t CacheHits = 0;
  uint64_t CacheLookups = 0;
  /// Wall time since the batch started, in seconds.
  double ElapsedS = 0.0;
};

/// Renders one --progress line (text only; the terminal redraw bytes
/// are the caller's concern). Pure: same snapshot, same string. The
/// rate and ETA segments require at least one finished item and a
/// strictly positive elapsed time — the first tick of a fast batch can
/// land within the clock's granularity, and dividing by that zero must
/// not leak "inf" or "nan" into the line.
std::string formatProgressLine(const ProgressSnapshot &S);

/// Assembles the versioned "pira.stats" document for a batch run: the
/// shared preamble, one "functions" array entry per item (input order),
/// batch aggregates, a "failures" array (every failed function plus the
/// \p InputFailures that never compiled), a "degradations" array (every
/// function rescued below its requested rung, with the per-rung
/// diagnostics), a "cache" block when \p Cache is non-null (schema v3),
/// counters, and timers. Schema v4 adds a per-function "isolation"
/// record for functions compiled out of process and the batch
/// "isolated"/"crashes"/"timeouts"/"retries" tallies (deterministic;
/// the resumed count is deliberately counters-only). Schema v5 adds the
/// "provenance" block and the "histograms" section (pipeline/Report.h).
/// Everything except "histograms" bucket placement and "timers" is
/// byte-identical across worker counts (histogram *counts* included);
/// the worker count itself is deliberately not recorded so reports diff
/// clean across --jobs values. (The "counters", "histograms", and
/// "cache" sections do vary between cold and warm cache runs — a hit
/// legitimately skips the compile-phase counters — so warm-vs-cold
/// report comparisons exclude "timers", "counters", "histograms", and
/// "cache".)
json::Value makeBatchStatsReport(const BatchResult &R,
                                 const std::vector<BatchItem> &Batch,
                                 const std::string &Strategy,
                                 const MachineModel &Machine,
                                 const std::vector<BatchFailure> &InputFailures = {},
                                 const CompilationCache *Cache = nullptr);

} // namespace pira

#endif // PIRA_PIPELINE_BATCH_H
