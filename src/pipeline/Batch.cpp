//===- pipeline/Batch.cpp - Parallel batch-compilation driver -------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Batch.h"

#include "ir/Printer.h"
#include "machine/MachineConfig.h"
#include "machine/MachineModel.h"
#include "pipeline/Cache.h"
#include "pipeline/Journal.h"
#include "pipeline/Report.h"
#include "pipeline/Worker.h"
#include "support/FaultInjection.h"
#include "support/Subprocess.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <thread>

#include <unistd.h>

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
PIRA_STAT(NumIsolatedCompiles, "Functions compiled in sandboxed children");
PIRA_STAT(NumChildCrashes, "Sandboxed children that died on a crash signal");
PIRA_STAT(NumChildTimeouts,
          "Sandboxed children killed for exceeding their wall/CPU budget");
PIRA_STAT(NumChildKills,
          "Sandboxed children killed by other signals (OOM kill, external)");
PIRA_STAT(NumChildRetries, "Sandboxed child attempts beyond the first");
PIRA_STAT(NumWorkerProtocolErrors,
          "Sandboxed children that exited without a valid result document");
PIRA_STAT(NumJournalCorruptReplays,
          "Journal records that failed to decode (recompiled instead)");

PIRA_HIST(CompileFunctionLatency,
          "End-to-end latency of one function's compile (guarded or "
          "isolated, retries included)");
PIRA_HIST(LadderRungLatency,
          "Latency of one degradation-ladder rung attempt (recorded where "
          "the rung ran: in-process, or inside the sandboxed child and "
          "merged up)");

/// Marks \p R failed with both the legacy string and the structured
/// diagnostic (the Strategies-side twin is file-static).
static void failResult(PipelineResult &R, Status S) {
  R.Success = false;
  R.Error = S.toString();
  R.Diag = std::move(S);
}

/// One ladder rung under the guard: arms the watchdog, runs the
/// strategy, and converts anything thrown into a structured failure.
static PipelineResult runRungGuarded(StrategyKind Kind, const Function &Input,
                                     const MachineModel &Machine,
                                     const BatchOptions &Opts) {
  PipelineResult R;
  try {
    deadline::ScopedDeadline Watchdog(Opts.Budget.DeadlineMs);
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
  // Hard-fault sites (crash.*) fire before the exception net on purpose:
  // they model the failures no in-process guard can catch — the whole
  // reason the batch driver grows a process sandbox.
  faultinject::maybeHardFault();
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

//===----------------------------------------------------------------------===//
// Out-of-process compilation (BatchOptions::Isolate)
//===----------------------------------------------------------------------===//

/// Serializes the child-process record; appears per-function in the
/// stats report and in journal records.
static json::Value isolationToJson(const IsolationOutcome &Iso) {
  json::Value Out = json::Value::object();
  Out.set("isolated", Iso.Isolated);
  Out.set("spawns", Iso.Spawns);
  Out.set("retries", Iso.Retries);
  Out.set("crashes", Iso.Crashes);
  Out.set("timeouts", Iso.Timeouts);
  Out.set("exit", Iso.ExitCode);
  Out.set("signal", Iso.Signal);
  Out.set("timed_out", Iso.TimedOut);
  return Out;
}

/// Lenient inverse, for journal replay. Missing members keep defaults so
/// an older journal still replays.
static void isolationFromJson(const json::Value &Doc, IsolationOutcome &Iso) {
  auto U = [&Doc](const char *Name, unsigned &Out) {
    if (const json::Value *V = Doc.find(Name); V != nullptr && V->isInt())
      Out = static_cast<unsigned>(V->asInt());
  };
  if (const json::Value *V = Doc.find("isolated");
      V != nullptr && V->isBool())
    Iso.Isolated = V->asBool();
  U("spawns", Iso.Spawns);
  U("retries", Iso.Retries);
  U("crashes", Iso.Crashes);
  U("timeouts", Iso.Timeouts);
  if (const json::Value *V = Doc.find("exit"); V != nullptr && V->isInt())
    Iso.ExitCode = static_cast<int>(V->asInt());
  if (const json::Value *V = Doc.find("signal"); V != nullptr && V->isInt())
    Iso.Signal = static_cast<int>(V->asInt());
  if (const json::Value *V = Doc.find("timed_out");
      V != nullptr && V->isBool())
    Iso.TimedOut = V->asBool();
}

/// Classifies how a reaped child died. Crash signals become
/// ChildCrashed; the kernel's CPU-rlimit signal maps to ChildTimeout
/// like the parent's own watchdog kill; everything else (the OOM
/// killer's SIGKILL, an external kill) is ChildKilled — the one class
/// worth retrying, since the cause may be transient.
static ErrorCode classifyChildSignal(int Signal) {
  switch (Signal) {
  case SIGSEGV:
  case SIGABRT:
  case SIGBUS:
  case SIGILL:
  case SIGFPE:
  case SIGTRAP:
    return ErrorCode::ChildCrashed;
  case SIGXCPU:
    return ErrorCode::ChildTimeout;
  default:
    return ErrorCode::ChildKilled;
  }
}

/// compileFunctionGuarded's out-of-process twin: the parent walks the
/// same degradation ladder, but every rung runs in a sandboxed child
/// (`WorkerExe --worker`, Degrade off) so crashes, OOM kills, and hard
/// hangs in one rung surface as structured diagnostics and the next
/// rung still gets its chance. Spawn failures and ChildKilled retry up
/// to Opts.MaxRetries times with deterministic backoff; ChildTimeout is
/// fatal to the ladder (a hang would hang again), mirroring how the
/// in-process ladder stops on DeadlineExceeded.
static GuardedResult compileFunctionIsolated(const Function &Input,
                                             const std::string &MachineText,
                                             const BatchOptions &Opts) {
  PIRA_TIME_SCOPE("batch/isolated-compile");
  ++NumIsolatedCompiles;
  GuardedResult Out;
  IsolationOutcome &Iso = Out.Outcome.Isolation;
  Iso.Isolated = true;
  Out.Outcome.Requested = strategyName(Opts.Strategy);
  std::string FnFrame = "function @" + Input.name();

  std::string IRText = functionToString(Input);
  std::string FaultSpec = faultinject::currentSpec();
  uint64_t FaultKey = faultinject::currentKey();

  std::vector<StrategyKind> Rungs = {Opts.Strategy};
  if (Opts.Degrade) {
    if (Opts.Strategy != StrategyKind::AllocFirst &&
        Opts.Strategy != StrategyKind::SpillAll)
      Rungs.push_back(StrategyKind::AllocFirst);
    if (Opts.Strategy != StrategyKind::SpillAll)
      Rungs.push_back(StrategyKind::SpillAll);
  }

  for (unsigned RungIdx = 0; RungIdx != Rungs.size(); ++RungIdx) {
    PIRA_TIME_SCOPE("isolate/rung");
    std::string RungName = strategyName(Rungs[RungIdx]);

    // The child compiles exactly this rung: ladder policy stays in the
    // parent, so a rung that crashes the child still falls through to
    // the next rung.
    BatchOptions ChildOpts = Opts;
    ChildOpts.Strategy = Rungs[RungIdx];
    ChildOpts.Degrade = false;
    ChildOpts.Isolate = false;
    ChildOpts.Jobs = 1;
    ChildOpts.Cache = nullptr;
    ChildOpts.Journal = nullptr;
    std::string Job =
        encodeWorkerJob(IRText, MachineText, ChildOpts, FaultSpec, FaultKey)
            .toString(-1) +
        "\n";

    GuardedResult Child;
    bool GotResult = false;
    Status RungDiag;
    for (unsigned Attempt = 0;; ++Attempt) {
      if (Attempt != 0) {
        ++Iso.Retries;
        ++NumChildRetries;
        // Deterministic exponential backoff; no jitter, no clock reads.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<uint64_t>(Opts.RetryBackoffMs) << (Attempt - 1)));
      }
      ++Iso.Spawns;
      SubprocessOptions SP;
      SP.Argv = {Opts.WorkerExe, "--worker"};
      SP.Input = Job;
      SP.TimeoutMs = Opts.ChildTimeoutMs;
      SP.MemoryLimitMB = Opts.ChildMemLimitMB;
      // The child's trace timeline gets re-based onto this instant, so
      // its phases nest under the span this scope records.
      uint64_t SpawnStartNs = telemetry::monotonicNowNs();
      Expected<SubprocessResult> SR = [&SP] {
        PIRA_TIME_SCOPE("isolate/spawn");
        return runSubprocess(SP);
      }();

      bool Retryable = false;
      if (!SR) {
        // Spawn-level failure (fork/pipe/exec): nothing ran, so a retry
        // is always safe and the cause (fd or pid pressure) transient.
        RungDiag = SR.status();
        RungDiag.addContext("spawning " + Opts.WorkerExe);
        Retryable = true;
      } else {
        Iso.ExitCode = SR->ExitCode;
        Iso.Signal = SR->Signal;
        Iso.TimedOut = SR->TimedOut;
        if (SR->TimedOut) {
          ++Iso.Timeouts;
          ++NumChildTimeouts;
          RungDiag = Status::error(
              ErrorCode::ChildTimeout, "isolate",
              "worker killed after exceeding its wall-clock budget of " +
                  std::to_string(Opts.ChildTimeoutMs) + " ms");
        } else if (SR->Signal != 0) {
          ErrorCode Code = classifyChildSignal(SR->Signal);
          std::string Msg = "worker died on signal " +
                            std::to_string(SR->Signal) + " (" +
                            signalName(SR->Signal) + ")";
          if (Code == ErrorCode::ChildCrashed) {
            ++Iso.Crashes;
            ++NumChildCrashes;
          } else if (Code == ErrorCode::ChildTimeout) {
            ++Iso.Timeouts;
            ++NumChildTimeouts;
            Msg += " [CPU rlimit]";
          } else {
            ++NumChildKills;
            Retryable = true;
          }
          RungDiag = Status::error(Code, "isolate", std::move(Msg));
        } else {
          // Child exited on its own; a valid result document is the
          // only acceptable outcome, exit status notwithstanding.
          json::Value Doc;
          std::string Error;
          Expected<GuardedResult> Decoded =
              json::parse(SR->Stdout, Doc, Error)
                  ? decodeWorkerResult(Doc)
                  : Expected<GuardedResult>(Status::error(
                        ErrorCode::Internal, "isolate",
                        "worker wrote no parsable result document (" +
                            Error + ")"));
          if (Decoded) {
            Child = Decoded.take();
            GotResult = true;
            // Protocol v2: fold the child's counters, histograms, and
            // (when recording) trace events into this process as if the
            // compile had run here. Keep the raw block too — it rides
            // into the journal so a resumed run can re-merge it.
            if (const json::Value *Tel = Doc.find("telemetry")) {
              telemetry::mergeSnapshot(*Tel, SpawnStartNs);
              Out.ChildTelemetry.push_back(*Tel);
            }
          } else {
            ++NumWorkerProtocolErrors;
            RungDiag = Decoded.status();
            if (SR->ExitCode != 0)
              RungDiag.addContext("worker exit code " +
                                  std::to_string(SR->ExitCode));
          }
        }
      }
      if (GotResult || !Retryable || Attempt >= Opts.MaxRetries)
        break;
    }

    Out.Outcome.Used = RungName;
    Out.Outcome.Rung = RungIdx;
    if (GotResult) {
      if (Child.Result.Success) {
        Out.Outcome.Degraded = RungIdx != 0;
        if (Out.Outcome.Degraded)
          ++NumDegradedFunctions;
        Out.Result = std::move(Child.Result);
        return Out;
      }
      // Clean child, failed compile: the child's diagnostic already
      // carries its rung and function context. Same fatal classes as
      // the in-process ladder.
      bool Fatal = Child.Result.Diag.code() == ErrorCode::DeadlineExceeded ||
                   Child.Result.Diag.code() == ErrorCode::ResourceExhausted;
      Out.Outcome.FailedAttempts.push_back({RungName, Child.Result.Diag});
      Out.Result = std::move(Child.Result);
      if (Fatal)
        break;
      continue;
    }

    RungDiag.addContext("rung " + RungName);
    RungDiag.addContext(FnFrame);
    Out.Outcome.FailedAttempts.push_back({RungName, RungDiag});
    failResult(Out.Result, RungDiag);
    // A hung child would hang again from the same input; crashes and
    // kills may be rung-specific, so those walk on down the ladder.
    if (Out.Result.Diag.code() == ErrorCode::ChildTimeout)
      break;
  }
  ++NumFailedFunctions;
  return Out;
}

namespace {

/// The --progress stderr line. Purely cosmetic: it reads the finished
/// slots and the cache tallies, never influences them, and is rate
/// limited so a fast batch doesn't drown stderr. On a terminal the line
/// redraws in place (CR + clear-to-EOL); piped stderr gets occasional
/// whole lines instead so logs stay readable.
class ProgressMeter {
public:
  ProgressMeter(bool Enabled, size_t Total, const CompilationCache *Cache)
      : Enabled(Enabled && Total > 0), Total(Total), Cache(Cache),
        IsTty(::isatty(STDERR_FILENO) != 0),
        StartNs(telemetry::monotonicNowNs()),
        LastEmitNs(0) {}

  void tick(const PipelineResult &P, const CompileOutcome &O) {
    if (!Enabled)
      return;
    Done.fetch_add(1, std::memory_order_relaxed);
    if (!P.Success)
      Failed.fetch_add(1, std::memory_order_relaxed);
    if (O.Degraded)
      Degraded.fetch_add(1, std::memory_order_relaxed);
    if (O.Isolation.Crashes != 0)
      Crashed.fetch_add(O.Isolation.Crashes, std::memory_order_relaxed);
    maybeEmit(/*Final=*/false);
  }

  void finish() {
    if (Enabled)
      maybeEmit(/*Final=*/true);
  }

private:
  void maybeEmit(bool Final) {
    uint64_t Now = telemetry::monotonicNowNs();
    if (!Final) {
      uint64_t Interval = IsTty ? 100'000'000ull : 1'000'000'000ull;
      uint64_t Last = LastEmitNs.load(std::memory_order_relaxed);
      if (Now - Last < Interval ||
          !LastEmitNs.compare_exchange_strong(Last, Now,
                                              std::memory_order_relaxed))
        return;
    }
    std::lock_guard<std::mutex> Lock(EmitMutex);
    ProgressSnapshot S;
    S.Done = Done.load(std::memory_order_relaxed);
    S.Total = Total;
    S.Failed = Failed.load(std::memory_order_relaxed);
    S.Degraded = Degraded.load(std::memory_order_relaxed);
    S.Crashed = Crashed.load(std::memory_order_relaxed);
    if (Cache != nullptr) {
      CompilationCache::Stats CS = Cache->stats();
      S.HasCache = true;
      S.CacheHits = CS.MemoryHits + CS.DiskHits;
      S.CacheLookups = S.CacheHits + CS.Misses;
    }
    S.ElapsedS = static_cast<double>(Now - StartNs) / 1e9;
    std::string Line = formatProgressLine(S);
    if (IsTty) {
      // Redraw in place; the final emission commits the line.
      std::fputs(("\r" + Line + "\x1b[K").c_str(), stderr);
      if (Final)
        std::fputc('\n', stderr);
    } else {
      std::fputs((Line + "\n").c_str(), stderr);
    }
    std::fflush(stderr);
  }

  bool Enabled;
  size_t Total;
  const CompilationCache *Cache;
  bool IsTty;
  uint64_t StartNs;
  std::atomic<uint64_t> LastEmitNs;
  std::atomic<uint64_t> Done{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> Degraded{0};
  std::atomic<uint64_t> Crashed{0};
  std::mutex EmitMutex;
};

} // namespace

std::string pira::formatProgressLine(const ProgressSnapshot &S) {
  std::string Line = "pirac: " + std::to_string(S.Done) + "/" +
                     std::to_string(S.Total) + " done";
  Line += ", " + std::to_string(S.Failed) + " failed";
  Line += ", " + std::to_string(S.Degraded) + " degraded";
  Line += ", " + std::to_string(S.Crashed) + " crashed";
  if (S.HasCache && S.CacheLookups != 0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.1f",
                  100.0 * static_cast<double>(S.CacheHits) /
                      static_cast<double>(S.CacheLookups));
    Line += std::string(" | cache ") + Buf + "%";
  }
  // Both divisions below need Done > 0 and a positive elapsed time; the
  // first tick of a fast batch can land at elapsed == 0 (clock
  // granularity), where a rate would print "inf" and the ETA "nan".
  if (S.Done != 0 && S.ElapsedS > 0.0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.1f",
                  static_cast<double>(S.Done) / S.ElapsedS);
    Line += std::string(" | ") + Buf + "/s";
    if (S.Done < S.Total) {
      double Eta = S.ElapsedS / static_cast<double>(S.Done) *
                   static_cast<double>(S.Total - S.Done);
      std::snprintf(Buf, sizeof(Buf), "%.1f", Eta);
      Line += std::string(" | eta ") + Buf + "s";
    }
  }
  return Line;
}

/// Recomputes every aggregate field of \p R (Succeeded, Failed,
/// Degraded, isolation tallies, the Total* sums) from Results and
/// Outcomes, walking them in input order.
static void finalizeBatchAggregates(BatchResult &R) {
  R.Succeeded = R.Failed = R.Degraded = 0;
  R.Isolated = R.Crashes = R.Timeouts = R.Retries = R.Resumed = 0;
  R.TotalRegistersUsed = R.TotalSpilledWebs = R.TotalSpillInstructions = 0;
  R.TotalFalseDeps = R.TotalStaticCycles = 0;
  R.TotalDynCycles = R.TotalDynInstructions = 0;
  for (size_t I = 0; I != R.Results.size(); ++I) {
    const PipelineResult &P = R.Results[I];
    const IsolationOutcome &Iso = R.Outcomes[I].Isolation;
    if (Iso.Isolated)
      ++R.Isolated;
    R.Crashes += Iso.Crashes;
    R.Timeouts += Iso.Timeouts;
    R.Retries += Iso.Retries;
    if (R.Outcomes[I].Resumed)
      ++R.Resumed;
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
  // serial path's per-item event paths but not the pool workers', and
  // the trace contract is that the event set does not depend on the
  // worker count.
  uint64_t BatchStartNs = telemetry::monotonicNowNs();
  ++NumBatchesCompiled;
  NumBatchItemsCompiled += Batch.size();

  BatchResult R;
  R.Results.resize(Batch.size());
  R.Outcomes.resize(Batch.size());

  // Isolation needs the printed machine description in every job
  // document; print it once, outside the workers.
  bool UseIsolation = Opts.Isolate && !Opts.WorkerExe.empty();
  std::string MachineText =
      UseIsolation ? machineModelToString(Machine) : std::string();

  unsigned Jobs = Opts.Jobs == 0 ? ThreadPool::defaultJobCount() : Opts.Jobs;
  Jobs = std::max(1u, Jobs);

  // Compiles item \p I in process or in a sandboxed child.
  auto Compile = [&](unsigned I) {
    telemetry::HistTimer Latency(CompileFunctionLatency);
    return UseIsolation
               ? compileFunctionIsolated(Batch[I].Input, MachineText, Opts)
               : compileFunctionGuarded(Batch[I].Input, Machine, Opts);
  };

  // Lands a finished item: journals it (when journaling), then moves it
  // into its slots. The journal write happens before the slots are
  // filled so a crash between the two re-runs the function rather than
  // losing it.
  auto Land = [&](unsigned I, GuardedResult G) {
    if (Opts.Journal != nullptr) {
      json::Value Iso;
      bool HasIso = G.Outcome.Isolation.Isolated;
      if (HasIso)
        Iso = isolationToJson(G.Outcome.Isolation);
      json::Value Doc = encodeWorkerResult(G);
      // Journal the children's telemetry blocks alongside the result so
      // a resumed run re-merges the counters/histograms this run did.
      if (!G.ChildTelemetry.empty()) {
        json::Value Tels = json::Value::array();
        for (json::Value &Tel : G.ChildTelemetry)
          Tels.push(std::move(Tel));
        Doc.set("telemetry_list", std::move(Tels));
      }
      // Append failures are tallied inside the journal (the driver
      // surfaces them as an exit-code-3 condition); the batch itself
      // keeps going — a broken journal must not break the compile.
      (void)Opts.Journal->append(I, Batch[I].Name, std::move(Doc),
                                 HasIso ? &Iso : nullptr);
    }
    R.Results[I] = std::move(G.Result);
    R.Outcomes[I] = std::move(G.Outcome);
  };

  auto CompileOne = [&](unsigned I) {
    // Each slot is written by exactly one worker; the MachineModel and
    // the inputs are read-only. runStrategy copies the function, so the
    // item itself is never mutated. The fault key is the input position,
    // so injected faults hit the same functions for any worker count.
    faultinject::ScopedKey Key(I);

    // Journal replay precedes everything: a position that finished in a
    // previous run is never recompiled (and never re-appended). The
    // decoded record restores result, ladder, and isolation fields, so
    // reports stay byte-identical modulo timers and counters.
    if (Opts.Journal != nullptr && Opts.Journal->has(I)) {
      const json::Value *Stored = Opts.Journal->resultFor(I);
      Expected<GuardedResult> Replayed = decodeWorkerResult(*Stored);
      if (Replayed) {
        GuardedResult G = Replayed.take();
        G.Outcome.Resumed = true;
        // A journaled isolated record carries its children's telemetry
        // blocks; replaying them restores the counters and histograms
        // the original run merged, so a resumed run's registries match
        // an uninterrupted one's.
        if (const json::Value *Tels = Stored->find("telemetry_list");
            Tels != nullptr && Tels->isArray())
          for (const json::Value &Tel : Tels->elements())
            telemetry::mergeSnapshot(Tel, telemetry::monotonicNowNs());
        if (const json::Value *Iso = Opts.Journal->isolationFor(I))
          isolationFromJson(*Iso, G.Outcome.Isolation);
        R.Results[I] = std::move(G.Result);
        R.Outcomes[I] = std::move(G.Outcome);
        return;
      }
      // An undecodable record (a journal from a newer build, say) is
      // not fatal: recompile the function and keep going.
      ++NumJournalCorruptReplays;
    }

    // Cache lookup precedes the compile guard: a hit stands in for the
    // entire guarded compile (it was inserted by one, and only clean
    // non-degraded successes ever are). The key must be computed under
    // the scoped fault key — armed faults are part of it.
    CompilationCache *Cache = Opts.Cache;
    std::string CacheKey;
    if (Cache != nullptr && Cache->mode() != CacheMode::Off) {
      CacheKey = computeCacheKey(Batch[I].Input, Machine, Opts);
      std::string CachedSerialized;
      std::optional<PipelineResult> Hit =
          Cache->lookup(CacheKey, &CachedSerialized);
      if (Hit) {
        if (Cache->mode() == CacheMode::On) {
          GuardedResult G;
          G.Result = std::move(*Hit);
          G.Outcome.Requested = strategyName(Opts.Strategy);
          G.Outcome.Used = G.Outcome.Requested;
          Land(I, std::move(G));
          return;
        }
        // Verify mode: recompile anyway and hold the entry to byte
        // identity. The fresh result wins either way, so a poisoned
        // cache can flag but never corrupt a verify run.
        GuardedResult G = Compile(I);
        bool Matches =
            G.Result.Success && !G.Outcome.Degraded &&
            encodeCacheEntry(G.Result, CacheKey).toString(-1) ==
                CachedSerialized;
        if (!Matches)
          Cache->noteVerifyMismatch();
        Land(I, std::move(G));
        return;
      }
    }

    GuardedResult G = Compile(I);
    // Never cache degraded or failed functions: they must re-walk the
    // ladder (and re-surface their diagnostics) on every run.
    if (!CacheKey.empty() && G.Result.Success && !G.Outcome.Degraded)
      Cache->insert(CacheKey, G.Result);
    Land(I, std::move(G));
  };

  ProgressMeter Progress(Opts.Progress, Batch.size(), Opts.Cache);
  // Slot I is fully written when CompileOne(I) returns, so the meter may
  // read its own item's result without racing other workers.
  auto CompileOneTicked = [&](unsigned I) {
    CompileOne(I);
    Progress.tick(R.Results[I], R.Outcomes[I]);
  };

  if (Jobs == 1 || Batch.size() <= 1) {
    // Serial reference path: no pool, same observable results.
    R.JobsUsed = 1;
    for (unsigned I = 0, E = static_cast<unsigned>(Batch.size()); I != E; ++I)
      CompileOneTicked(I);
  } else {
    ThreadPool Pool(Jobs);
    R.JobsUsed = Pool.numWorkers();
    Pool.parallelFor(static_cast<unsigned>(Batch.size()), CompileOneTicked);
  }
  Progress.finish();

  if (telemetry::enabled()) {
    telemetry::TimedEvent Span;
    Span.Path = "batch/compile";
    Span.Label = "batch/compile";
    Span.StartNs = BatchStartNs;
    Span.DurationNs = telemetry::monotonicNowNs() - BatchStartNs;
    Span.ThreadId = 0; // compileBatch runs on the driver's main thread
    Span.Depth = 0;
    Span.Pid = telemetry::processId();
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
    const std::vector<BatchFailure> &InputFailures,
    const CompilationCache *Cache) {
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
    // Schema v4: the child-process record, for isolated functions only.
    // Resumed-ness is deliberately absent (see CompileOutcome::Resumed).
    if (HaveOutcomes && R.Outcomes[I].Isolation.Isolated)
      One.set("isolation", isolationToJson(R.Outcomes[I].Isolation));
    Functions.push(std::move(One));
  }
  Root.set("functions", std::move(Functions));

  json::Value Agg = json::Value::object();
  Agg.set("items", static_cast<uint64_t>(R.Results.size()));
  Agg.set("succeeded", R.Succeeded);
  Agg.set("failed", R.Failed + static_cast<unsigned>(InputFailures.size()));
  Agg.set("degraded", R.Degraded);
  // Schema v4 isolation tallies. All deterministic — the resumed count
  // is not among them (counters-only), so a resumed run's report is
  // byte-identical to the uninterrupted run's.
  Agg.set("isolated", R.Isolated);
  Agg.set("crashes", R.Crashes);
  Agg.set("timeouts", R.Timeouts);
  Agg.set("retries", R.Retries);
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

  if (Cache != nullptr)
    Root.set("cache", Cache->statsToJson());
  Root.set("counters", countersToJson());
  // The volatile tail: histogram bucket placement and timers carry wall
  // clock. Identity checks neutralize both (histogram *counts* stay
  // comparable; see Report.h).
  Root.set("histograms", histogramsToJson());
  Root.set("timers", timersToJson());
  return Root;
}
