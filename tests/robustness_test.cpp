//===- tests/robustness_test.cpp - Fault-isolation and recovery tests -----===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The failure model under test (DESIGN.md §8): structured diagnostics
// (Status / Expected), the deterministic fault-injection harness,
// parallelFor's exception capture, the cooperative deadline, and the
// degradation ladder that turns phase failures into rescued — or at
// worst cleanly diagnosed — compilations.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Report.h"
#include "pipeline/Strategies.h"
#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/Status.h"
#include "support/Telemetry.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <thread>

using namespace pira;

namespace {

/// Every fault test disarms the harness on the way out so armed sites
/// never leak into the next test (or, worse, the rest of the binary).
class FaultTest : public testing::Test {
protected:
  void TearDown() override { faultinject::reset(); }

  static void arm(const std::string &Spec) {
    std::string Error;
    ASSERT_TRUE(faultinject::configure(Spec, Error)) << Error;
  }
};

/// A tiny well-formed function for guard and ladder tests.
Function smallFunction(const std::string &Name = "t") {
  std::string Text = "func @" + Name + R"( regs 8 {
  array a 4
block entry:
  %s0 = li 1
  %s1 = li 2
  %s2 = add %s0, %s1
  %s3 = fmul %s2, %s1
  store a[0], %s3
  ret %s3
}
)";
  Function F;
  std::string Error;
  EXPECT_TRUE(parseFunction(Text, F, Error)) << Error;
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Status and Expected
//===----------------------------------------------------------------------===//

TEST(StatusTest, DefaultIsSuccess) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Ok);
  EXPECT_EQ(S.toString(), "ok");
  // Context on a success is a no-op, so call sites need not branch.
  S.addContext("function @f");
  EXPECT_TRUE(S.context().empty());
}

TEST(StatusTest, ErrorCarriesCodePhaseMessageAndContext) {
  Status S = Status::error(ErrorCode::AllocFailure, "alloc/chaitin",
                           "did not converge");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::AllocFailure);
  EXPECT_EQ(S.phase(), "alloc/chaitin");
  EXPECT_EQ(S.message(), "did not converge");
  S.addContext("rung combined").addContext("function @dot");
  ASSERT_EQ(S.context().size(), 2u);
  EXPECT_EQ(S.toString(),
            "alloc/chaitin: did not converge [rung combined; function @dot]");
}

TEST(StatusTest, JsonIsMinimalOnSuccessAndFullOnFailure) {
  std::ostringstream Ok;
  Status().toJson().write(Ok, 0);
  EXPECT_NE(Ok.str().find("\"ok\""), std::string::npos);
  EXPECT_EQ(Ok.str().find("phase"), std::string::npos);

  Status S = Status::error(ErrorCode::VerifyError, "verify", "bad block");
  S.addContext("function @f");
  std::ostringstream Bad;
  S.toJson().write(Bad, 0);
  EXPECT_NE(Bad.str().find("\"verify-error\""), std::string::npos);
  EXPECT_NE(Bad.str().find("bad block"), std::string::npos);
  EXPECT_NE(Bad.str().find("function @f"), std::string::npos);
}

TEST(StatusTest, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
  EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhausted),
               "resource-exhausted");
  EXPECT_STREQ(errorCodeName(ErrorCode::DeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(errorCodeName(ErrorCode::FaultInjected), "fault-injected");
}

TEST(ExpectedTest, HoldsValueOrStatus) {
  Expected<int> Good(42);
  ASSERT_TRUE(Good.ok());
  EXPECT_EQ(*Good, 42);
  EXPECT_TRUE(Good.status().ok());

  Expected<int> Bad(Status::error(ErrorCode::InvalidArgument, "opt", "nope"));
  ASSERT_FALSE(Bad.ok());
  EXPECT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.status().code(), ErrorCode::InvalidArgument);

  Expected<std::string> Str(std::string("hello"));
  EXPECT_EQ(Str.take(), "hello");
}

//===----------------------------------------------------------------------===//
// Fault-injection harness
//===----------------------------------------------------------------------===//

TEST_F(FaultTest, SpecParsingAcceptsKnownSitesAndRejectsJunk) {
  std::string Error;
  EXPECT_TRUE(faultinject::configure("alloc.pinter:3", Error)) << Error;
  EXPECT_TRUE(faultinject::enabled());
  EXPECT_TRUE(
      faultinject::configure("strategy.entry:1,sim.measure:7", Error));

  // Rejections leave the previous configuration armed and untouched.
  EXPECT_FALSE(faultinject::configure("bogus.site:1", Error));
  EXPECT_NE(Error.find("bogus.site"), std::string::npos);
  // The network sites went with the compile daemon.
  EXPECT_FALSE(faultinject::configure("net.reset:1", Error));
  EXPECT_NE(Error.find("net.reset"), std::string::npos);
  EXPECT_FALSE(faultinject::configure("alloc.pinter:0", Error));
  EXPECT_FALSE(faultinject::configure("alloc.pinter", Error));
  EXPECT_FALSE(faultinject::configure("alloc.pinter:x", Error));
  // Counts past 2^64 - 1 are refused, never wrapped (2^64 would wrap to
  // 0 and 2^64 + 1 to 1).
  for (const char *Spec : {"alloc.pinter:18446744073709551616",
                           "alloc.pinter:18446744073709551617"}) {
    EXPECT_FALSE(faultinject::configure(Spec, Error)) << Spec;
    EXPECT_NE(Error.find("bad fault count"), std::string::npos)
        << Spec << ": " << Error;
  }
  EXPECT_TRUE(faultinject::enabled());
  EXPECT_TRUE(faultinject::shouldFire("strategy.entry"));
  // The largest count is accepted.
  EXPECT_TRUE(faultinject::configure("alloc.pinter:18446744073709551615",
                                     Error))
      << Error;

  // An empty spec and reset() both disarm.
  EXPECT_TRUE(faultinject::configure("", Error));
  EXPECT_FALSE(faultinject::enabled());
  faultinject::reset();
  EXPECT_FALSE(faultinject::shouldFire("strategy.entry"));
}

TEST_F(FaultTest, EverySiteInTheTableIsConfigurable) {
  const std::vector<const char *> &Sites = faultinject::knownSites();
  EXPECT_EQ(Sites.size(), 10u);
  std::string Error;
  for (const char *Site : Sites)
    EXPECT_TRUE(faultinject::configure(std::string(Site) + ":2", Error))
        << Site << ": " << Error;
  // The process-killing sites went with process isolation.
  EXPECT_FALSE(faultinject::configure("crash.segv:1", Error));
  EXPECT_NE(Error.find("crash.segv"), std::string::npos);
}

TEST_F(FaultTest, FiringIsAPureFunctionOfTheKey) {
  arm("strategy.entry:3");
  // The default key is 0 — a multiple of everything, so it fires.
  EXPECT_EQ(faultinject::currentKey(), 0u);
  EXPECT_TRUE(faultinject::shouldFire("strategy.entry"));
  EXPECT_FALSE(faultinject::shouldFire("alloc.pinter")) << "unarmed site";

  for (uint64_t Key = 0; Key != 12; ++Key) {
    faultinject::ScopedKey Scoped(Key);
    EXPECT_EQ(faultinject::currentKey(), Key);
    EXPECT_EQ(faultinject::shouldFire("strategy.entry"), Key % 3 == 0)
        << "key " << Key;
    // Pure: asking twice changes nothing.
    EXPECT_EQ(faultinject::shouldFire("strategy.entry"), Key % 3 == 0);
  }
  EXPECT_EQ(faultinject::currentKey(), 0u) << "ScopedKey must restore";
}

TEST_F(FaultTest, MaybeThrowCarriesTheSiteName) {
  arm("sched.final:1");
  try {
    faultinject::maybeThrow("sched.final");
    FAIL() << "expected FaultInjectedError";
  } catch (const faultinject::FaultInjectedError &E) {
    EXPECT_EQ(E.site(), "sched.final");
    EXPECT_NE(std::string(E.what()).find("sched.final"), std::string::npos);
  }
  EXPECT_NO_THROW(faultinject::maybeThrow("sim.measure"));
}

//===----------------------------------------------------------------------===//
// Strategy hardening (the assert-free paths)
//===----------------------------------------------------------------------===//

TEST(StrategyRobustness, NamesRoundTripAndRejectJunk) {
  for (StrategyKind K :
       {StrategyKind::AllocFirst, StrategyKind::SchedFirst,
        StrategyKind::IntegratedPrepass, StrategyKind::Combined,
        StrategyKind::SpillAll}) {
    Expected<StrategyKind> Back = strategyFromName(strategyName(K));
    ASSERT_TRUE(Back.ok()) << strategyName(K);
    EXPECT_EQ(*Back, K);
  }
  EXPECT_EQ(*strategyFromName("ips"), StrategyKind::IntegratedPrepass);

  Expected<StrategyKind> Bad = strategyFromName("optimal");
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(Bad.status().message().find("optimal"), std::string::npos);
}

TEST(StrategyRobustness, OutOfRangeKindNamesUnknownInsteadOfUB) {
  // Exercised in every build type: the old assert(false) compiled to
  // undefined behaviour under NDEBUG.
  EXPECT_STREQ(strategyName(static_cast<StrategyKind>(999)), "unknown");
}

TEST(StrategyRobustness, AllocatedInputIsAStructuredErrorNotAnAssert) {
  Function F = smallFunction();
  MachineModel M = MachineModel::rs6000();
  PipelineResult First = runStrategy(StrategyKind::AllocFirst, F, M);
  ASSERT_TRUE(First.Success) << First.Error;
  ASSERT_TRUE(First.Final.isAllocated());

  PipelineResult Again = runStrategy(StrategyKind::AllocFirst, First.Final, M);
  EXPECT_FALSE(Again.Success);
  EXPECT_EQ(Again.Diag.code(), ErrorCode::InvalidArgument);
  EXPECT_NE(Again.Error.find("allocated"), std::string::npos);
}

TEST(StrategyRobustness, UnknownKindIsAStructuredError) {
  Function F = smallFunction();
  PipelineResult R = runStrategy(static_cast<StrategyKind>(999), F,
                                 MachineModel::rs6000());
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.Diag.code(), ErrorCode::InvalidArgument);
}

TEST(StrategyRobustness, SpillAllBaselinePreservesSemanticsEverywhere) {
  MachineModel M = MachineModel::rs6000(8);
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult R = runAndMeasure(StrategyKind::SpillAll, Kernel, M);
    ASSERT_TRUE(R.Success) << Name << ": " << R.Error;
    EXPECT_TRUE(R.SemanticsPreserved) << Name;
    EXPECT_GT(R.SpilledWebs, 0u) << Name << ": baseline must spill";
  }
}

//===----------------------------------------------------------------------===//
// parallelFor's exception capture and the cooperative deadline
//===----------------------------------------------------------------------===//

namespace {

/// The NumDroppedTaskExceptions counter's current value.
uint64_t droppedTaskExceptions() {
  for (const telemetry::Counter *C : telemetry::counters())
    if (std::string("NumDroppedTaskExceptions") == C->name())
      return C->value();
  ADD_FAILURE() << "no NumDroppedTaskExceptions counter";
  return 0;
}

} // namespace

TEST(ThreadPoolRobustness, ParallelForRunsEveryIterationDespiteAThrow) {
  // One index throws, then every index throws: either way each index
  // runs exactly once, and the first exception reaches the caller.
  for (unsigned Jobs : {1u, 4u}) // inline and threaded paths
    for (bool AllThrow : {false, true}) {
      std::vector<std::atomic<unsigned>> Runs(64);
      std::string Caught;
      try {
        parallelFor(64, Jobs, [&](unsigned I) {
          ++Runs[I];
          if (AllThrow || I == 5)
            throw std::runtime_error("iter " + std::to_string(I));
        });
      } catch (const std::runtime_error &E) {
        Caught = E.what();
      }
      for (unsigned I = 0; I != 64; ++I)
        EXPECT_EQ(Runs[I].load(), 1u)
            << "index " << I << ", " << Jobs << " jobs, all throw "
            << AllThrow;
      // Inline, the first exception is the lowest index's; threaded, it
      // is whichever was caught first.
      if (!AllThrow || Jobs == 1)
        EXPECT_EQ(Caught, AllThrow ? "iter 0" : "iter 5") << Jobs << " jobs";
      else
        EXPECT_EQ(Caught.rfind("iter ", 0), 0u) << Caught;
    }
}

TEST(ThreadPoolRobustness, SecondaryExceptionsAreCountedNotSilent) {
  // Only the first exception survives to the rethrow; parallelFor drops
  // the rest by design, but each drop must leave a telemetry trace — a
  // silently vanishing diagnostic is the one thing the failure model
  // forbids.
  for (unsigned Jobs : {1u, 4u}) {
    uint64_t Before = droppedTaskExceptions();
    EXPECT_THROW(parallelFor(64, Jobs,
                             [](unsigned) {
                               throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    EXPECT_EQ(droppedTaskExceptions() - Before, 63u)
        << "64 throws, one captured, " << Jobs << " jobs";
  }
}

TEST(DeadlineTest, NothingArmedNeverExpires) {
  EXPECT_FALSE(deadline::expired());
  EXPECT_NO_THROW(deadline::checkpoint());
  {
    deadline::ScopedDeadline Unarmed(0); // 0 arms nothing
    EXPECT_FALSE(deadline::expired());
  }
  // A budget past the clock's range saturates to "never"; it must not
  // overflow into a deadline that has already passed.
  deadline::ScopedDeadline Endless(UINT64_MAX);
  EXPECT_FALSE(deadline::expired());
  EXPECT_NO_THROW(deadline::checkpoint());
}

TEST(DeadlineTest, ExpiryFlipsExpiredAndCheckpointThrows) {
  deadline::ScopedDeadline Short(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(deadline::expired());
  EXPECT_THROW(deadline::checkpoint(), deadline::DeadlineExceededError);
}

TEST(DeadlineTest, TheInnermostArmedDeadlineRulesAndTheOuterOneReturns) {
  deadline::ScopedDeadline Outer(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(deadline::expired());
  {
    deadline::ScopedDeadline Endless(UINT64_MAX);
    EXPECT_FALSE(deadline::expired()) << "the inner deadline rules";
    {
      deadline::ScopedDeadline Unarmed(0);
      EXPECT_FALSE(deadline::expired()) << "0 arms nothing";
    }
    EXPECT_FALSE(deadline::expired());
  }
  {
    deadline::ScopedDeadline Unarmed(0);
    EXPECT_TRUE(deadline::expired()) << "0 leaves the outer deadline armed";
  }
  EXPECT_TRUE(deadline::expired()) << "the outer deadline is back";
  EXPECT_THROW(deadline::checkpoint(), deadline::DeadlineExceededError);
}

TEST(DeadlineTest, ADeadlineIsInvisibleToOtherThreads) {
  // Armed elsewhere and passed there, not here.
  std::promise<void> Passed, Checked;
  bool ExpiredThere = false;
  std::thread Other([&] {
    deadline::ScopedDeadline Own(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ExpiredThere = deadline::expired();
    Passed.set_value();
    Checked.get_future().wait();
  });
  Passed.get_future().wait();
  EXPECT_FALSE(deadline::expired());
  Checked.set_value();
  Other.join();
  EXPECT_TRUE(ExpiredThere);

  // Armed here and passed, not seen by a new thread.
  deadline::ScopedDeadline Own(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(deadline::expired());
  bool ExpiredElsewhere = true;
  std::thread([&] { ExpiredElsewhere = deadline::expired(); }).join();
  EXPECT_FALSE(ExpiredElsewhere);
}

TEST(ThreadPoolRobustness, ParallelForCountsTheThreadsThatRan) {
  // The caller plus min(Jobs, N - 1) threads; one inline.
  auto Threads = [](unsigned N, unsigned Jobs) {
    std::vector<std::atomic<unsigned>> Runs(N);
    unsigned Used = parallelFor(N, Jobs, [&](unsigned I) { ++Runs[I]; });
    for (unsigned I = 0; I != N; ++I)
      EXPECT_EQ(Runs[I].load(), 1u) << "index " << I;
    return Used;
  };
  EXPECT_EQ(Threads(0, 4), 1u);
  EXPECT_EQ(Threads(1, 4), 1u);
  EXPECT_EQ(Threads(3, 1), 1u);
  EXPECT_EQ(Threads(3, 2), 3u);
  EXPECT_EQ(Threads(3, 256), 3u);
  EXPECT_EQ(Threads(64, 4), 5u);
}

TEST(DeadlineTest, WatchdogCancelsACooperativeTaskInThePool) {
  std::atomic<bool> OtherRan{false};
  EXPECT_THROW(parallelFor(2, 2,
                           [&OtherRan](unsigned I) {
                             if (I == 0) {
                               OtherRan = true;
                               return;
                             }
                             deadline::ScopedDeadline Deadline(5);
                             // A cooperative loop: nothing kills the
                             // thread, the iteration unwinds itself at the
                             // next checkpoint after expiry.
                             for (unsigned J = 0; J != 100000; ++J) {
                               deadline::checkpoint();
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(1));
                             }
                           }),
               deadline::DeadlineExceededError);
  EXPECT_TRUE(OtherRan.load());
}

//===----------------------------------------------------------------------===//
// The degradation ladder
//===----------------------------------------------------------------------===//

namespace {

GuardedResult guarded(const Function &F, const BatchOptions &Opts) {
  return compileFunctionGuarded(F, MachineModel::rs6000(), Opts);
}

} // namespace

TEST_F(FaultTest, LadderRescuesPinterFailureWithChaitin) {
  arm("alloc.pinter:1");
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  GuardedResult G = guarded(smallFunction(), Opts);
  ASSERT_TRUE(G.Result.Success) << G.Result.Error;
  EXPECT_TRUE(G.Result.SemanticsPreserved);
  EXPECT_TRUE(G.Outcome.Degraded);
  EXPECT_EQ(G.Outcome.Requested, "combined");
  EXPECT_EQ(G.Outcome.Used, "alloc-first");
  EXPECT_EQ(G.Outcome.Rung, 1u);
  ASSERT_EQ(G.Outcome.FailedAttempts.size(), 1u);
  EXPECT_EQ(G.Outcome.FailedAttempts[0].Rung, "combined");
  EXPECT_EQ(G.Outcome.FailedAttempts[0].Diag.code(),
            ErrorCode::FaultInjected);
}

TEST_F(FaultTest, LadderFallsAllTheWayToSpillAll) {
  arm("alloc.pinter:1,alloc.chaitin:1");
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  GuardedResult G = guarded(smallFunction(), Opts);
  ASSERT_TRUE(G.Result.Success) << G.Result.Error;
  EXPECT_TRUE(G.Result.SemanticsPreserved);
  EXPECT_EQ(G.Outcome.Used, "spill-all");
  EXPECT_EQ(G.Outcome.Rung, 2u);
  EXPECT_EQ(G.Outcome.FailedAttempts.size(), 2u);
}

TEST_F(FaultTest, ExhaustedLadderReportsEveryAttempt) {
  arm("alloc.pinter:1,alloc.chaitin:1,alloc.spillall:1");
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  GuardedResult G = guarded(smallFunction(), Opts);
  EXPECT_FALSE(G.Result.Success);
  EXPECT_FALSE(G.Outcome.Degraded);
  ASSERT_EQ(G.Outcome.FailedAttempts.size(), 3u);
  EXPECT_EQ(G.Outcome.FailedAttempts[2].Rung, "spill-all");
  // The surviving diagnostic names the rung and the function.
  const std::vector<std::string> &Ctx = G.Result.Diag.context();
  ASSERT_EQ(Ctx.size(), 2u);
  EXPECT_EQ(Ctx[0], "rung spill-all");
  EXPECT_EQ(Ctx[1], "function @t");
}

TEST_F(FaultTest, DegradationCanBeTurnedOff) {
  arm("alloc.pinter:1");
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  Opts.Degrade = false;
  GuardedResult G = guarded(smallFunction(), Opts);
  EXPECT_FALSE(G.Result.Success);
  EXPECT_EQ(G.Outcome.FailedAttempts.size(), 1u);
}

TEST(LadderTest, BudgetRejectionSkipsTheLadderEntirely) {
  BatchOptions Opts;
  Opts.Budget.MaxInstructions = 2;
  GuardedResult G = guarded(smallFunction(), Opts);
  EXPECT_FALSE(G.Result.Success);
  EXPECT_EQ(G.Result.Diag.code(), ErrorCode::ResourceExhausted);
  EXPECT_NE(G.Result.Diag.message().find("exceed"), std::string::npos);
  EXPECT_TRUE(G.Outcome.FailedAttempts.empty())
      << "no compile attempt may run on a rejected input";
  EXPECT_TRUE(G.Outcome.Used.empty());

  Opts.Budget.MaxInstructions = 0;
  Opts.Budget.MaxBlocks = 1; // smallFunction has one block, so it fits
  GuardedResult Ok = guarded(smallFunction(), Opts);
  EXPECT_TRUE(Ok.Result.Success) << Ok.Result.Error;
}

TEST_F(FaultTest, InjectedDeadlineStopsTheLadder) {
  arm("budget.deadline:1");
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  GuardedResult G = guarded(smallFunction(), Opts);
  EXPECT_FALSE(G.Result.Success);
  EXPECT_EQ(G.Result.Diag.code(), ErrorCode::DeadlineExceeded);
  // A blown deadline would blow again on a retry from the same input:
  // the ladder must stop after the first attempt.
  EXPECT_EQ(G.Outcome.FailedAttempts.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Batch isolation and fault-injected determinism
//===----------------------------------------------------------------------===//

namespace {

std::vector<BatchItem> makeFaultBatch(unsigned N) {
  std::vector<BatchItem> Batch;
  for (unsigned I = 0; I != N; ++I) {
    std::string Name = "f" + std::to_string(I);
    Batch.push_back({Name + ".pir", smallFunction(Name)});
  }
  return Batch;
}

/// Mirror of property_test's fingerprint, for fault-injected batches:
/// the full stats report with the wall-clock timers neutralized.
std::string faultBatchFingerprint(const std::vector<BatchItem> &Batch,
                                  unsigned Jobs) {
  telemetry::reset();
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  Opts.Jobs = Jobs;
  BatchResult BR = compileBatch(Batch, M, Opts);
  json::Value Report = makeBatchStatsReport(BR, Batch, "combined", M);
  Report.set("timers", json::Value::array());
  Report.set("histograms", json::Value::object());
  std::ostringstream OS;
  Report.write(OS, 0);
  return OS.str();
}

/// The trace side of the same contract: every recorded event path plus
/// every histogram's sample count, order-normalized. Timestamps,
/// durations and bucket placement are the wall-clock tail and stay out.
std::string faultBatchTraceFingerprint(const std::vector<BatchItem> &Batch,
                                       unsigned Jobs) {
  telemetry::reset();
  telemetry::setEnabled(true);
  BatchOptions Opts;
  Opts.Jobs = Jobs;
  compileBatch(Batch, MachineModel::rs6000(), Opts);
  telemetry::setEnabled(false);
  std::vector<std::string> Paths;
  for (const telemetry::TimedEvent &E : telemetry::events())
    Paths.push_back(E.Path);
  std::sort(Paths.begin(), Paths.end());
  std::ostringstream OS;
  for (const std::string &P : Paths)
    OS << P << '\n';
  for (const telemetry::Histogram *H : telemetry::histograms())
    OS << H->name() << '=' << H->count() << '\n';
  return OS.str();
}

} // namespace

TEST_F(FaultTest, OneFaultedFunctionNeverStopsTheBatch) {
  arm("strategy.entry:4");
  std::vector<BatchItem> Batch = makeFaultBatch(10);
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  Opts.Jobs = 4;
  BatchResult BR = compileBatch(Batch, MachineModel::rs6000(), Opts);
  ASSERT_EQ(BR.Results.size(), 10u);
  for (unsigned I = 0; I != 10; ++I) {
    bool ShouldFail = I % 4 == 0; // strategy.entry throws on every rung
    EXPECT_EQ(BR.Results[I].Success, !ShouldFail) << "item " << I;
    if (ShouldFail)
      EXPECT_EQ(BR.Results[I].Diag.code(), ErrorCode::FaultInjected)
          << "item " << I;
    else
      EXPECT_TRUE(BR.Results[I].SemanticsPreserved) << "item " << I;
  }
  EXPECT_EQ(BR.Failed, 3u);
  EXPECT_EQ(BR.Succeeded, 7u);
}

TEST_F(FaultTest, DegradationsAreKeyedToInputPositions) {
  arm("alloc.pinter:3");
  std::vector<BatchItem> Batch = makeFaultBatch(10);
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  Opts.Jobs = 4;
  BatchResult BR = compileBatch(Batch, MachineModel::rs6000(), Opts);
  ASSERT_EQ(BR.Outcomes.size(), 10u);
  for (unsigned I = 0; I != 10; ++I) {
    EXPECT_TRUE(BR.Results[I].Success) << "item " << I << " must be rescued";
    EXPECT_EQ(BR.Outcomes[I].Degraded, I % 3 == 0) << "item " << I;
  }
  EXPECT_EQ(BR.Degraded, 4u);
  EXPECT_EQ(BR.Failed, 0u);
}

TEST_F(FaultTest, FaultInjectedBatchesStayWorkerCountDeterministic) {
  arm("strategy.entry:5,alloc.pinter:3,sim.measure:7");
  std::vector<BatchItem> Batch = makeFaultBatch(12);
  std::string Serial = faultBatchFingerprint(Batch, 1);
  std::string Two = faultBatchFingerprint(Batch, 2);
  std::string Eight = faultBatchFingerprint(Batch, 8);
  telemetry::reset();
  EXPECT_EQ(Serial, Two) << "2 workers diverged under fault injection";
  EXPECT_EQ(Serial, Eight) << "8 workers diverged under fault injection";
  // The report actually recorded the carnage.
  EXPECT_NE(Serial.find("\"failures\""), std::string::npos);
  EXPECT_NE(Serial.find("\"degradations\""), std::string::npos);
  EXPECT_NE(Serial.find("fault-injected"), std::string::npos);
}

TEST_F(FaultTest, FaultInjectedBatchTraceIsWorkerCountInvariant) {
  arm("strategy.entry:5,alloc.pinter:3");
  std::vector<BatchItem> Batch = makeFaultBatch(8);
  std::string Serial = faultBatchTraceFingerprint(Batch, 1);
  EXPECT_EQ(Serial, faultBatchTraceFingerprint(Batch, 2));
  EXPECT_EQ(Serial, faultBatchTraceFingerprint(Batch, 8));
  telemetry::reset();
  // The fingerprint saw the whole-batch span and every ladder rung: keys
  // 0 and 5 fail all three rungs, 3 and 6 degrade on the second, and the
  // other four take one (6 + 4 + 4).
  EXPECT_NE(Serial.find("batch/compile\n"), std::string::npos);
  EXPECT_NE(Serial.find("LadderRungLatency=14\n"), std::string::npos)
      << Serial;
}

//===----------------------------------------------------------------------===//
// Stats report failure sections
//===----------------------------------------------------------------------===//

TEST_F(FaultTest, ReportCarriesFailuresDegradationsAndInputFailures) {
  arm("strategy.entry:4,alloc.pinter:3");
  std::vector<BatchItem> Batch = makeFaultBatch(8);
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  Opts.Jobs = 1;
  BatchResult BR = compileBatch(Batch, M, Opts);

  std::vector<BatchFailure> InputFailures;
  Status Bad = Status::error(ErrorCode::ParseError, "parse", "line 1: junk");
  Bad.addContext("input bad.pir");
  InputFailures.push_back({"bad.pir", Bad});

  json::Value Report =
      makeBatchStatsReport(BR, Batch, "combined", M, InputFailures);
  std::ostringstream OS;
  Report.write(OS, 0);
  std::string Text = OS.str();

  // Keys 0 and 4 fail outright (strategy.entry); keys 3 and 6 degrade
  // (alloc.pinter); the parse failure joins the failures section.
  EXPECT_NE(Text.find("bad.pir"), std::string::npos);
  EXPECT_NE(Text.find("line 1: junk"), std::string::npos);
  EXPECT_NE(Text.find("\"degradation\""), std::string::npos);
  EXPECT_NE(Text.find("\"ladder\""), std::string::npos);
  const json::Value *Agg = Report.find("batch");
  ASSERT_NE(Agg, nullptr);
  EXPECT_EQ(Agg->find("failed")->asInt(), 3) << "2 compile + 1 input";
  EXPECT_EQ(Agg->find("degraded")->asInt(), 2);
}

namespace {

/// The member names of \p Object, in insertion order.
std::vector<std::string> keysOf(const json::Value &Object) {
  std::vector<std::string> Keys;
  for (const auto &[Key, Value] : Object.members())
    Keys.push_back(Key);
  return Keys;
}

} // namespace

TEST_F(FaultTest, BatchReportHasExactlyTheV6KeySets) {
  // One degraded function, so the optional "degradation" record shows.
  arm("alloc.pinter:3");
  std::vector<BatchItem> Batch = makeFaultBatch(4);
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  Opts.Jobs = 1;
  BatchResult BR = compileBatch(Batch, M, Opts);
  json::Value Report = makeBatchStatsReport(BR, Batch, "combined", M);

  EXPECT_EQ(Report.find("version")->asInt(), 6);
  EXPECT_EQ(keysOf(Report),
            (std::vector<std::string>{
                "schema", "version", "provenance", "strategy", "machine",
                "functions", "batch", "failures", "degradations",
                "counters", "histograms", "timers"}))
      << "no \"cache\" block";
  EXPECT_EQ(keysOf(*Report.find("batch")),
            (std::vector<std::string>{
                "items", "succeeded", "failed", "degraded",
                "max_registers_used", "spilled_webs", "spill_instructions",
                "false_deps", "static_cycles", "dyn_cycles",
                "dyn_instructions"}))
      << "no isolation tallies";
  const json::Value *Functions = Report.find("functions");
  ASSERT_EQ(Functions->elements().size(), 4u);
  for (const json::Value &Fn : Functions->elements()) {
    std::vector<std::string> Want = {"name", "pipeline"};
    if (Fn.has("degradation"))
      Want.push_back("degradation");
    EXPECT_EQ(keysOf(Fn), Want) << "no \"isolation\" record";
  }
  EXPECT_TRUE(Functions->elements()[0].has("degradation"));
}
