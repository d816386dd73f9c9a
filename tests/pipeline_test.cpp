//===- tests/pipeline_test.cpp - Strategy pipeline tests ------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

using namespace pira;

TEST(PipelineTest, StrategyNames) {
  EXPECT_STREQ(strategyName(StrategyKind::AllocFirst), "alloc-first");
  EXPECT_STREQ(strategyName(StrategyKind::SchedFirst), "sched-first");
  EXPECT_STREQ(strategyName(StrategyKind::Combined), "combined");
}

TEST(PipelineTest, AllStrategiesSucceedOnSuiteWithAmpleRegs) {
  MachineModel M = MachineModel::rs6000(10);
  for (auto &[Name, Kernel] : standardKernelSuite())
    for (StrategyKind K : {StrategyKind::AllocFirst,
                           StrategyKind::SchedFirst,
                           StrategyKind::Combined}) {
      PipelineResult R = runAndMeasure(K, Kernel, M);
      EXPECT_TRUE(R.Success)
          << Name << " / " << strategyName(K) << ": " << R.Error;
      EXPECT_TRUE(R.SemanticsPreserved) << Name << " / " << strategyName(K);
      EXPECT_LE(R.RegistersUsed, 10u);
    }
}

TEST(PipelineTest, CombinedHasNoFalseDepsWithoutPressure) {
  // Theorem 1 at pipeline level: whenever Combined spills nothing and
  // drops no parallel edge, the final code carries no false dependence.
  MachineModel M = MachineModel::paperTwoUnit(12);
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult R = runStrategy(StrategyKind::Combined, Kernel, M);
    ASSERT_TRUE(R.Success) << Name;
    if (R.SpilledWebs == 0 && R.ParallelEdgesDropped == 0) {
      EXPECT_EQ(R.FalseDeps, 0u) << Name;
    }
  }
}

TEST(PipelineTest, AllocFirstIntroducesFalseDepsOnExample2Tight) {
  // Chaitin with exactly 3 registers on Example 2 must reuse a register
  // pair that kills parallelism (the paper's motivating claim).
  MachineModel M = MachineModel::paperTwoUnit(3);
  PipelineResult R =
      runStrategy(StrategyKind::AllocFirst, paperExample2(), M);
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.SpilledWebs, 0u) << "Gr is 3-colorable";
  EXPECT_GT(R.FalseDeps + R.AntiOrderingLosses, 0u);
}

TEST(PipelineTest, CombinedNeverSlowerOnExample2) {
  MachineModel M3 = MachineModel::paperTwoUnit(4);
  PipelineResult A =
      runAndMeasure(StrategyKind::AllocFirst, paperExample2(), M3);
  PipelineResult C =
      runAndMeasure(StrategyKind::Combined, paperExample2(), M3);
  ASSERT_TRUE(A.Success);
  ASSERT_TRUE(C.Success);
  EXPECT_LE(C.DynCycles, A.DynCycles);
  EXPECT_EQ(C.FalseDeps, 0u);
}

TEST(PipelineTest, DynamicAndStaticCyclesAgreeOnStraightLine) {
  MachineModel M = MachineModel::rs6000(8);
  PipelineResult R =
      runAndMeasure(StrategyKind::Combined, paperExample2(), M);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.DynCycles, R.StaticCycles);
}

TEST(PipelineTest, TightRegistersForceSpillsSomewhere) {
  MachineModel M = MachineModel::rs6000(3);
  unsigned TotalSpills = 0;
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult R = runAndMeasure(StrategyKind::AllocFirst, Kernel, M);
    ASSERT_TRUE(R.Success) << Name << ": " << R.Error;
    EXPECT_TRUE(R.SemanticsPreserved) << Name;
    TotalSpills += R.SpilledWebs;
  }
  EXPECT_GT(TotalSpills, 0u);
}

TEST(PipelineTest, SchedFirstSpillsAtLeastAsMuchOnPressure) {
  // Pre-pass scheduling stretches live ranges; under tight registers it
  // should never spill less than alloc-first, summed over the suite.
  MachineModel M = MachineModel::rs6000(4);
  unsigned AllocFirstSpills = 0, SchedFirstSpills = 0;
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult A = runStrategy(StrategyKind::AllocFirst, Kernel, M);
    PipelineResult S = runStrategy(StrategyKind::SchedFirst, Kernel, M);
    ASSERT_TRUE(A.Success) << Name;
    ASSERT_TRUE(S.Success) << Name;
    AllocFirstSpills += A.SpilledWebs;
    SchedFirstSpills += S.SpilledWebs;
  }
  EXPECT_GE(SchedFirstSpills, AllocFirstSpills);
}

TEST(PipelineTest, CombinedRespectsMachineRegisterFile) {
  for (unsigned Regs : {4u, 6u, 8u}) {
    MachineModel M = MachineModel::vliw4(Regs);
    PipelineResult R =
        runAndMeasure(StrategyKind::Combined, livermoreHydro(2), M);
    ASSERT_TRUE(R.Success) << "regs=" << Regs << ": " << R.Error;
    EXPECT_LE(R.RegistersUsed, Regs);
    EXPECT_TRUE(R.SemanticsPreserved);
  }
}

TEST(PipelineTest, FailureReportedWhenRegistersAbsurdlyTight) {
  // One register cannot hold two live operands of a binary op chain.
  MachineModel M = MachineModel::rs6000(1);
  PipelineResult R =
      runStrategy(StrategyKind::AllocFirst, paperExample2(), M);
  EXPECT_FALSE(R.Success);
  EXPECT_FALSE(R.Error.empty());
}
