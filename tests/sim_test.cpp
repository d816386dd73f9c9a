//===- tests/sim_test.cpp - Superscalar simulator unit tests --------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "ir/IRBuilder.h"
#include "ir/Interpreter.h"
#include "machine/MachineModel.h"
#include "regalloc/ChaitinAllocator.h"
#include "sched/ListScheduler.h"
#include "sim/SuperscalarSim.h"
#include "support/ThreadPool.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace pira;

namespace {

/// Allocates (8 regs) and schedules \p F for \p M, returning the final
/// function and schedule through out-params.
void compileFor(Function F, const MachineModel &M, Function &OutF,
                FunctionSchedule &OutS) {
  AllocStats Stats = chaitinAllocate(F, M.numPhysRegs());
  ASSERT_TRUE(Stats.Success);
  OutS = scheduleFunction(F, M);
  OutF = std::move(F);
}

} // namespace

TEST(SimTest, MatchesInterpreterOnAllKernels) {
  MachineModel M = MachineModel::rs6000(8);
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Function F;
    FunctionSchedule S;
    compileFor(Kernel, M, F, S);
    ExecState InitRef = makeInitialState(Kernel, 17);
    ExecState InitSim = makeInitialState(F, 17);
    for (auto &[ArrName, Data] : InitSim.Arrays) {
      auto It = InitRef.Arrays.find(ArrName);
      if (It != InitRef.Arrays.end())
        Data = It->second;
      else
        Data.assign(Data.size(), 0);
    }
    ExecResult Ref = interpret(Kernel, std::move(InitRef));
    SimResult Sim = simulate(F, S, M, std::move(InitSim));
    ASSERT_TRUE(Ref.Completed) << Name;
    ASSERT_TRUE(Sim.Completed) << Name << ": " << Sim.Error;
    EXPECT_EQ(Ref.HasReturnValue, Sim.HasReturnValue) << Name;
    if (Ref.HasReturnValue) {
      EXPECT_EQ(Ref.ReturnValue, Sim.ReturnValue) << Name;
    }
    for (const auto &[ArrName, Data] : Ref.Final.Arrays)
      EXPECT_EQ(Data, Sim.Final.Arrays.at(ArrName))
          << Name << " array " << ArrName;
  }
}

TEST(SimTest, CountsCyclesOfStraightLine) {
  Function F = paperExample2();
  MachineModel M = MachineModel::paperTwoUnit(8);
  AllocStats Stats = chaitinAllocate(F, 8);
  ASSERT_TRUE(Stats.Success);
  FunctionSchedule S = scheduleFunction(F, M);
  SimResult R = simulate(F, S, M, makeInitialState(F, 1));
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Cycles, S.totalMakespan());
  EXPECT_EQ(R.Instructions, F.totalInstructions());
}

TEST(SimTest, LoopCyclesScaleWithIterations) {
  Function F = dotProduct(1); // 64 iterations
  MachineModel M = MachineModel::rs6000(8);
  Function Compiled;
  FunctionSchedule S;
  compileFor(F, M, Compiled, S);
  SimResult R = simulate(Compiled, S, M, makeInitialState(Compiled, 2));
  ASSERT_TRUE(R.Completed) << R.Error;
  unsigned LoopMakespan = S.Blocks[1].Makespan;
  EXPECT_GE(R.Cycles, 64u * LoopMakespan);
}

TEST(SimTest, DetectsIssueWidthViolation) {
  Function F = paperExample2();
  MachineModel M = MachineModel::paperTwoUnit(16);
  AllocStats Stats = chaitinAllocate(F, 16);
  ASSERT_TRUE(Stats.Success);
  FunctionSchedule S = scheduleFunction(F, M);
  // Cram everything into cycle 0.
  for (unsigned &C : S.Blocks[0].CycleOf)
    C = 0;
  S.Blocks[0].Makespan = 1;
  SimResult R = simulate(F, S, M, makeInitialState(F, 1));
  EXPECT_FALSE(R.Completed);
  EXPECT_FALSE(R.Error.empty());
}

TEST(SimTest, DetectsUnitOvercommit) {
  // Two independent int adds forced into one cycle on a 1-ALU machine
  // with wide issue.
  Function F("t");
  F.setNumRegs(4);
  F.setAllocated(true);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::LoadImm, 1, {}, 2));
  F.block(0).append(Instruction(Opcode::Add, 2, {0, 0}));
  F.block(0).append(Instruction(Opcode::Sub, 3, {1, 1}));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {2}));
  MachineModel M = MachineModel::paperTwoUnit(8);
  BlockSchedule BS;
  BS.CycleOf = {0, 1, 2, 2, 3}; // both ALU ops at cycle 2
  BS.Makespan = 4;
  FunctionSchedule S;
  S.Blocks.push_back(BS);
  SimResult R = simulate(F, S, M, makeInitialState(F, 1));
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("unit overcommitted"), std::string::npos);
}

TEST(SimTest, DetectsLatencyViolation) {
  // Consumer scheduled the cycle after a latency-2 load.
  Function F("t");
  F.setNumRegs(2);
  F.setAllocated(true);
  F.addBlock("e");
  Instruction L(Opcode::Load, 0, {}, 0);
  L.setArraySymbol("a");
  F.block(0).append(std::move(L));
  F.block(0).append(Instruction(Opcode::Add, 1, {0, 0}));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {1}));
  F.declareArray("a", 4);
  MachineModel M = MachineModel::rs6000(8); // load latency 2
  BlockSchedule BS;
  BS.CycleOf = {0, 1, 2}; // add must wait until cycle 2; scheduled at 1
  BS.Makespan = 3;
  FunctionSchedule S;
  S.Blocks.push_back(BS);
  SimResult R = simulate(F, S, M, makeInitialState(F, 1));
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("before ready"), std::string::npos);
}

TEST(SimTest, DetectsMemoryReadBeforeStoreReady) {
  Function F("t");
  F.setNumRegs(2);
  F.setAllocated(true);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 7));
  Instruction St(Opcode::Store, NoReg, {0}, 3);
  St.setArraySymbol("a");
  F.block(0).append(std::move(St));
  Instruction Ld(Opcode::Load, 1, {}, 3);
  Ld.setArraySymbol("a");
  F.block(0).append(std::move(Ld));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {1}));
  F.declareArray("a", 4);
  MachineModel M = MachineModel::vliw4(8);
  BlockSchedule BS;
  BS.CycleOf = {0, 1, 1, 2}; // load in the same cycle as the store
  BS.Makespan = 3;
  FunctionSchedule S;
  S.Blocks.push_back(BS);
  SimResult R = simulate(F, S, M, makeInitialState(F, 1));
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("memory read"), std::string::npos);
}

TEST(SimTest, AntiDependenceSameCycleReadsOldValue) {
  // reader (add) and overwriter (li) share a cycle: the add must see the
  // old value (reads-before-writes).
  Function F("t");
  F.setNumRegs(2);
  F.setAllocated(true);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 5));
  F.block(0).append(Instruction(Opcode::Add, 1, {0, 0})); // 10
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 99));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {1}));
  MachineModel M = MachineModel::vliw4(8);
  M.setUniformLatency(1);
  BlockSchedule BS;
  BS.CycleOf = {0, 1, 1, 2}; // add and the second li co-issue
  BS.Makespan = 3;
  FunctionSchedule S;
  S.Blocks.push_back(BS);
  SimResult R = simulate(F, S, M, makeInitialState(F, 1));
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.ReturnValue, 10);
}

TEST(SimTest, UtilizationCountsPerUnit) {
  Function F = paperExample2();
  MachineModel M = MachineModel::paperTwoUnit(8);
  AllocStats Stats = chaitinAllocate(F, 8);
  ASSERT_TRUE(Stats.Success);
  FunctionSchedule S = scheduleFunction(F, M);
  SimResult R = simulate(F, S, M, makeInitialState(F, 1));
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.UnitIssues[static_cast<unsigned>(UnitKind::Memory)], 4u);
  EXPECT_EQ(R.UnitIssues[static_cast<unsigned>(UnitKind::IntALU)], 3u);
  EXPECT_EQ(R.UnitIssues[static_cast<unsigned>(UnitKind::FPU)], 2u);
  EXPECT_EQ(R.UnitIssues[static_cast<unsigned>(UnitKind::Branch)], 1u);
  EXPECT_GT(R.ipc(), 1.0);
}

TEST(SimTest, CycleBudgetStopsRunaway) {
  Function F("t");
  F.setNumRegs(0);
  F.setAllocated(true);
  F.addBlock("spin");
  Instruction Br(Opcode::Br, NoReg, {});
  Br.setTargets({0});
  F.block(0).append(std::move(Br));
  BlockSchedule BS;
  BS.CycleOf = {0};
  BS.Makespan = 1;
  FunctionSchedule S;
  S.Blocks.push_back(BS);
  SimResult R = simulate(F, S, MachineModel::scalar(), ExecState{},
                         /*MaxCycles=*/64);
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(SimTest, OutOfRangeScheduleCycleIsADiagnostic) {
  // A cycle past the block's makespan is a scheduler bug the simulator
  // must report, in every build, rather than index past its cycle table.
  Function F("t");
  F.setNumRegs(1);
  F.setAllocated(true);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {0}));
  BlockSchedule BS;
  BS.CycleOf = {0, 3};
  BS.Makespan = 2;
  FunctionSchedule S;
  S.Blocks.push_back(BS);
  SimResult R =
      simulate(F, S, MachineModel::rs6000(8), makeInitialState(F, 1));
  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.Error, "block e, inst 1: schedule cycle out of range");
}

TEST(SimTest, ExpiredDeadlineStopsSimulationAndInterpretation) {
  // 4,096 iterations: past the simulator's 256-entry and the
  // interpreter's 4,096-step polling intervals.
  Function Loop = storeLoop(4096);
  MachineModel M = MachineModel::rs6000(8);
  Function F;
  FunctionSchedule S;
  compileFor(Loop, M, F, S);
  {
    deadline::ScopedDeadline Passed(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(deadline::expired());
    EXPECT_THROW(simulate(F, S, M, makeInitialState(F, 1)),
                 deadline::DeadlineExceededError);
    EXPECT_THROW(interpret(Loop, makeInitialState(Loop, 1)),
                 deadline::DeadlineExceededError);
  }
  SimResult Sim = simulate(F, S, M, makeInitialState(F, 1));
  ExecResult Ref = interpret(Loop, makeInitialState(Loop, 1));
  ASSERT_TRUE(Sim.Completed) << Sim.Error;
  ASSERT_TRUE(Ref.Completed) << Ref.Error;
  EXPECT_EQ(Sim.ReturnValue, 4096);
  EXPECT_EQ(Ref.ReturnValue, 4096);
  EXPECT_EQ(Sim.Final.Arrays.at("a"), Ref.Final.Arrays.at("a"));
}
