//===- tests/compile_tail_test.cpp - The shared compile tail ---------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Every compile ends by building each block's allocated schedule graph
// once, list-scheduling the block from it and running the Theorem 1
// check on it. That tail is checked against the public entry points run
// on their own, each building its own graphs: scheduleFunction on the
// final code must give the compile's schedule cycle for cycle, and
// findFalseDependences and countAntiOrderingLosses its two counts. The
// inputs are the 16 kernels under every heuristic strategy on
// paper-two-unit, rs6000, vliw4 and a single-issue machine at 6
// registers, random programs of every CFG shape, a spilled
// 1024-instruction alloc-first block, and the oracle, whose proven
// schedule the tail keeps.
//
// NumScheduleGraphsBuilt pins what the tail costs: on a machine wider
// than 1, two graphs per block (the allocated one and the symbolic one
// the check walks), where the entry points on their own build five. The
// builds before the tail are counted by arming its first fault site,
// which throws before any of them.
//
//===----------------------------------------------------------------------===//

#include "core/FalseDepChecker.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "pipeline/Oracle.h"
#include "pipeline/Strategies.h"
#include "pipeline/Tournament.h"
#include "sched/ListScheduler.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <string>

using namespace pira;

namespace {

const StrategyKind Heuristics[] = {StrategyKind::AllocFirst,
                                   StrategyKind::SchedFirst,
                                   StrategyKind::IntegratedPrepass,
                                   StrategyKind::Combined};

std::vector<MachineModel> machinesAt6() {
  return {MachineModel::paperTwoUnit(6), MachineModel::rs6000(6),
          MachineModel::vliw4(6), MachineModel::scalar(6)};
}

uint64_t graphsBuilt() {
  for (const telemetry::Counter *C : telemetry::counters())
    if (std::string(C->name()) == "NumScheduleGraphsBuilt")
      return C->value();
  ADD_FAILURE() << "no NumScheduleGraphsBuilt counter";
  return 0;
}

/// Requires the tail's counts to equal the check's entry points on the
/// final code, and its schedule to be \p Expected.
void expectTail(const PipelineResult &R, const FunctionSchedule &Expected,
                const MachineModel &M, const std::string &Where) {
  ASSERT_TRUE(R.Success) << Where << ": " << R.Error;
  ASSERT_EQ(R.Sched.Blocks.size(), Expected.Blocks.size()) << Where;
  for (size_t B = 0; B != Expected.Blocks.size(); ++B) {
    EXPECT_EQ(R.Sched.Blocks[B].CycleOf, Expected.Blocks[B].CycleOf)
        << Where << " block " << B;
    EXPECT_EQ(R.Sched.Blocks[B].Makespan, Expected.Blocks[B].Makespan)
        << Where << " block " << B;
  }
  EXPECT_EQ(R.StaticCycles, Expected.totalMakespan()) << Where;
  EXPECT_EQ(R.FalseDeps,
            findFalseDependences(R.SymbolicTwin, R.Final, M).size())
      << Where;
  EXPECT_EQ(R.AntiOrderingLosses,
            countAntiOrderingLosses(R.SymbolicTwin, R.Final, M))
      << Where;
}

/// Runs \p Kind on \p F and checks the tail against the entry points.
/// Returns the edges the check counted, for a coverage tally.
unsigned expectSameTail(StrategyKind Kind, const Function &F,
                        const MachineModel &M, const std::string &Where) {
  PipelineResult R = runStrategy(Kind, F, M);
  std::string Tag = Where + " " + strategyName(Kind) + " on " + M.name();
  expectTail(R, scheduleFunction(R.Final, M), M, Tag);
  return R.FalseDeps + R.AntiOrderingLosses;
}

} // namespace

TEST(CompileTailTest, KernelsMatchTheEntryPoints) {
  unsigned Found = 0;
  for (const MachineModel &M : machinesAt6())
    for (const auto &[Name, F] : standardKernelSuite())
      for (StrategyKind Kind : Heuristics)
        Found += expectSameTail(Kind, F, M, Name);
  // Under pressure some compile must leave edges for the check to count.
  EXPECT_GT(Found, 0u);
}

TEST(CompileTailTest, RandomShapesMatchTheEntryPoints) {
  for (CfgShape Shape : {CfgShape::Straight, CfgShape::Diamond,
                         CfgShape::Loop, CfgShape::NestedDiamond,
                         CfgShape::DoubleLoop})
    for (uint64_t Seed : {11u, 12u, 13u}) {
      RandomProgramOptions Opts;
      Opts.Shape = Shape;
      Opts.Seed = Seed;
      Opts.InstructionsPerBlock = 24;
      Function F = generateRandomProgram(Opts);
      std::string Where = "shape " +
                          std::to_string(static_cast<int>(Shape)) +
                          " seed " + std::to_string(Seed);
      for (const MachineModel &M :
           {MachineModel::rs6000(6), MachineModel::vliw4(6)})
        for (StrategyKind Kind : Heuristics)
          expectSameTail(Kind, F, M, Where);
    }
}

TEST(CompileTailTest, SpilledLargeBlockMatchesTheEntryPoints) {
  RandomProgramOptions Opts;
  Opts.InstructionsPerBlock = 1021;
  Opts.Seed = 4242;
  Opts.FloatPercent = 40;
  Opts.MemoryPercent = 25;
  Function F = generateRandomProgram(Opts);
  MachineModel M = MachineModel::rs6000(12);
  PipelineResult R = runStrategy(StrategyKind::AllocFirst, F, M);
  ASSERT_TRUE(R.Success) << R.Error;
  ASSERT_GT(R.SpillInstructions, 500u);
  expectTail(R, scheduleFunction(R.Final, M), M, "1024-instruction block");
}

TEST(CompileTailTest, OracleKeepsItsProvenSchedule) {
  TournamentOptions TOpts;
  unsigned Solved = 0, NotListSchedule = 0;
  for (const BatchItem &Item : makeTournamentCorpus(12, 10, 7, TOpts))
    for (const MachineModel &M :
         {MachineModel::paperTwoUnit(8), MachineModel::scalar(8)}) {
      PipelineResult R = runStrategy(StrategyKind::Oracle, Item.Input, M);
      if (!R.Success)
        continue;
      ++Solved;
      PipelineResult Search;
      ASSERT_TRUE(oracleCompile(Item.Input, M, OracleOptions(), Search).ok())
          << Item.Name;
      expectTail(R, Search.Sched, M, Item.Name + " on " + M.name());
      NotListSchedule += Search.Sched.totalMakespan() !=
                         scheduleFunction(R.Final, M).totalMakespan();
    }
  EXPECT_GT(Solved, 0u);
  // Some proven schedule must beat the list scheduler's, or keeping it
  // would go untested.
  EXPECT_GT(NotListSchedule, 0u);
}

TEST(CompileTailTest, BuildsTwoScheduleGraphsPerBlock) {
  for (const MachineModel &M : machinesAt6()) {
    bool Wide = M.issueWidth() != 1;
    for (const auto &[Name, F] : standardKernelSuite())
      for (StrategyKind Kind : Heuristics) {
        std::string Where =
            Name + " " + strategyName(Kind) + " on " + M.name();
        // The builds before the tail: its first fault site throws
        // before the tail builds anything.
        std::string Error;
        ASSERT_TRUE(faultinject::configure("sched.final:1", Error)) << Error;
        uint64_t Start = graphsBuilt();
        EXPECT_THROW(runStrategy(Kind, F, M),
                     faultinject::FaultInjectedError)
            << Where;
        faultinject::reset();
        uint64_t Before = graphsBuilt() - Start;

        Start = graphsBuilt();
        PipelineResult R = runStrategy(Kind, F, M);
        ASSERT_TRUE(R.Success) << Where << ": " << R.Error;
        uint64_t Compile = graphsBuilt() - Start;
        uint64_t Blocks = R.Final.numBlocks();
        // One allocated graph for the scheduler and the check, and the
        // symbolic one the check walks; a single-issue machine has
        // nothing to check.
        EXPECT_EQ(Compile - Before, (Wide ? 2 : 1) * Blocks) << Where;
        if (Kind == StrategyKind::AllocFirst) {
          EXPECT_EQ(Before, 0u) << Where;
        }

        // The entry points on their own, a tail that shares nothing: the
        // scheduler's graph, and both graphs for each check function.
        // Behind the same strategy that tail costs 3 more per block.
        Start = graphsBuilt();
        (void)scheduleFunction(R.Final, M);
        (void)findFalseDependences(R.SymbolicTwin, R.Final, M);
        (void)countAntiOrderingLosses(R.SymbolicTwin, R.Final, M);
        uint64_t EntryPoints = graphsBuilt() - Start;
        EXPECT_EQ(EntryPoints, (Wide ? 5 : 1) * Blocks) << Where;
        EXPECT_EQ(Before + EntryPoints - Compile, (Wide ? 3 : 0) * Blocks)
            << Where;
      }
  }
}
