//===- tests/falsedep_reference_test.cpp - Theorem 1 check oracle ---------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The Theorem 1 check (findFalseDependences, countAntiOrderingLosses)
// checked against its first form, kept here verbatim but for the names:
// per block, a whole FalseDependenceGraph of the symbolic twin (closure,
// symmetrize, machine matrix, complement) queried for every output or
// anti edge of the allocated Gs. The two must agree on every entry (block, from, to and
// order) and on every count. The inputs are the kernels on four machines
// as each strategy leaves them, random programs of every CFG shape under
// register pressure, and arbitrary colorings, legal or not, of both at
// two to eight colors. Those give long reuse windows, pairs joined by a
// path, and instructions reading one register twice (add r1, r1), which
// real allocators rarely produce. A tally asserts the inputs reach every
// reason a queried edge can be cleared: a symbolic path, one single-unit
// class, and a single-issue machine.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "core/FalseDepChecker.h"
#include "core/FalseDependenceGraph.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "regalloc/Allocation.h"
#include "support/Rng.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cassert>
#include <string>

using namespace pira;

namespace {

//===----------------------------------------------------------------------===//
// Reference check: one false-dependence graph per block.
//===----------------------------------------------------------------------===//

std::vector<FalseDep>
referenceFindFalseDependences(const Function &Symbolic,
                              const Function &Allocated,
                              const MachineModel &Machine) {
  assert(!Symbolic.isAllocated() && Allocated.isAllocated() &&
         "arguments swapped");
  assert(Symbolic.numBlocks() == Allocated.numBlocks() &&
         "functions do not correspond");

  std::vector<FalseDep> Result;
  for (unsigned B = 0, NB = Symbolic.numBlocks(); B != NB; ++B) {
    assert(Symbolic.block(B).size() == Allocated.block(B).size() &&
           "allocation must preserve instruction positions");
    FalseDependenceGraph FDG(Symbolic, B, Machine);
    DependenceGraph After(Allocated, B, Machine);
    for (const DepEdge &E : After.edges()) {
      // Only register reuse creates new edges; flow/memory/control edges
      // exist identically in the symbolic graph. Anti edges never forbid
      // same-cycle issue (reads precede writes), so only output edges
      // can be false — see the header comment.
      if (E.Kind != DepKind::Output)
        continue;
      if (FDG.canIssueTogether(E.From, E.To))
        Result.push_back({B, E.From, E.To, E.Kind});
    }
  }
  return Result;
}

unsigned referenceCountAntiOrderingLosses(const Function &Symbolic,
                                          const Function &Allocated,
                                          const MachineModel &Machine) {
  assert(Symbolic.numBlocks() == Allocated.numBlocks() &&
         "functions do not correspond");
  unsigned Count = 0;
  for (unsigned B = 0, NB = Symbolic.numBlocks(); B != NB; ++B) {
    FalseDependenceGraph FDG(Symbolic, B, Machine);
    DependenceGraph After(Allocated, B, Machine);
    for (const DepEdge &E : After.edges())
      if (E.Kind == DepKind::Anti && FDG.canIssueTogether(E.From, E.To))
        ++Count;
  }
  return Count;
}

//===----------------------------------------------------------------------===//
// Comparison and coverage
//===----------------------------------------------------------------------===//

/// What the compared inputs contained, so a test can show it reached the
/// cases it is meant to cover.
struct CheckTally {
  unsigned Cases = 0;
  unsigned FalseDeps = 0;
  unsigned AntiLosses = 0;
  /// Queried (output or anti) edges cleared by a symbolic path.
  unsigned OnPath = 0;
  /// Queried edges with no path, cleared by one single-unit class.
  unsigned SingleUnit = 0;
  /// Queried edges with no path on a single-issue machine.
  unsigned SingleIssue = 0;
};

/// Classifies every queried edge of \p Allocated by what clears it.
void tallyQueries(const Function &Symbolic, const Function &Allocated,
                  const MachineModel &M, CheckTally &Tally) {
  for (unsigned B = 0, NB = Symbolic.numBlocks(); B != NB; ++B) {
    FalseDependenceGraph FDG(Symbolic, B, M);
    DependenceGraph Before(Symbolic, B, M);
    BitMatrix Reach = Before.reachability();
    DependenceGraph After(Allocated, B, M);
    for (const DepEdge &E : After.edges()) {
      if (E.Kind != DepKind::Output && E.Kind != DepKind::Anti)
        continue;
      if (Reach.test(E.From, E.To))
        ++Tally.OnPath;
      else if (M.issueWidth() == 1)
        ++Tally.SingleIssue;
      else if (FDG.machinePairs().hasEdge(E.From, E.To))
        ++Tally.SingleUnit;
    }
  }
}

/// Runs both forms of both entry points and requires them to agree.
void expectSameCheck(const Function &Symbolic, const Function &Allocated,
                     const MachineModel &M, const std::string &Where,
                     CheckTally &Tally) {
  std::vector<FalseDep> Lib = findFalseDependences(Symbolic, Allocated, M);
  std::vector<FalseDep> Ref =
      referenceFindFalseDependences(Symbolic, Allocated, M);
  ASSERT_EQ(Lib.size(), Ref.size()) << Where;
  for (size_t I = 0; I != Ref.size(); ++I) {
    EXPECT_EQ(Lib[I].Block, Ref[I].Block) << "entry " << I << " " << Where;
    EXPECT_EQ(Lib[I].From, Ref[I].From) << "entry " << I << " " << Where;
    EXPECT_EQ(Lib[I].To, Ref[I].To) << "entry " << I << " " << Where;
    EXPECT_EQ(Lib[I].Kind, Ref[I].Kind) << "entry " << I << " " << Where;
  }
  unsigned LibAnti = countAntiOrderingLosses(Symbolic, Allocated, M);
  unsigned RefAnti = referenceCountAntiOrderingLosses(Symbolic, Allocated, M);
  EXPECT_EQ(LibAnti, RefAnti) << Where;

  ++Tally.Cases;
  Tally.FalseDeps += static_cast<unsigned>(Ref.size());
  Tally.AntiLosses += RefAnti;
  tallyQueries(Symbolic, Allocated, M, Tally);
}

/// Compares the two forms on every successful strategy's final code.
void compareStrategies(const Function &Input, const MachineModel &M,
                       const std::string &Where, CheckTally &Tally) {
  for (StrategyKind Kind : allStrategies()) {
    PipelineResult R = runStrategy(Kind, Input, M);
    if (!R.Success)
      continue;
    expectSameCheck(R.SymbolicTwin, R.Final, M,
                    Where + " " + strategyName(Kind), Tally);
  }
}

/// Colors every web of \p Symbolic at random with \p NumColors colors,
/// ignoring interference, and compares the two forms on the result.
void compareRandomColoring(const Function &Symbolic, const MachineModel &M,
                           unsigned NumColors, uint64_t Seed,
                           const std::string &Where, CheckTally &Tally) {
  Webs W(Symbolic);
  Allocation A;
  Rng R(Seed);
  for (unsigned Web = 0, N = W.numWebs(); Web != N; ++Web)
    A.ColorOfWeb.push_back(static_cast<int>(R.nextBelow(NumColors)));
  A.NumColorsUsed = NumColors;
  Function Allocated = Symbolic;
  applyAllocation(Allocated, W, A);
  expectSameCheck(Symbolic, Allocated, M, Where, Tally);
}

const CfgShape AllShapes[] = {CfgShape::Straight, CfgShape::Diamond,
                              CfgShape::Loop, CfgShape::NestedDiamond,
                              CfgShape::DoubleLoop};

/// The four machines: one and two memory units, and a single-issue one.
std::vector<MachineModel> checkMachines(unsigned Regs) {
  return {MachineModel::paperTwoUnit(Regs), MachineModel::rs6000(Regs),
          MachineModel::vliw4(Regs), MachineModel::scalar(Regs)};
}

Function randomProgram(unsigned ShapeIdx, unsigned Seed) {
  RandomProgramOptions Gen;
  Gen.Shape = AllShapes[ShapeIdx];
  Gen.InstructionsPerBlock = 10 + 6 * Seed + ShapeIdx % 3;
  Gen.FloatPercent = 40;
  Gen.MemoryPercent = 25;
  Gen.Seed = 29 + ShapeIdx * 7919 + Seed * 613;
  return generateRandomProgram(Gen);
}

void expectFullCoverage(const CheckTally &Tally) {
  EXPECT_GT(Tally.FalseDeps, 0u);
  EXPECT_GT(Tally.AntiLosses, 0u);
  EXPECT_GT(Tally.OnPath, 0u);
  EXPECT_GT(Tally.SingleUnit, 0u);
  EXPECT_GT(Tally.SingleIssue, 0u);
}

} // namespace

TEST(FalseDepReference, MatchesOnEveryKernelAndStrategy) {
  CheckTally Tally;
  for (const MachineModel &M : checkMachines(6))
    for (const auto &[Name, F] : standardKernelSuite())
      compareStrategies(F, M, Name + " " + M.name(), Tally);
  EXPECT_GT(Tally.Cases, 16u * 4u * 4u);
  expectFullCoverage(Tally);
}

TEST(FalseDepReference, MatchesOnEveryShapeUnderPressure) {
  CheckTally Tally;
  for (unsigned Regs : {3u, 6u, 12u})
    for (const MachineModel &M : checkMachines(Regs))
      for (unsigned ShapeIdx = 0; ShapeIdx != 5; ++ShapeIdx)
        for (unsigned Seed = 0; Seed != 2; ++Seed)
          compareStrategies(randomProgram(ShapeIdx, Seed), M,
                            "shape " + std::to_string(ShapeIdx) + " seed " +
                                std::to_string(Seed) + " " + M.name() +
                                " r=" + std::to_string(Regs),
                            Tally);
  EXPECT_GT(Tally.Cases, 3u * 4u * 5u * 2u * 4u);
  expectFullCoverage(Tally);
}

TEST(FalseDepReference, MatchesOnArbitraryColorings) {
  CheckTally Tally;
  std::vector<std::pair<std::string, Function>> Inputs = standardKernelSuite();
  for (unsigned ShapeIdx = 0; ShapeIdx != 5; ++ShapeIdx)
    for (unsigned Seed = 0; Seed != 2; ++Seed)
      Inputs.push_back({"shape " + std::to_string(ShapeIdx) + " seed " +
                            std::to_string(Seed),
                        randomProgram(ShapeIdx, Seed)});
  uint64_t ColoringSeed = 1;
  for (const MachineModel &M : checkMachines(8))
    for (const auto &[Name, F] : Inputs)
      for (unsigned Colors = 2; Colors <= 8; ++Colors)
        compareRandomColoring(F, M, Colors, ColoringSeed++,
                              Name + " " + M.name() + " " +
                                  std::to_string(Colors) + " colors",
                              Tally);
  expectFullCoverage(Tally);
}

TEST(FalseDepReference, SingleIssueMachineReportsNothing) {
  // Every pair on a single-issue machine is serialized, so even a coloring
  // that reuses registers everywhere has no false dependence.
  Function F = paperExample2();
  MachineModel M = MachineModel::scalar();
  CheckTally Tally;
  for (uint64_t Seed = 1; Seed != 9; ++Seed)
    compareRandomColoring(F, M, 2, Seed, "example 2 scalar", Tally);
  EXPECT_EQ(Tally.FalseDeps, 0u);
  EXPECT_EQ(Tally.AntiLosses, 0u);
  EXPECT_GT(Tally.SingleIssue, 0u);
}
