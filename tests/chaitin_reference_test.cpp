//===- tests/chaitin_reference_test.cpp - Chaitin coloring oracle ---------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// chaitinColor runs on the worklist coloring engine that also drives
// Section 4 (regalloc/ColoringEngine.h). Its first, rescanning form is
// kept here verbatim as chaitinColorReference: a full simplify sweep
// from index 0 until a pass removes nothing, and an O(N) cost / degree
// scan for every spill. The two must agree exactly: the colors, the
// spilled vertices in order and the color count. The inputs are the
// kernels and random programs of every CFG shape, each reordered by the
// Goodman-Hsu prepass on four machines at every register budget from 1
// to 16, through up to four rounds of a real color/spill/rebuild loop,
// with finite and partly infinite costs, plus hand-built graphs.
//
//===----------------------------------------------------------------------===//

#include "analysis/Webs.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/IntegratedPrepass.h"
#include "support/UndirectedGraph.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <limits>
#include <set>
#include <string>

using namespace pira;

namespace {

//===----------------------------------------------------------------------===//
// Reference colorings: a whole-graph rescan for every decision.
//===----------------------------------------------------------------------===//

Allocation chaitinColorReference(const UndirectedGraph &G,
                                 const std::vector<double> &Costs,
                                 unsigned NumRegs) {
  unsigned N = G.numVertices();
  assert(Costs.size() == N && "cost vector size mismatch");
  Allocation Out;
  Out.ColorOfWeb.assign(N, -1);

  UndirectedGraph Work = G;
  std::vector<bool> Removed(N, false);
  std::vector<unsigned> Stack;
  unsigned Remaining = N;

  auto RemoveVertex = [&](unsigned V) {
    for (unsigned Neigh : Work.neighborList(V))
      Work.removeEdge(V, Neigh);
    Removed[V] = true;
    --Remaining;
  };

  while (Remaining != 0) {
    // Simplify: peel vertices with degree below the register budget.
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (unsigned V = 0; V != N; ++V) {
        if (Removed[V] || Work.degree(V) >= NumRegs)
          continue;
        Stack.push_back(V);
        RemoveVertex(V);
        Progress = true;
      }
    }
    if (Remaining == 0)
      break;

    // Stuck: every survivor has degree >= r. Place the cheapest
    // cost/degree vertex on the spill list (the paper's h function).
    unsigned Victim = ~0u;
    double BestH = std::numeric_limits<double>::infinity();
    for (unsigned V = 0; V != N; ++V) {
      if (Removed[V])
        continue;
      double H = Costs[V] / static_cast<double>(Work.degree(V));
      // The first survivor seeds the choice so a round of all-infinite
      // costs still makes progress.
      if (Victim == ~0u || H < BestH) {
        BestH = H;
        Victim = V;
      }
    }
    assert(Victim != ~0u && "no spill candidate among survivors");
    Out.SpilledWebs.push_back(Victim);
    RemoveVertex(Victim);
  }

  if (Out.SpilledWebs.empty())
    assignColorsGreedy(G, Stack, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Differential checks.
//===----------------------------------------------------------------------===//

/// Tallies over a sweep, so a test can show it reached the regime it is
/// meant to cover.
struct SweepTally {
  unsigned Colorings = 0;
  unsigned Spilled = 0;
  unsigned InfiniteSpilled = 0;
  unsigned SpillRounds = 0;
};

void expectSameAllocation(const Allocation &Lib, const Allocation &Ref,
                          const std::string &Where) {
  EXPECT_EQ(Lib.ColorOfWeb, Ref.ColorOfWeb) << Where;
  EXPECT_EQ(Lib.SpilledWebs, Ref.SpilledWebs) << Where;
  EXPECT_EQ(Lib.NumColorsUsed, Ref.NumColorsUsed) << Where;
}

/// Colors \p G with both Chaitin forms and requires identical
/// decisions. \returns the library's Chaitin result.
Allocation expectSameColorings(const UndirectedGraph &G,
                               const std::vector<double> &Costs,
                               unsigned NumRegs, const std::string &Where,
                               SweepTally &Tally) {
  Allocation Chaitin = chaitinColor(G, Costs, NumRegs);
  expectSameAllocation(Chaitin, chaitinColorReference(G, Costs, NumRegs),
                       Where + " chaitin");
  ++Tally.Colorings;
  Tally.Spilled += static_cast<unsigned>(Chaitin.SpilledWebs.size());
  for (unsigned V : Chaitin.SpilledWebs)
    if (Costs[V] == std::numeric_limits<double>::infinity())
      ++Tally.InfiniteSpilled;
  return Chaitin;
}

/// Drives chaitinAllocate's color → insertSpillCode → rebuild loop on
/// \p Base, comparing the colorings on every round's interference graph.
/// With \p PinSomeInfinite, round 0 also gives every fifth web an
/// infinite cost; later rounds get infinite costs from the reload
/// temporaries either way.
void compareSpillRounds(const Function &Base, unsigned NumRegs,
                        bool PinSomeInfinite, const std::string &Where,
                        SweepTally &Tally) {
  constexpr unsigned MaxRounds = 4;
  constexpr double Infinite = std::numeric_limits<double>::infinity();
  Function F = Base;
  std::set<Reg> NoSpillRegs;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    Webs W(F);
    InterferenceGraph IG(F, W);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)) ||
          (PinSomeInfinite && Round == 0 && Web % 5 == 4))
        Costs[Web] = Infinite;
    Allocation A =
        expectSameColorings(IG.graph(), Costs, NumRegs,
                            Where + " round " + std::to_string(Round), Tally);
    if (A.fullyColored())
      return;
    ++Tally.SpillRounds;
    insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
  }
}

MachineModel machineNumber(unsigned I, unsigned Regs) {
  switch (I) {
  case 0:
    return MachineModel::scalar(Regs);
  case 1:
    return MachineModel::paperTwoUnit(Regs);
  case 2:
    return MachineModel::rs6000(Regs);
  default:
    return MachineModel::vliw4(Regs);
  }
}

/// The sweep's inputs for source \p Source: the 16 kernels (source 0),
/// or 36 random programs of CFG shape Source - 1 (12 seeds × 3 sizes).
std::vector<std::pair<std::string, Function>> sweepInputs(unsigned Source) {
  if (Source == 0)
    return standardKernelSuite();
  std::vector<std::pair<std::string, Function>> Inputs;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    for (unsigned Size : {6u, 16u, 40u}) {
      RandomProgramOptions Gen;
      Gen.Shape = static_cast<CfgShape>(Source - 1);
      Gen.Seed = Seed * 7919 + Source;
      Gen.InstructionsPerBlock = Size;
      Gen.FloatPercent = 20 + 5 * static_cast<unsigned>(Seed % 5);
      Gen.MemoryPercent = 15 + 5 * static_cast<unsigned>(Seed % 4);
      Inputs.emplace_back("shape " + std::to_string(Source - 1) + " seed " +
                              std::to_string(Seed) + " size " +
                              std::to_string(Size),
                          generateRandomProgram(Gen));
    }
  return Inputs;
}

/// (input source, machine) pairs: kernels and every CFG shape on every
/// machine.
class ChaitinReferenceSweep
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

} // namespace

TEST_P(ChaitinReferenceSweep, MatchesReferenceAtEveryBudget) {
  auto [Source, MachineIdx] = GetParam();
  SweepTally Tally;
  for (const auto &[Name, Input] : sweepInputs(Source))
    for (unsigned R = 1; R <= 16; ++R) {
      MachineModel M = machineNumber(MachineIdx, R);
      Function F = Input;
      integratedPrepassSchedule(F, M, R);
      std::string Where = Name + " on " + M.name() + " r=" + std::to_string(R);
      compareSpillRounds(F, R, /*PinSomeInfinite=*/false, Where, Tally);
      compareSpillRounds(F, R, /*PinSomeInfinite=*/true, Where + " pinned",
                         Tally);
    }
  // The sweep must reach the regime it exists for: spills, infinite-cost
  // spills and later spill rounds.
  EXPECT_GT(Tally.Spilled, 0u);
  EXPECT_GT(Tally.InfiniteSpilled, 0u);
  EXPECT_GT(Tally.SpillRounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SourcesAndMachines, ChaitinReferenceSweep,
    testing::Combine(testing::Range(0u, 6u), testing::Range(0u, 4u)));

TEST(ChaitinReference, MatchesOnPaperExamplesAtEveryBudget) {
  SweepTally Tally;
  for (const Function &F : {paperExample1(), paperExample2()}) {
    Webs W(F);
    InterferenceGraph IG(F, W);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned R = 1; R != 9; ++R)
      expectSameColorings(IG.graph(), Costs, R,
                          F.name() + " r=" + std::to_string(R), Tally);
  }
  EXPECT_GT(Tally.Spilled, 0u);
}

TEST(ChaitinReference, MatchesOnHandBuiltGraphs) {
  // Cliques, cycles and a star with equal, distinct, all-infinite and
  // mixed costs: ties on h, degree-0 survivors, and both spill orders.
  constexpr double Inf = std::numeric_limits<double>::infinity();
  SweepTally Tally;
  for (unsigned N : {1u, 4u, 7u}) {
    UndirectedGraph Clique(N), Cycle(N), Star(N);
    for (unsigned I = 0; I != N; ++I)
      for (unsigned J = I + 1; J != N; ++J)
        Clique.addEdge(I, J);
    for (unsigned I = 0; N > 2 && I != N; ++I)
      Cycle.addEdge(I, (I + 1) % N);
    for (unsigned I = 1; I < N; ++I)
      Star.addEdge(0, I);
    std::vector<std::vector<double>> CostSets = {
        std::vector<double>(N, 1.0), std::vector<double>(N, Inf)};
    std::vector<double> Mixed(N), Distinct(N);
    for (unsigned I = 0; I != N; ++I) {
      Mixed[I] = I % 2 == 0 ? Inf : 3.0 + I;
      Distinct[I] = 10.0 - I;
    }
    CostSets.push_back(Mixed);
    CostSets.push_back(Distinct);
    for (const UndirectedGraph *G : {&Clique, &Cycle, &Star})
      for (const std::vector<double> &Costs : CostSets)
        for (unsigned R = 1; R <= N + 1; ++R)
          expectSameColorings(*G, Costs, R,
                              "n=" + std::to_string(N) + " r=" +
                                  std::to_string(R),
                              Tally);
  }
  EXPECT_GT(Tally.InfiniteSpilled, 0u);
}
