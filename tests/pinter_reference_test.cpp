//===- tests/pinter_reference_test.cpp - Section 4 coloring oracle --------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The worklist-driven pinterColor checked against the straightforward
// whole-graph-rescan formulation of the Section 4 procedure, kept here
// verbatim as pinterColorReference. The sweep runs where the two can
// actually differ — under register pressure, where step 3 gives parallel
// edges away and step 4 spills — over every CFG shape, three machines,
// small register files, several h* weightings, the region extension on
// and off, infinite spill costs, and every spill round of a real
// color/spill/rebuild loop. Decisions must agree exactly: the colors,
// the spilled webs in order, the dropped-edge count and the color count.
//
//===----------------------------------------------------------------------===//

#include "analysis/Webs.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "ir/Function.h"
#include "ir/Parser.h"
#include "machine/MachineModel.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "support/Telemetry.h"
#include "support/UndirectedGraph.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cassert>
#include <limits>
#include <set>
#include <string>

using namespace pira;

namespace {

/// Mutable working state of one coloring round: the combined graph and
/// its two families, kept consistent under vertex and edge removal.
class WorkGraphs {
public:
  WorkGraphs(const ParallelInterferenceGraph &PIG)
      : Combined(PIG.combined()), Interf(PIG.interference()),
        Par(PIG.parallel()), Removed(PIG.numWebs(), false),
        Remaining(PIG.numWebs()) {}

  unsigned size() const { return Combined.numVertices(); }
  unsigned remaining() const { return Remaining; }
  bool isRemoved(unsigned V) const { return Removed[V]; }
  unsigned degree(unsigned V) const { return Combined.degree(V); }

  /// Degree counting only interference edges (the paper's "when only
  /// interference edges are considered").
  unsigned interfDegree(unsigned V) const { return Interf.degree(V); }

  void removeVertex(unsigned V) {
    assert(!Removed[V] && "vertex removed twice");
    for (unsigned N : Combined.neighborList(V))
      Combined.removeEdge(V, N);
    for (unsigned N : Interf.neighborList(V))
      Interf.removeEdge(V, N);
    for (unsigned N : Par.neighborList(V))
      Par.removeEdge(V, N);
    Removed[V] = true;
    --Remaining;
  }

  /// Parallel-only neighbors of \p V still present.
  std::vector<unsigned> parallelOnlyNeighbors(unsigned V) const {
    std::vector<unsigned> Result;
    for (unsigned N : Par.neighborList(V))
      if (!Interf.hasEdge(V, N))
        Result.push_back(N);
    return Result;
  }

  void removeParallelEdge(unsigned A, unsigned B) {
    assert(!Interf.hasEdge(A, B) && "never drop an Ef ∩ Er edge");
    Par.removeEdge(A, B);
    Combined.removeEdge(A, B);
  }

  /// h* edge weight of the still-present edge {\p V, \p N}.
  double weight(unsigned V, unsigned N, const PinterOptions &Opts) const {
    double W = 0.0;
    if (Interf.hasEdge(V, N))
      W += Opts.InterferenceWeight;
    if (Par.hasEdge(V, N))
      W += Opts.ParallelWeight;
    return W;
  }

  const UndirectedGraph &combined() const { return Combined; }

private:
  UndirectedGraph Combined;
  UndirectedGraph Interf;
  UndirectedGraph Par;
  std::vector<bool> Removed;
  unsigned Remaining;
};

/// The Section 4 procedure as first written: after every simplification,
/// drop and spill it rescans the whole graph. Cubic, but obviously the
/// paper's text; the library's pinterColor must match it decision for
/// decision.
Allocation pinterColorReference(const ParallelInterferenceGraph &PIG,
                                const std::vector<double> &Costs,
                                unsigned NumRegs, const PinterOptions &Opts) {
  unsigned N = PIG.numWebs();
  assert(Costs.size() == N && "cost vector size mismatch");
  Allocation Out;
  Out.ColorOfWeb.assign(N, -1);

  WorkGraphs Work(PIG);
  std::vector<unsigned> Stack;
  // Select must color against the graph with dropped edges gone but
  // removed vertices' edges intact: maintain it separately.
  UndirectedGraph SelectGraph = PIG.combined();

  auto Simplify = [&] {
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (unsigned V = 0; V != N; ++V) {
        if (Work.isRemoved(V) || Work.degree(V) >= NumRegs)
          continue;
        Stack.push_back(V);
        Work.removeVertex(V);
        Progress = true;
      }
    }
  };

  while (Work.remaining() != 0) {
    Simplify();
    if (Work.remaining() == 0)
      break;

    // Step 3: some vertex colorable if we give up parallelism? Take the
    // vertex needing the fewest removals (smallest combined degree among
    // those with interference degree < r), and drop its least beneficial
    // parallel-only edge.
    unsigned Victim = ~0u;
    for (unsigned V = 0; V != N; ++V) {
      if (Work.isRemoved(V) || Work.interfDegree(V) >= NumRegs)
        continue;
      if (Victim == ~0u || Work.degree(V) < Work.degree(Victim))
        Victim = V;
    }
    if (Victim != ~0u) {
      std::vector<unsigned> Candidates = Work.parallelOnlyNeighbors(Victim);
      assert(!Candidates.empty() &&
             "interference degree < combined degree implies a parallel-only "
             "edge");
      unsigned Best = Candidates.front();
      for (unsigned C : Candidates)
        if (PIG.parallelBenefit(Victim, C) < PIG.parallelBenefit(Victim, Best))
          Best = C;
      Work.removeParallelEdge(Victim, Best);
      SelectGraph.removeEdge(Victim, Best);
      ++Out.ParallelEdgesDropped;
      continue;
    }

    // Step 4: spill by the generalized metric h*.
    unsigned Spill = ~0u;
    double BestH = std::numeric_limits<double>::infinity();
    for (unsigned V = 0; V != N; ++V) {
      if (Work.isRemoved(V))
        continue;
      double WeightSum = 0.0;
      for (unsigned U : Work.combined().neighborList(V))
        WeightSum += Work.weight(V, U, Opts);
      // All surviving vertices have degree >= r >= 1, but guard against a
      // zero weight sum from degenerate option settings.
      double H = WeightSum > 0.0
                     ? Costs[V] / WeightSum
                     : Costs[V];
      // The first survivor seeds the choice so a round of all-infinite
      // costs still makes progress.
      if (Spill == ~0u || H < BestH) {
        BestH = H;
        Spill = V;
      }
    }
    assert(Spill != ~0u && "no spill candidate among survivors");
    Out.SpilledWebs.push_back(Spill);
    Work.removeVertex(Spill);
  }

  if (Out.SpilledWebs.empty())
    assignColorsGreedy(SelectGraph, Stack, Out);
  return Out;
}

/// Tallies over a sweep, so a test can show it reached the regime it is
/// meant to cover.
struct SweepTally {
  unsigned Colorings = 0;
  unsigned Dropped = 0;
  unsigned Spilled = 0;
  unsigned SpillRounds = 0;
};

/// Colors \p PIG both ways and requires identical decisions.
void expectSameColoring(const ParallelInterferenceGraph &PIG,
                        const std::vector<double> &Costs, unsigned NumRegs,
                        const PinterOptions &Opts, const std::string &Where,
                        SweepTally &Tally) {
  Allocation Lib = pinterColor(PIG, Costs, NumRegs, Opts);
  Allocation Ref = pinterColorReference(PIG, Costs, NumRegs, Opts);
  EXPECT_EQ(Lib.ColorOfWeb, Ref.ColorOfWeb) << Where;
  EXPECT_EQ(Lib.SpilledWebs, Ref.SpilledWebs) << Where;
  EXPECT_EQ(Lib.ParallelEdgesDropped, Ref.ParallelEdgesDropped) << Where;
  EXPECT_EQ(Lib.NumColorsUsed, Ref.NumColorsUsed) << Where;
  ++Tally.Colorings;
  Tally.Dropped += Ref.ParallelEdgesDropped;
  Tally.Spilled += static_cast<unsigned>(Ref.SpilledWebs.size());
}

/// Drives pinterAllocate's color → insertSpillCode → rebuild loop on
/// \p Base, comparing the two colorings on every round's PIG. Round 0
/// additionally pins every fifth web to infinite cost; later rounds get
/// infinite costs from the reload temporaries.
void compareSpillRounds(const Function &Base, const MachineModel &M,
                        unsigned NumRegs, const PinterOptions &Opts,
                        const std::string &Where, SweepTally &Tally) {
  constexpr unsigned MaxRounds = 6;
  constexpr double Infinite = std::numeric_limits<double>::infinity();
  Function F = Base;
  std::set<Reg> NoSpillRegs;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    Webs W(F);
    InterferenceGraph IG(F, W);
    ParallelInterferenceGraph PIG(F, W, IG, M, Opts.UseRegions);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)) ||
          (Round == 0 && Web % 5 == 4))
        Costs[Web] = Infinite;

    std::string Here = Where + " round " + std::to_string(Round);
    Allocation Lib = pinterColor(PIG, Costs, NumRegs, Opts);
    expectSameColoring(PIG, Costs, NumRegs, Opts, Here, Tally);
    if (Lib.fullyColored())
      return;
    ++Tally.SpillRounds;
    insertSpillCode(F, W, Lib.SpilledWebs, NoSpillRegs);
  }
}

const CfgShape AllShapes[] = {CfgShape::Straight, CfgShape::Diamond,
                              CfgShape::Loop, CfgShape::NestedDiamond,
                              CfgShape::DoubleLoop};

MachineModel machineNumber(unsigned I) {
  switch (I) {
  case 0:
    return MachineModel::paperTwoUnit();
  case 1:
    return MachineModel::rs6000();
  default:
    return MachineModel::vliw4();
  }
}

/// (shape, machine) pairs: every shape on every machine.
class PinterReferenceSweep
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

} // namespace

TEST_P(PinterReferenceSweep, MatchesReferenceUnderPressure) {
  auto [ShapeIdx, MachineIdx] = GetParam();
  MachineModel M = machineNumber(MachineIdx);
  const unsigned RegCounts[] = {2, 3, 4, 6, 8, 12, 16};
  const std::pair<double, double> Weights[] = {
      {1, 1}, {1, 0}, {0, 1}, {1, 2}, {1, 4}};

  SweepTally Tally;
  for (unsigned Seed = 0; Seed != 2; ++Seed) {
    RandomProgramOptions Gen;
    Gen.Shape = AllShapes[ShapeIdx];
    Gen.InstructionsPerBlock = 7 + 3 * Seed + ShapeIdx % 3;
    Gen.FloatPercent = 30 + 20 * MachineIdx;
    Gen.MemoryPercent = 20;
    Gen.Seed = 1 + ShapeIdx * 7919 + MachineIdx * 104729 + Seed * 15485863;
    Function Base = generateRandomProgram(Gen);
    for (bool Regions : {false, true})
      for (unsigned R : RegCounts)
        for (auto [WI, WP] : Weights) {
          PinterOptions Opts;
          Opts.InterferenceWeight = WI;
          Opts.ParallelWeight = WP;
          Opts.UseRegions = Regions;
          std::string Where = "seed " + std::to_string(Seed) + " " +
                              M.name() + " r=" + std::to_string(R) +
                              " w=(" + std::to_string(WI) + "," +
                              std::to_string(WP) + ")" +
                              (Regions ? " regions" : "");
          compareSpillRounds(Base, M, R, Opts, Where, Tally);
        }
  }
  // The sweep must actually reach the pressure regime it exists for.
  EXPECT_GT(Tally.Dropped, 0u);
  EXPECT_GT(Tally.Spilled, 0u);
  EXPECT_GT(Tally.SpillRounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndMachines, PinterReferenceSweep,
    testing::Combine(testing::Range(0u, 5u), testing::Range(0u, 3u)));

TEST(PinterReference, MatchesOnPaperExamplesAtEveryBudget) {
  SweepTally Tally;
  for (const Function &F : {paperExample1(), paperExample2()}) {
    MachineModel M = MachineModel::paperTwoUnit();
    Webs W(F);
    InterferenceGraph IG(F, W);
    ParallelInterferenceGraph PIG(F, W, IG, M);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned R = 1; R != 9; ++R)
      expectSameColoring(PIG, Costs, R, {}, F.name() + " r=" +
                                                std::to_string(R),
                         Tally);
  }
  EXPECT_GT(Tally.Dropped, 0u);
}

TEST(PinterReference, MatchesWithOneRegister) {
  SweepTally Tally;
  for (unsigned ShapeIdx = 0; ShapeIdx != 5; ++ShapeIdx) {
    RandomProgramOptions Gen;
    Gen.Shape = AllShapes[ShapeIdx];
    Gen.InstructionsPerBlock = 8;
    Gen.Seed = 31 + ShapeIdx;
    Function F = generateRandomProgram(Gen);
    compareSpillRounds(F, MachineModel::vliw4(), 1, {},
                       "r=1 shape " + std::to_string(ShapeIdx), Tally);
  }
  EXPECT_GT(Tally.Spilled, 0u);
}

TEST(PinterReference, MatchesOnZeroWebGraph) {
  Function F;
  std::string Error;
  ASSERT_TRUE(parseFunction("func @empty regs 0 {\nblock entry:\n  ret\n}\n",
                            F, Error))
      << Error;
  Webs W(F);
  ASSERT_EQ(W.numWebs(), 0u);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::vliw4());
  SweepTally Tally;
  for (unsigned R : {1u, 4u})
    expectSameColoring(PIG, {}, R, {}, "zero webs", Tally);
  Allocation A = pinterColor(PIG, {}, 4);
  EXPECT_TRUE(A.fullyColored());
  EXPECT_EQ(A.NumColorsUsed, 0u);
}

TEST(PinterReference, SacrificedCounterSumsDroppedEdges) {
  // The counter is bumped once per pinterColor call by that call's drop
  // count; over a pressure run its delta must equal what the rounds
  // reported.
  const telemetry::Counter *Sacrificed = nullptr;
  for (const telemetry::Counter *C : telemetry::counters())
    if (std::string(C->name()) == "NumParallelEdgesSacrificed")
      Sacrificed = C;
  ASSERT_NE(Sacrificed, nullptr);

  RandomProgramOptions Gen;
  Gen.InstructionsPerBlock = 40;
  Gen.FloatPercent = 40;
  Gen.MemoryPercent = 25;
  Gen.Seed = 4242;
  Function F = generateRandomProgram(Gen);
  MachineModel M = MachineModel::rs6000(6);
  uint64_t Before = Sacrificed->value();
  PinterStats Stats = pinterAllocate(F, 6, M);
  uint64_t Delta = Sacrificed->value() - Before;
  EXPECT_GT(Stats.ParallelEdgesDropped, 0u);
  EXPECT_GT(Stats.Rounds, 1u);
  EXPECT_EQ(Delta, Stats.ParallelEdgesDropped);
}
