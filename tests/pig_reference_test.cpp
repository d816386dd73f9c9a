//===- tests/pig_reference_test.cpp - PIG construction oracle -------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The bit-row ParallelInterferenceGraph checked against the pair-list
// construction it replaced, kept here as ReferencePig (verbatim but for
// its telemetry and the closure pool, which cannot change a result): every
// defining instruction pair of a block's Ef, and every plausible region
// pair, becomes one ParallelEdge, and one sort with a max-merge dedups
// them. For every pair of webs, not only for edges, the two builds must
// agree on the three edge families, the degrees, the parallel-only edge
// count and the scheduling benefit. The inputs cover the kernels, every
// CFG shape, three machines, the region extension on and off, and every
// round of a real color/spill/rebuild loop.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Regions.h"
#include "analysis/Webs.h"
#include "core/FalseDependenceGraph.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "core/RegionFalseDeps.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/EPTimes.h"
#include "support/Telemetry.h"
#include "support/UndirectedGraph.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>

using namespace pira;

namespace {

/// Orders parallel edges by their endpoints (A, B).
constexpr auto EndpointsLess = [](const ParallelEdge &X,
                                  const ParallelEdge &Y) {
  return std::tie(X.A, X.B) < std::tie(Y.A, Y.B);
};

/// The PIG as first built: one appended ParallelEdge per inducing
/// instruction pair, sorted and max-merged into a flat (A, B)-ordered
/// array, with the benefit looked up by binary search.
class ReferencePig {
public:
  ReferencePig(const Function &F, const Webs &W, const InterferenceGraph &IG,
               const MachineModel &Machine, bool UseRegions) {
    unsigned NumWebs = W.numWebs();
    Interference = UndirectedGraph(NumWebs);
    Parallel = UndirectedGraph(NumWebs);
    Combined = UndirectedGraph(NumWebs);

    Interference.unionWith(IG.graph());
    Combined.unionWith(IG.graph());

    // Block-level Ef pairs between defining instructions, mapped to webs.
    for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
      DependenceGraph Gs(F, B, Machine);
      FalseDependenceGraph FDG(F, B, Gs, Machine);
      std::vector<unsigned> Height = computeHeights(Gs);
      const BasicBlock &BB = F.block(B);
      for (const auto &[U, V] : FDG.parallelPairs().edgeList()) {
        if (!BB.inst(U).hasDef() || !BB.inst(V).hasDef())
          continue;
        addParallelEdge(W.webOfDef(B, U), W.webOfDef(B, V),
                        static_cast<double>(Height[U] + Height[V]));
      }
    }

    if (UseRegions) {
      // Global extension: Ef pairs across the blocks of each region.
      RegionAnalysis RA(F);
      for (const std::vector<unsigned> &Blocks : RA.regions()) {
        if (Blocks.size() < 2)
          continue;
        RegionFalseDeps RFD(F, W, Blocks);
        unsigned N = static_cast<unsigned>(RFD.nodes().size());
        for (unsigned A = 0; A != N; ++A) {
          const Instruction &IA = RFD.instAt(A);
          if (!IA.hasDef())
            continue;
          for (unsigned B2 = A + 1; B2 != N; ++B2) {
            const Instruction &IB = RFD.instAt(B2);
            if (!IB.hasDef())
              continue;
            if (RFD.nodes()[A].first == RFD.nodes()[B2].first)
              continue; // intra-block pairs were handled exactly above
            if (!RFD.canIssueTogether(A, B2, Machine))
              continue;
            auto [BlockA, InstA] = RFD.nodes()[A];
            auto [BlockB, InstB] = RFD.nodes()[B2];
            addParallelEdge(W.webOfDef(BlockA, InstA),
                            W.webOfDef(BlockB, InstB), /*Benefit=*/1.0);
          }
        }
      }
    }
    finishEdges();
  }

  const UndirectedGraph &interference() const { return Interference; }
  const UndirectedGraph &parallel() const { return Parallel; }
  const UndirectedGraph &combined() const { return Combined; }

  double parallelBenefit(unsigned A, unsigned B) const {
    auto [Lo, Hi] = std::minmax(A, B);
    ParallelEdge Key{Lo, Hi, 0.0};
    auto It = std::lower_bound(Edges.begin(), Edges.end(), Key, EndpointsLess);
    return It != Edges.end() && It->A == Lo && It->B == Hi ? It->Benefit
                                                           : 0.0;
  }

  unsigned numParallelOnlyEdges() const {
    unsigned Count = 0;
    for (const ParallelEdge &E : Edges)
      if (!Interference.hasEdge(E.A, E.B))
        ++Count;
    return Count;
  }

  /// Inducing pairs appended before the max-merge.
  size_t numInducingPairs() const { return NumPairs; }

private:
  void addParallelEdge(unsigned WebA, unsigned WebB, double BenefitValue) {
    if (WebA == WebB)
      return;
    auto [Lo, Hi] = std::minmax(WebA, WebB);
    Edges.push_back({Lo, Hi, BenefitValue});
  }

  void finishEdges() {
    NumPairs = Edges.size();
    std::sort(Edges.begin(), Edges.end(), EndpointsLess);
    // Max-merge each run of one web pair into its first entry.
    size_t Out = 0;
    for (size_t I = 0, E = Edges.size(); I != E; ++I) {
      if (Out != 0 && Edges[Out - 1].A == Edges[I].A &&
          Edges[Out - 1].B == Edges[I].B) {
        Edges[Out - 1].Benefit =
            std::max(Edges[Out - 1].Benefit, Edges[I].Benefit);
        continue;
      }
      Edges[Out++] = Edges[I];
    }
    Edges.resize(Out);
    for (const ParallelEdge &E : Edges) {
      Parallel.addEdge(E.A, E.B);
      Combined.addEdge(E.A, E.B);
    }
  }

  UndirectedGraph Interference;
  UndirectedGraph Parallel;
  UndirectedGraph Combined;
  std::vector<ParallelEdge> Edges;
  size_t NumPairs = 0;
};

/// Tallies over a sweep, so a test can show it reached the cases it is
/// meant to cover.
struct PigTally {
  unsigned Graphs = 0;
  unsigned SpillRounds = 0;
  unsigned MultiDefWebs = 0;
  unsigned ExplicitEdges = 0;
  unsigned RegionGraphs = 0;
};

void expectSameFamily(const UndirectedGraph &Lib, const UndirectedGraph &Ref,
                      const char *Family, const std::string &Where) {
  ASSERT_EQ(Lib.numVertices(), Ref.numVertices()) << Family << " " << Where;
  EXPECT_EQ(Lib.numEdges(), Ref.numEdges()) << Family << " " << Where;
  for (unsigned V = 0, N = Ref.numVertices(); V != N; ++V) {
    EXPECT_EQ(Lib.neighbors(V), Ref.neighbors(V))
        << Family << " row " << V << " " << Where;
    EXPECT_EQ(Lib.degree(V), Ref.degree(V))
        << Family << " degree " << V << " " << Where;
  }
}

/// Builds both PIGs of \p F and requires them to agree everywhere.
void expectSamePig(const Function &F, const MachineModel &M, bool Regions,
                   const std::string &Where, PigTally &Tally) {
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph Lib(F, W, IG, M, Regions);
  ReferencePig Ref(F, W, IG, M, Regions);
  expectSameFamily(Lib.interference(), Ref.interference(), "Er", Where);
  expectSameFamily(Lib.parallel(), Ref.parallel(), "parallel", Where);
  expectSameFamily(Lib.combined(), Ref.combined(), "combined", Where);
  EXPECT_EQ(Lib.numParallelOnlyEdges(), Ref.numParallelOnlyEdges()) << Where;
  unsigned N = W.numWebs();
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      ASSERT_EQ(Lib.parallelBenefit(A, B), Ref.parallelBenefit(A, B))
          << "{" << A << ", " << B << "} " << Where;

  // The explicit list is a sorted, duplicate-free subset of the parallel
  // edges; every other parallel edge joins two single-def webs.
  const std::vector<ParallelEdge> &Explicit = Lib.explicitEdges();
  for (size_t I = 0; I != Explicit.size(); ++I) {
    const ParallelEdge &E = Explicit[I];
    EXPECT_LT(E.A, E.B) << Where;
    EXPECT_TRUE(Lib.parallel().hasEdge(E.A, E.B)) << Where;
    if (I != 0) {
      EXPECT_TRUE(EndpointsLess(Explicit[I - 1], E)) << Where;
    }
  }
  for (unsigned A = 0; A != N; ++A)
    Lib.parallel().neighbors(A).forEachSetBit([&](unsigned B) {
      if (Lib.defHeight(A) != ParallelInterferenceGraph::NoHeight &&
          Lib.defHeight(B) != ParallelInterferenceGraph::NoHeight)
        return;
      EXPECT_TRUE(std::binary_search(Explicit.begin(), Explicit.end(),
                                     ParallelEdge{std::min(A, B),
                                                  std::max(A, B), 0.0},
                                     EndpointsLess))
          << "{" << A << ", " << B << "} " << Where;
    });

  ++Tally.Graphs;
  Tally.ExplicitEdges += static_cast<unsigned>(Explicit.size());
  Tally.RegionGraphs += Regions;
  for (unsigned Web = 0; Web != N; ++Web)
    Tally.MultiDefWebs += W.defsOfWeb(Web).size() > 1;
}

/// Compares the two builds on every round of pinterAllocate's color →
/// insertSpillCode → rebuild loop at \p NumRegs registers.
void compareSpillRounds(const Function &Base, const MachineModel &M,
                        unsigned NumRegs, bool Regions,
                        const std::string &Where, PigTally &Tally) {
  constexpr unsigned MaxRounds = 6;
  Function F = Base;
  std::set<Reg> NoSpillRegs;
  PinterOptions Opts;
  Opts.UseRegions = Regions;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    std::string Here = Where + " round " + std::to_string(Round);
    expectSamePig(F, M, Regions, Here, Tally);
    Webs W(F);
    InterferenceGraph IG(F, W);
    ParallelInterferenceGraph PIG(F, W, IG, M, Regions);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)))
        Costs[Web] = std::numeric_limits<double>::infinity();
    Allocation A = pinterColor(PIG, Costs, NumRegs, Opts);
    if (A.fullyColored())
      return;
    ++Tally.SpillRounds;
    insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
  }
}

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

const CfgShape AllShapes[] = {CfgShape::Straight, CfgShape::Diamond,
                              CfgShape::Loop, CfgShape::NestedDiamond,
                              CfgShape::DoubleLoop};

/// Parallel-edge counter, looked up by name.
const telemetry::Counter *parallelEdgeCounter() {
  for (const telemetry::Counter *C : telemetry::counters())
    if (std::string(C->name()) == "NumPigParallelEdges")
      return C;
  return nullptr;
}

} // namespace

TEST(PigReference, MatchesOnEveryKernel) {
  PigTally Tally;
  for (unsigned MachineIdx = 0; MachineIdx != 3; ++MachineIdx) {
    MachineModel M = machineNumber(MachineIdx);
    for (const auto &[Name, F] : standardKernelSuite())
      for (bool Regions : {false, true})
        compareSpillRounds(F, M, 6, Regions,
                           Name + " " + M.name() +
                               (Regions ? " regions" : ""),
                           Tally);
  }
  EXPECT_GT(Tally.SpillRounds, 0u);
  EXPECT_GT(Tally.MultiDefWebs, 0u);
  EXPECT_GT(Tally.ExplicitEdges, 0u);
}

TEST(PigReference, MatchesOnEveryShapeAndMachine) {
  PigTally Tally;
  for (unsigned ShapeIdx = 0; ShapeIdx != 5; ++ShapeIdx)
    for (unsigned MachineIdx = 0; MachineIdx != 3; ++MachineIdx)
      for (unsigned Seed = 0; Seed != 2; ++Seed) {
        RandomProgramOptions Gen;
        Gen.Shape = AllShapes[ShapeIdx];
        Gen.InstructionsPerBlock = 9 + 4 * Seed + ShapeIdx % 3;
        Gen.FloatPercent = 30 + 20 * MachineIdx;
        Gen.MemoryPercent = 20;
        Gen.Seed = 11 + ShapeIdx * 7919 + MachineIdx * 104729 + Seed * 613;
        Function Base = generateRandomProgram(Gen);
        MachineModel M = machineNumber(MachineIdx);
        for (bool Regions : {false, true})
          for (unsigned R : {3u, 6u})
            compareSpillRounds(Base, M, R, Regions,
                               "shape " + std::to_string(ShapeIdx) +
                                   " seed " + std::to_string(Seed) + " " +
                                   M.name() + " r=" + std::to_string(R) +
                                   (Regions ? " regions" : ""),
                               Tally);
      }
  EXPECT_GT(Tally.SpillRounds, 0u);
  EXPECT_GT(Tally.MultiDefWebs, 0u);
  EXPECT_GT(Tally.ExplicitEdges, 0u);
  EXPECT_GT(Tally.RegionGraphs, 0u);
}

TEST(PigReference, MatchesOnPaperExamples) {
  PigTally Tally;
  for (const Function &F : {paperExample1(), paperExample2(),
                            figure6Diamond()})
    for (bool Regions : {false, true})
      expectSamePig(F, MachineModel::paperTwoUnit(), Regions, F.name(),
                    Tally);
  EXPECT_EQ(Tally.Graphs, 6u);
}

TEST(PigReference, ParallelEdgeCounterCountsDistinctEdges) {
  // The counter adds each PIG's distinct parallel edges. Pairs of
  // instructions that induce one web pair twice (a multi-def web, or a
  // region pair) must not count twice.
  const telemetry::Counter *Counter = parallelEdgeCounter();
  ASSERT_NE(Counter, nullptr);
  std::vector<std::pair<std::string, Function>> Suite = standardKernelSuite();
  auto kernel = [&Suite](const std::string &Name) -> const Function & {
    for (const auto &[N, F] : Suite)
      if (N == Name)
        return F;
    ADD_FAILURE() << "no kernel " << Name;
    return Suite.front().second;
  };
  const std::tuple<const char *, bool> Cases[] = {
      {"dot-u4", false}, {"twoloops", true}, {"tridiag", true}};
  MachineModel M = MachineModel::vliw4();
  for (const auto &[Name, Regions] : Cases) {
    const Function &F = kernel(Name);
    Webs W(F);
    InterferenceGraph IG(F, W);
    uint64_t Before = Counter->value();
    ParallelInterferenceGraph PIG(F, W, IG, M, Regions);
    uint64_t Delta = Counter->value() - Before;
    EXPECT_EQ(Delta, PIG.parallel().numEdges()) << Name;
    // The case is only meaningful when some web pair is induced twice.
    ReferencePig Ref(F, W, IG, M, Regions);
    EXPECT_GT(Ref.numInducingPairs(), PIG.parallel().numEdges()) << Name;
  }
}
