//===- core/ParallelInterferenceGraph.cpp - The paper's PIG ---------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "core/ParallelInterferenceGraph.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Regions.h"
#include "analysis/Webs.h"
#include "core/FalseDependenceGraph.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "regalloc/InterferenceGraph.h"
#include "sched/EPTimes.h"
#include "support/BitMatrix.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>
#include <tuple>

using namespace pira;

PIRA_STAT(NumPigParallelEdges, "Parallel (Ep) edges added to PIGs");
PIRA_STAT(NumPigRegionPairs,
          "Cross-block parallel pairs found by the region extension");

/// Orders parallel edges by their endpoints (A, B). A lambda rather than
/// a function so std::sort inlines it.
static constexpr auto EndpointsLess = [](const ParallelEdge &X,
                                         const ParallelEdge &Y) {
  return std::tie(X.A, X.B) < std::tie(Y.A, Y.B);
};

void ParallelInterferenceGraph::addParallelEdge(unsigned WebA, unsigned WebB,
                                                double BenefitValue) {
  if (WebA == WebB)
    return;
  auto [Lo, Hi] = std::minmax(WebA, WebB);
  Edges.push_back({Lo, Hi, BenefitValue});
}

void ParallelInterferenceGraph::finishEdges() {
  NumPigParallelEdges += Edges.size();
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
  Edges.shrink_to_fit();
  for (const ParallelEdge &E : Edges) {
    Parallel.addEdge(E.A, E.B);
    Combined.addEdge(E.A, E.B);
  }
}

double ParallelInterferenceGraph::parallelBenefit(unsigned A,
                                                  unsigned B) const {
  auto [Lo, Hi] = std::minmax(A, B);
  ParallelEdge Key{Lo, Hi, 0.0};
  auto It = std::lower_bound(Edges.begin(), Edges.end(), Key, EndpointsLess);
  return It != Edges.end() && It->A == Lo && It->B == Hi ? It->Benefit : 0.0;
}

unsigned ParallelInterferenceGraph::numParallelOnlyEdges() const {
  unsigned Count = 0;
  for (const ParallelEdge &E : Edges)
    if (!Interference.hasEdge(E.A, E.B))
      ++Count;
  return Count;
}

namespace {

/// Cross-block false-dependence discovery for one acyclic
/// control-equivalent region: a conservative combined schedule graph over
/// the region's instructions, closed and complemented like the
/// single-block construction.
class RegionFalseDeps {
public:
  RegionFalseDeps(const Function &F, const Webs &W,
                  const std::vector<unsigned> &Blocks)
      : F(F) {
    for (unsigned B : Blocks)
      for (unsigned I = 0, E = F.block(B).size(); I != E; ++I)
        Nodes.emplace_back(B, I);
    unsigned N = static_cast<unsigned>(Nodes.size());
    Deps = BitMatrix(N);

    // Which arrays each intervening block may write (for the cross-block
    // memory barrier rule).
    BitMatrix BlockReach(F.numBlocks());
    for (unsigned B = 0, E = F.numBlocks(); B != E; ++B)
      for (unsigned S : F.block(B).successors())
        BlockReach.set(B, S);
    BlockReach.transitiveClosure();

    std::set<unsigned> InRegion(Blocks.begin(), Blocks.end());
    auto InterveningStoreTo = [&](unsigned From, unsigned To,
                                  const std::string &Array) {
      for (unsigned P = 0, E = F.numBlocks(); P != E; ++P) {
        if (InRegion.count(P) || !BlockReach.test(From, P) ||
            !BlockReach.test(P, To))
          continue;
        for (const Instruction &I : F.block(P).instructions())
          if (I.opcode() == Opcode::Store && I.arraySymbol() == Array)
            return true;
      }
      return false;
    };

    for (unsigned A = 0; A != N; ++A) {
      const Instruction &IA = instAt(A);
      for (unsigned B = A + 1; B != N; ++B) {
        const Instruction &IB = instAt(B);
        bool SameBlock = Nodes[A].first == Nodes[B].first;
        if (orders(W, A, IA, B, IB, SameBlock, InterveningStoreTo))
          Deps.set(A, B);
      }
    }
    Deps.transitiveClosure();
  }

  /// Returns true when nodes \p A and \p B (region indices) may issue in
  /// the same cycle under \p Machine.
  bool canIssueTogether(unsigned A, unsigned B,
                        const MachineModel &Machine) const {
    if (Deps.test(A, B) || Deps.test(B, A))
      return false;
    if (Machine.issueWidth() == 1)
      return false;
    UnitKind KA = instAt(A).unit();
    if (KA == instAt(B).unit() && Machine.isSingleUnit(KA))
      return false;
    return true;
  }

  const std::vector<std::pair<unsigned, unsigned>> &nodes() const {
    return Nodes;
  }

  const Instruction &instAt(unsigned Node) const {
    return F.block(Nodes[Node].first).inst(Nodes[Node].second);
  }

private:
  /// Decides whether region node A must precede region node B (A earlier
  /// in region order).
  template <typename BarrierFn>
  bool orders(const Webs &W, unsigned A, const Instruction &IA, unsigned B,
              const Instruction &IB, bool SameBlock,
              BarrierFn &&InterveningStoreTo) const {
    auto [BlockA, InstA] = Nodes[A];
    auto [BlockB, InstB] = Nodes[B];

    // Flow: A defines the web one of B's operands reads.
    if (IA.hasDef()) {
      unsigned DefWeb = W.webOfDef(BlockA, InstA);
      for (unsigned Op = 0, OE = static_cast<unsigned>(IB.uses().size());
           Op != OE; ++Op)
        if (W.webOfUse(BlockB, InstB, Op) == DefWeb)
          return true;
      // Output on a compound web (defs on both sides; Claim 2 territory).
      if (IB.hasDef() && W.webOfDef(BlockB, InstB) == DefWeb)
        return true;
    }
    // Anti: B redefines a web A reads (same compound web).
    if (IB.hasDef()) {
      unsigned DefWeb = W.webOfDef(BlockB, InstB);
      for (unsigned Op = 0, OE = static_cast<unsigned>(IA.uses().size());
           Op != OE; ++Op)
        if (W.webOfUse(BlockA, InstA, Op) == DefWeb)
          return true;
    }

    // Memory ordering (loads commute; everything else is conservative,
    // plus a barrier when a block between the two writes the array).
    if (IA.isMemory() && IB.isMemory() &&
        !(IA.opcode() == Opcode::Load && IB.opcode() == Opcode::Load)) {
      if (!memoryProvablyDisjoint(F, IA, IB))
        return true;
      if (!SameBlock && InterveningStoreTo(BlockA, BlockB, IA.arraySymbol()))
        return true;
    }
    // A store is also ordered against intervening writes of its array even
    // when region endpoints are provably disjoint loads/stores — handled
    // above; loads pairs need the barrier too when crossing blocks.
    if (IA.isMemory() && IB.isMemory() && !SameBlock &&
        IA.arraySymbol() == IB.arraySymbol() &&
        InterveningStoreTo(BlockA, BlockB, IA.arraySymbol()))
      return true;

    // Control: anything precedes its own block's terminator; terminators
    // keep their block order. Cross-block non-terminator pairs float (the
    // paper "logically ignores" control edges inside a region).
    if (SameBlock && IB.isTerminator())
      return true;
    if (!SameBlock && IA.isTerminator() && IB.isTerminator())
      return true;
    return false;
  }

  const Function &F;
  std::vector<std::pair<unsigned, unsigned>> Nodes;
  BitMatrix Deps;
};

} // namespace

ParallelInterferenceGraph::ParallelInterferenceGraph(
    const Function &F, const Webs &W, const InterferenceGraph &IG,
    const MachineModel &Machine, bool UseRegions,
    ThreadPool *ClosurePool) {
  PIRA_TIME_SCOPE("pig/build");
  assert(!F.isAllocated() && "the PIG is built over symbolic code");
  unsigned NumWebs = W.numWebs();
  Interference = UndirectedGraph(NumWebs);
  Parallel = UndirectedGraph(NumWebs);
  Combined = UndirectedGraph(NumWebs);

  Interference.unionWith(IG.graph());
  Combined.unionWith(IG.graph());

  // Block-level Ef pairs between defining instructions, mapped to webs.
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    DependenceGraph Gs(F, B, Machine);
    FalseDependenceGraph FDG(F, B, Gs, Machine, ClosurePool);
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
    PIRA_TIME_SCOPE("pig/regions");
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
          ++NumPigRegionPairs;
          addParallelEdge(W.webOfDef(BlockA, InstA),
                          W.webOfDef(BlockB, InstB), /*Benefit=*/1.0);
        }
      }
    }
  }
  finishEdges();
}
