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
#include "core/RegionFalseDeps.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "regalloc/InterferenceGraph.h"
#include "sched/EPTimes.h"
#include "support/BitMatrix.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
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

double ParallelInterferenceGraph::parallelBenefit(unsigned A,
                                                  unsigned B) const {
  if (A == B || !Parallel.hasEdge(A, B))
    return 0.0;
  auto [Lo, Hi] = std::minmax(A, B);
  ParallelEdge Key{Lo, Hi, 0.0};
  auto It =
      std::lower_bound(Explicit.begin(), Explicit.end(), Key, EndpointsLess);
  if (It != Explicit.end() && It->A == Lo && It->B == Hi)
    return It->Benefit;
  return static_cast<double>(DefHeight[A] + DefHeight[B]);
}

ParallelInterferenceGraph::ParallelInterferenceGraph(
    const Function &F, const Webs &W, const InterferenceGraph &IG,
    const MachineModel &Machine, bool UseRegions,
    ThreadPool *ClosurePool) {
  PIRA_TIME_SCOPE("pig/build");
  assert(!F.isAllocated() && "the PIG is built over symbolic code");
  unsigned NumWebs = W.numWebs();
  Interference = IG.graph();
  DefHeight.assign(NumWebs, NoHeight);

  // Block-level Ef pairs between defining instructions, mapped to webs:
  // each def's Ef row is OR-ed into its web's row. Ef is symmetric, so
  // the web rows come out symmetric too.
  constexpr unsigned NoWeb = ~0u;
  BitMatrix Par(NumWebs);
  std::vector<unsigned> WebOf;
  std::vector<unsigned> MultiDefInsts;
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    DependenceGraph Gs(F, B, Machine);
    FalseDependenceGraph FDG(F, B, Gs, Machine, ClosurePool);
    std::vector<unsigned> Height = computeHeights(Gs);
    const BasicBlock &BB = F.block(B);
    WebOf.assign(BB.size(), NoWeb);
    MultiDefInsts.clear();
    for (unsigned U = 0, E = BB.size(); U != E; ++U) {
      if (!BB.inst(U).hasDef())
        continue;
      unsigned Web = W.webOfDef(B, U);
      WebOf[U] = Web;
      if (W.defsOfWeb(Web).size() > 1)
        MultiDefInsts.push_back(U);
      else
        DefHeight[Web] = Height[U];
    }
    const UndirectedGraph &Ef = FDG.parallelPairs();
    for (unsigned U = 0, E = BB.size(); U != E; ++U) {
      unsigned WU = WebOf[U];
      if (WU == NoWeb)
        continue;
      BitVector &Row = Par.row(WU);
      Ef.neighbors(U).forEachSetBit([&](unsigned V) {
        unsigned WV = WebOf[V];
        if (WV != NoWeb && WV != WU)
          Row.set(WV);
      });
    }
    // An edge with a multi-def end takes the largest benefit of its
    // inducing pairs: list every pair, and max-merge them below.
    for (unsigned U : MultiDefInsts)
      Ef.neighbors(U).forEachSetBit([&](unsigned V) {
        unsigned WV = WebOf[V];
        if (WV == NoWeb || WV == WebOf[U])
          return;
        auto [Lo, Hi] = std::minmax(WebOf[U], WV);
        Explicit.push_back(
            {Lo, Hi, static_cast<double>(Height[U] + Height[V])});
      });
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
          unsigned WA = W.webOfDef(BlockA, InstA);
          unsigned WB = W.webOfDef(BlockB, InstB);
          if (WA == WB)
            continue;
          Par.setSymmetric(WA, WB);
          auto [Lo, Hi] = std::minmax(WA, WB);
          Explicit.push_back({Lo, Hi, /*Benefit=*/1.0});
        }
      }
    }
  }

  // Max-merge each run of one web pair into its first entry.
  std::sort(Explicit.begin(), Explicit.end(), EndpointsLess);
  size_t Out = 0;
  for (size_t I = 0, E = Explicit.size(); I != E; ++I) {
    if (Out != 0 && Explicit[Out - 1].A == Explicit[I].A &&
        Explicit[Out - 1].B == Explicit[I].B) {
      Explicit[Out - 1].Benefit =
          std::max(Explicit[Out - 1].Benefit, Explicit[I].Benefit);
      continue;
    }
    Explicit[Out++] = Explicit[I];
  }
  Explicit.resize(Out);
  Explicit.shrink_to_fit();

  BitMatrix Both(NumWebs);
  for (unsigned V = 0; V != NumWebs; ++V) {
    Both.row(V) = Interference.neighbors(V);
    Both.row(V).unionWith(Par.row(V));
  }
  Parallel = UndirectedGraph::fromSymmetric(std::move(Par));
  Combined = UndirectedGraph::fromSymmetric(std::move(Both));
  NumPigParallelEdges += Parallel.numEdges();
}
