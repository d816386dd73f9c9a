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
#include "core/RegionFalseDeps.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "regalloc/InterferenceGraph.h"
#include "sched/EPTimes.h"
#include "support/BitMatrix.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <tuple>

using namespace pira;

PIRA_STAT(NumPigParallelEdges, "Parallel (Ep) edges added to PIGs");
PIRA_STAT(NumFdgParallelPairs,
          "Instruction pairs found co-issuable (Ef edges)");
PIRA_STAT(NumFdgMachineConstraintPairs,
          "Instruction pairs serialized by unit/width contention alone");
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
    const MachineModel &Machine, bool UseRegions) {
  PIRA_TIME_SCOPE("pig/build");
  assert(!F.isAllocated() && "the PIG is built over symbolic code");
  unsigned NumWebs = W.numWebs();
  Interference = IG.graph();
  DefHeight.assign(NumWebs, NoHeight);

  // Block-level Ef pairs between defining instructions, mapped to webs.
  // Ef is the complement of Et, and Et is sparse where Ef is dense, so
  // each def's Et row (its descendants, its ancestors and its
  // single-unit class) is mapped to webs and complemented there. That
  // is exact for the webs with one def in the block. Every pair with an
  // end in a web with two or more defs there, like every edge with a
  // multi-def end, is taken from the def's instruction-space Ef row.
  constexpr unsigned NoWeb = ~0u;
  BitMatrix Par(NumWebs);
  // Web-space rows, allocated once and cleared sparsely after each
  // block, and instruction-space rows, resized per block.
  BitVector SingleWebs(NumWebs), Ex(NumWebs), InstRow;
  std::array<BitVector, NumUnitKinds> ClassWebs, Base, ClassInsts;
  std::array<bool, NumUnitKinds> SingleUnit;
  for (unsigned K = 0; K != NumUnitKinds; ++K) {
    SingleUnit[K] = Machine.isSingleUnit(static_cast<UnitKind>(K));
    if (SingleUnit[K])
      ClassWebs[K].resize(NumWebs);
  }
  std::vector<unsigned> DefsInBlock(NumWebs, 0);
  std::vector<unsigned> WebOf, Kind, Defs, MultiDefInsts;
  bool Serial = Machine.issueWidth() == 1;
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    DependenceGraph Gs(F, B, Machine);
    std::vector<unsigned> Height = computeHeights(Gs);
    const BasicBlock &BB = F.block(B);
    unsigned N = BB.size();
    uint64_t AllPairs = uint64_t(N) * (N - (N != 0)) / 2;
    WebOf.assign(N, NoWeb);
    Kind.resize(N);
    Defs.clear();
    MultiDefInsts.clear();
    for (unsigned U = 0; U != N; ++U) {
      Kind[U] = static_cast<unsigned>(BB.inst(U).unit());
      if (!BB.inst(U).hasDef())
        continue;
      unsigned Web = W.webOfDef(B, U);
      WebOf[U] = Web;
      Defs.push_back(U);
      ++DefsInBlock[Web];
      if (W.defsOfWeb(Web).size() > 1)
        MultiDefInsts.push_back(U);
      else
        DefHeight[Web] = Height[U];
    }
    // A single-issue machine serializes every pair: Ef is empty.
    if (Serial) {
      NumFdgMachineConstraintPairs += AllPairs;
      for (unsigned U : Defs)
        DefsInBlock[WebOf[U]] = 0;
      continue;
    }

    BitMatrix Desc, Anc;
    {
      PIRA_TIME_SCOPE("pig/closure");
      Desc = Gs.reachability();
      Anc = Gs.ancestors();
    }

    // Ef's pair count, for the co-issue counter: all pairs, less the
    // closure's, less the single-unit class pairs the closure does not
    // already hold. The closure is sparse, so its bits are walked.
    uint64_t ClosurePairs = 0, ClassPairs = 0, ClassPairsInClosure = 0;
    std::array<uint64_t, NumUnitKinds> ClassSize{};
    for (unsigned U = 0; U != N; ++U) {
      unsigned KU = Kind[U];
      bool Single = SingleUnit[KU];
      ClassSize[KU] += Single;
      Desc.row(U).forEachSetBit([&](unsigned V) {
        ++ClosurePairs;
        ClassPairsInClosure += Single && Kind[V] == KU;
      });
    }
    for (uint64_t Size : ClassSize)
      ClassPairs += Size * (Size - (Size != 0)) / 2;
    NumFdgMachineConstraintPairs += ClassPairs;
    NumFdgParallelPairs +=
        AllPairs - ClosurePairs - (ClassPairs - ClassPairsInClosure);

    // Par(WU) |= SingleWebs - ClassWebs(unit U) - webs(Desc(U) ∪ Anc(U)),
    // from one base row per unit kind.
    for (unsigned U : Defs) {
      if (DefsInBlock[WebOf[U]] != 1)
        continue;
      SingleWebs.set(WebOf[U]);
      if (SingleUnit[Kind[U]])
        ClassWebs[Kind[U]].set(WebOf[U]);
    }
    for (unsigned K = 0; K != NumUnitKinds; ++K) {
      Base[K] = SingleWebs;
      if (SingleUnit[K])
        Base[K].subtract(ClassWebs[K]);
    }
    for (unsigned U : Defs) {
      InstRow = Desc.row(U);
      InstRow.unionWith(Anc.row(U));
      InstRow.forEachSetBit([&](unsigned V) {
        if (WebOf[V] != NoWeb)
          Ex.set(WebOf[V]);
      });
      BitVector &Row = Par.row(WebOf[U]);
      Row.unionWithDifference(Base[Kind[U]], Ex);
      Row.reset(WebOf[U]);
      Ex.resetAll();
    }

    // Every pair with a multi-def end, from the def's Ef row. Such an
    // edge takes the largest benefit of its inducing pairs: list every
    // pair, and max-merge them below.
    if (!MultiDefInsts.empty()) {
      for (unsigned K = 0; K != NumUnitKinds; ++K) {
        ClassInsts[K].resize(N);
        ClassInsts[K].resetAll();
      }
      for (unsigned U = 0; U != N; ++U)
        ClassInsts[Kind[U]].set(U);
      InstRow.resize(N);
    }
    for (unsigned U : MultiDefInsts) {
      InstRow.setAll();
      InstRow.subtract(Desc.row(U));
      InstRow.subtract(Anc.row(U));
      if (SingleUnit[Kind[U]])
        InstRow.subtract(ClassInsts[Kind[U]]);
      InstRow.reset(U);
      unsigned WU = WebOf[U];
      InstRow.forEachSetBit([&](unsigned V) {
        unsigned WV = WebOf[V];
        if (WV == NoWeb || WV == WU)
          return;
        Par.setSymmetric(WU, WV);
        auto [Lo, Hi] = std::minmax(WU, WV);
        Explicit.push_back(
            {Lo, Hi, static_cast<double>(Height[U] + Height[V])});
      });
    }

    for (unsigned U : Defs) {
      unsigned Web = WebOf[U];
      DefsInBlock[Web] = 0;
      SingleWebs.reset(Web);
      if (SingleUnit[Kind[U]])
        ClassWebs[Kind[U]].reset(Web);
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
