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
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <tuple>

using namespace pira;

PIRA_STAT(NumPigParallelEdges, "Parallel (Ep) edges added to PIGs");
PIRA_STAT(NumPigEtPairs,
          "Et pairs of one-def webs the PIGs' groups leave out of Ep");
PIRA_STAT(NumPigLemma3Edges,
          "PIG edges in both families (Ef and Er, Lemma 3)");
PIRA_STAT(NumPigMaterializations,
          "PIG parallel or combined adjacency built on request");
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

ParallelInterferenceGraph::ParallelInterferenceGraph(
    const Function &F, const Webs &W, const InterferenceGraph &IG,
    const MachineModel &Machine, bool UseRegions)
    : Interference(IG.graph()) {
  PIRA_TIME_SCOPE("pig/build");
  assert(!F.isAllocated() && "the PIG is built over symbolic code");
  constexpr unsigned NoWeb = ~0u, NoGroup = ParallelFamily::NoGroup;
  unsigned NumWebs = W.numWebs();
  assert(IG.numWebs() == NumWebs && "interference graph of another partition");
  DefHeight.assign(NumWebs, NoHeight);
  GroupOf.assign(NumWebs, NoGroup);
  BothDegree.assign(NumWebs, 0);
  CompatibleStart.assign(1, 0);
  std::array<bool, NumUnitKinds> SingleUnit;
  for (unsigned K = 0; K != NumUnitKinds; ++K)
    SingleUnit[K] = Machine.isSingleUnit(static_cast<UnitKind>(K));
  // A single-issue machine serializes every pair: Ef is empty.
  bool Serial = Machine.issueWidth() == 1;

  // Block-level Ef pairs between defining instructions, mapped to webs.
  // Ef is the complement of Et. A web with one def (a member) joins the
  // group of its def's (block, unit kind), and a member's parallel
  // neighbours are the members of its compatible groups less its Et
  // pairs, so only the Et pairs, the sparse side, are collected. Every
  // pair with an end in a web of several defs is taken from the def's
  // instruction-space Ef row and listed explicitly.
  //
  // Per unit kind, the block's members a def of that kind may co-issue
  // with, as web-space rows set and cleared sparsely per block, to count
  // a member's interference neighbours among its compatible groups.
  std::array<BitVector, NumUnitKinds> CompatibleMembers;
  for (BitVector &Row : CompatibleMembers)
    Row.resize(NumWebs);
  // Instruction-space rows of the current block: its members' defs, its
  // instructions per unit kind, and per kind the members it may co-issue
  // with.
  BitVector MemberInsts;
  std::array<BitVector, NumUnitKinds> ClassInsts, CompatibleInsts;
  std::vector<std::pair<unsigned, unsigned>> EtPairs;
  std::vector<unsigned> WebOf, MemberWeb, Kind, Members, MultiDefInsts,
      BlockKinds;
  BitVector InstRow;
  uint64_t CompatiblePairs = 0;
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    DependenceGraph Gs(F, B, Machine);
    std::vector<unsigned> Height = computeHeights(Gs);
    const BasicBlock &BB = F.block(B);
    unsigned N = BB.size();
    uint64_t AllPairs = uint64_t(N) * (N - (N != 0)) / 2;
    WebOf.assign(N, NoWeb);
    Kind.resize(N);
    Members.clear();
    MultiDefInsts.clear();
    BlockKinds.clear();
    // The block's groups are numbered from FirstGroup in order of their
    // first member.
    unsigned FirstGroup = static_cast<unsigned>(CompatibleStart.size() - 1);
    std::array<unsigned, NumUnitKinds> GroupOfKind;
    GroupOfKind.fill(NoGroup);
    std::array<uint64_t, NumUnitKinds> GroupSize{};
    for (unsigned U = 0; U != N; ++U) {
      unsigned K = static_cast<unsigned>(BB.inst(U).unit());
      Kind[U] = K;
      if (!BB.inst(U).hasDef())
        continue;
      unsigned Web = W.webOfDef(B, U);
      WebOf[U] = Web;
      if (W.defsOfWeb(Web).size() > 1) {
        MultiDefInsts.push_back(U);
        continue;
      }
      DefHeight[Web] = Height[U];
      Members.push_back(U);
      if (GroupOfKind[K] == NoGroup) {
        GroupOfKind[K] = FirstGroup + static_cast<unsigned>(BlockKinds.size());
        BlockKinds.push_back(K);
      }
      GroupOf[Web] = GroupOfKind[K];
      ++GroupSize[K];
    }
    // Each group is compatible with the block's other groups, and with
    // itself unless its kind has one unit.
    for (unsigned I = 0, E = static_cast<unsigned>(BlockKinds.size()); I != E;
         ++I) {
      unsigned KI = BlockKinds[I];
      if (!Serial) {
        for (unsigned J = 0; J != E; ++J)
          if (J != I || !SingleUnit[KI])
            Compatible.push_back(FirstGroup + J);
        for (unsigned J = I + 1; J != E; ++J)
          CompatiblePairs += GroupSize[KI] * GroupSize[BlockKinds[J]];
        if (!SingleUnit[KI])
          CompatiblePairs += GroupSize[KI] * (GroupSize[KI] - 1) / 2;
      }
      CompatibleStart.push_back(static_cast<unsigned>(Compatible.size()));
    }
    if (Serial) {
      NumFdgMachineConstraintPairs += AllPairs;
      continue;
    }

    // Only a def of a multi-def web needs its ancestors, for its
    // instruction-space Ef row below.
    BitMatrix Desc, Anc;
    {
      PIRA_TIME_SCOPE("pig/closure");
      Desc = Gs.reachability();
      if (!MultiDefInsts.empty())
        Anc = Gs.ancestors();
    }

    // One walk of the closure: Ef's pair count for the co-issue counters
    // (all pairs, less the closure's, less the single-unit class pairs
    // the closure does not already hold), counted word-parallel over the
    // descendants, which follow U; and the Et pairs of compatible
    // members, read from a member's row under the mask of the members
    // its kind may co-issue with.
    uint64_t ClosurePairs = 0, ClassPairs = 0, ClassPairsInClosure = 0;
    std::array<uint64_t, NumUnitKinds> ClassSize{};
    MemberWeb.assign(N, NoWeb);
    MemberInsts.resize(N);
    MemberInsts.resetAll();
    for (unsigned K = 0; K != NumUnitKinds; ++K) {
      ClassInsts[K].resize(N);
      ClassInsts[K].resetAll();
    }
    for (unsigned U = 0; U != N; ++U)
      ClassInsts[Kind[U]].set(U);
    for (unsigned U : Members) {
      MemberWeb[U] = WebOf[U];
      MemberInsts.set(U);
    }
    for (unsigned K = 0; K != NumUnitKinds; ++K) {
      CompatibleInsts[K] = MemberInsts;
      if (SingleUnit[K])
        CompatibleInsts[K].subtract(ClassInsts[K]);
    }
    for (unsigned U = 0; U != N; ++U) {
      const BitVector &Row = Desc.row(U);
      unsigned KU = Kind[U];
      bool Single = SingleUnit[KU];
      ClassSize[KU] += Single;
      ClosurePairs += Row.count(U + 1, N);
      if (Single)
        ClassPairsInClosure += Row.countCommon(ClassInsts[KU], U + 1, N);
      if (unsigned WU = MemberWeb[U]; WU != NoWeb)
        Row.forEachCommonSetBit(CompatibleInsts[KU], [&](unsigned V) {
          EtPairs.push_back({WU, MemberWeb[V]});
        });
    }
    for (uint64_t Size : ClassSize)
      ClassPairs += Size * (Size - (Size != 0)) / 2;
    NumFdgMachineConstraintPairs += ClassPairs;
    NumFdgParallelPairs +=
        AllPairs - ClosurePairs - (ClassPairs - ClassPairsInClosure);

    // Each member's interference neighbours among the members of its
    // compatible groups, in one pass over the web range the block's
    // members span. Those that are Et pairs are taken off below.
    if (!Members.empty()) {
      unsigned Lo = NumWebs, Hi = 0;
      for (unsigned U : Members) {
        for (unsigned K = 0; K != NumUnitKinds; ++K)
          if (K != Kind[U] || !SingleUnit[K])
            CompatibleMembers[K].set(WebOf[U]);
        Lo = std::min(Lo, WebOf[U]);
        Hi = std::max(Hi, WebOf[U] + 1);
      }
      for (unsigned U : Members)
        BothDegree[WebOf[U]] = Interference.neighbors(WebOf[U]).countCommon(
            CompatibleMembers[Kind[U]], Lo, Hi);
      for (unsigned U : Members)
        for (unsigned K = 0; K != NumUnitKinds; ++K)
          CompatibleMembers[K].reset(WebOf[U]);
    }

    // Every pair with a multi-def end, from the def's Ef row. Such an
    // edge takes the largest benefit of its inducing pairs: list every
    // pair, and max-merge them below.
    if (MultiDefInsts.empty())
      continue;
    InstRow.resize(N);
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
        auto [Lo, Hi] = std::minmax(WU, WV);
        Explicit.push_back(
            {Lo, Hi, static_cast<double>(Height[U] + Height[V])});
      });
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

  // Each web's Et partners, ascending.
  EtStart.assign(NumWebs + 1, 0);
  for (const auto &[A, B] : EtPairs) {
    ++EtStart[A + 1];
    ++EtStart[B + 1];
  }
  for (unsigned V = 0; V != NumWebs; ++V)
    EtStart[V + 1] += EtStart[V];
  EtPartners.resize(EtStart[NumWebs]);
  {
    std::vector<unsigned> Fill(EtStart.begin(), EtStart.end() - 1);
    for (const auto &[A, B] : EtPairs) {
      EtPartners[Fill[A]++] = B;
      EtPartners[Fill[B]++] = A;
    }
  }
  // Closure rows arrive in instruction order, and webs are numbered in
  // the order of their defs, so most rows are sorted already.
  for (unsigned V = 0; V != NumWebs; ++V) {
    auto Begin = EtPartners.begin() + EtStart[V];
    auto End = EtPartners.begin() + EtStart[V + 1];
    if (!std::is_sorted(Begin, End))
      std::sort(Begin, End);
  }

  // The Lemma 3 edges: an Et pair is no parallel edge, and an explicit
  // edge in Er is one.
  for (const auto &[A, B] : EtPairs)
    if (Interference.hasEdge(A, B)) {
      --BothDegree[A];
      --BothDegree[B];
    }
  for (const ParallelEdge &E : Explicit)
    if (Interference.hasEdge(E.A, E.B)) {
      ++BothDegree[E.A];
      ++BothDegree[E.B];
    }
  NumLemma3 = static_cast<unsigned>(
      std::accumulate(BothDegree.begin(), BothDegree.end(), uint64_t(0)) / 2);
  NumParallel = static_cast<unsigned>(CompatiblePairs - EtPairs.size() +
                                      Explicit.size());
  NumPigParallelEdges += NumParallel;
  NumPigEtPairs += EtPairs.size();
  NumPigLemma3Edges += NumLemma3;
}

ParallelFamily ParallelInterferenceGraph::family() const {
  return {GroupOf,   CompatibleStart, Compatible, EtStart,
          EtPartners, DefHeight,      Explicit,   BothDegree};
}

bool ParallelInterferenceGraph::isImplicitEdge(unsigned A, unsigned B) const {
  unsigned GA = GroupOf[A], GB = GroupOf[B];
  if (GA == ParallelFamily::NoGroup || GB == ParallelFamily::NoGroup)
    return false;
  auto CBegin = Compatible.begin() + CompatibleStart[GA];
  auto CEnd = Compatible.begin() + CompatibleStart[GA + 1];
  if (!std::binary_search(CBegin, CEnd, GB))
    return false;
  return !std::binary_search(EtPartners.begin() + EtStart[A],
                             EtPartners.begin() + EtStart[A + 1], B);
}

/// The explicit edge {\p A, \p B} of \p Explicit, or null.
static const ParallelEdge *findExplicit(const std::vector<ParallelEdge> &Explicit,
                                        unsigned A, unsigned B) {
  auto [Lo, Hi] = std::minmax(A, B);
  ParallelEdge Key{Lo, Hi, 0.0};
  auto It =
      std::lower_bound(Explicit.begin(), Explicit.end(), Key, EndpointsLess);
  return It != Explicit.end() && It->A == Lo && It->B == Hi ? &*It : nullptr;
}

double ParallelInterferenceGraph::parallelBenefit(unsigned A,
                                                  unsigned B) const {
  if (A == B)
    return 0.0;
  if (const ParallelEdge *E = findExplicit(Explicit, A, B))
    return E->Benefit;
  if (isImplicitEdge(A, B))
    return static_cast<double>(DefHeight[A] + DefHeight[B]);
  return 0.0;
}

BitMatrix ParallelInterferenceGraph::parallelRows(bool WithInterference) const {
  ++NumPigMaterializations;
  unsigned N = numWebs();
  unsigned NumGroups = static_cast<unsigned>(CompatibleStart.size() - 1);
  std::vector<BitVector> GroupMembers(NumGroups, BitVector(N));
  for (unsigned V = 0; V != N; ++V)
    if (GroupOf[V] != ParallelFamily::NoGroup)
      GroupMembers[GroupOf[V]].set(V);
  BitMatrix Rows(N);
  BitVector Implicit(N);
  for (unsigned V = 0; V != N; ++V) {
    BitVector &Row = Rows.row(V);
    if (WithInterference)
      Row = Interference.neighbors(V);
    unsigned G = GroupOf[V];
    if (G == ParallelFamily::NoGroup)
      continue;
    Implicit.resetAll();
    for (unsigned I = CompatibleStart[G]; I != CompatibleStart[G + 1]; ++I)
      Implicit.unionWith(GroupMembers[Compatible[I]]);
    Implicit.reset(V);
    for (unsigned I = EtStart[V]; I != EtStart[V + 1]; ++I)
      Implicit.reset(EtPartners[I]);
    Row.unionWith(Implicit);
  }
  for (const ParallelEdge &E : Explicit)
    Rows.setSymmetric(E.A, E.B);
  return Rows;
}

UndirectedGraph ParallelInterferenceGraph::parallel() const {
  return UndirectedGraph::fromSymmetric(parallelRows(false));
}

UndirectedGraph ParallelInterferenceGraph::combined() const {
  return UndirectedGraph::fromSymmetric(parallelRows(true));
}
