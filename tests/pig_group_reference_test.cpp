//===- tests/pig_group_reference_test.cpp - Group form against matrices ---===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The PIG's group form (Ef as per-(block, unit kind) groups of one-def
// webs minus their Et pairs, plus an explicit list) and the coloring
// engine that counts groups, checked against the forms they replaced,
// kept here verbatim but for their names, their telemetry and one row
// update spelled in public BitVector operations: MatrixPig
// builds the parallel and combined families as web-space N^2 bit
// matrices, and MatrixEngine walks every parallel edge at removal and
// select. On every round of a color/spill/rebuild loop the two must
// agree on the colors, the spilled webs in order, the dropped-edge count
// and the colors used; the group form's materialized parallel() and
// combined() must equal the matrices, and parallelBenefit(), the edge
// counts and the PIG counters must agree. The inputs are
// large-combined's ladder at two seeds, 1024- and 2048-instruction
// blocks, the kernels under four h* weightings, every CFG shape with
// the region extension on and off, a single-issue machine and a
// function with no webs.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Regions.h"
#include "analysis/Webs.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "core/RegionFalseDeps.h"
#include "ir/Function.h"
#include "ir/Parser.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "regalloc/ColoringEngine.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/EPTimes.h"
#include "sched/PreScheduler.h"
#include "support/BitMatrix.h"
#include "support/Telemetry.h"
#include "support/UndirectedGraph.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>

using namespace pira;

namespace {

/// The parallel family as the matrix engine reads it: adjacency rows.
struct MatrixFamily {
  /// DefHeight entry of a web whose parallel edges all carry an explicit
  /// benefit.
  static constexpr unsigned NoHeight = ~0u;

  /// Web pairs whose defining instructions may issue in one cycle. May
  /// overlap the interference graph.
  const UndirectedGraph &Parallel;
  /// Interference | Parallel.
  const UndirectedGraph &Combined;
  /// Per web, the height of its only defining instruction, or NoHeight.
  /// A parallel edge between two webs with heights that Explicit does not
  /// list has benefit DefHeight[A] + DefHeight[B].
  std::span<const unsigned> DefHeight;
  /// The parallel edges whose benefit is not that sum, sorted by (A, B).
  std::span<const ParallelEdge> Explicit;
};

/// Orders parallel edges by their endpoints (A, B).
constexpr auto EndpointsLess = [](const ParallelEdge &X,
                                  const ParallelEdge &Y) {
  return std::tie(X.A, X.B) < std::tie(Y.A, Y.B);
};

/// The PIG with both families as N^2 bit matrices. Its counters are
/// members rather than process-global statistics.
class MatrixPig {
public:
  static constexpr unsigned NoHeight = MatrixFamily::NoHeight;

  MatrixPig(const Function &F, const Webs &W, const InterferenceGraph &IG,
            const MachineModel &Machine, bool UseRegions);

  const UndirectedGraph &interference() const { return Interference; }
  const UndirectedGraph &parallel() const { return Parallel; }
  const UndirectedGraph &combined() const { return Combined; }
  const std::vector<unsigned> &defHeights() const { return DefHeight; }
  const std::vector<ParallelEdge> &explicitEdges() const { return Explicit; }

  double parallelBenefit(unsigned A, unsigned B) const {
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

  unsigned numParallelOnlyEdges() const {
    return Combined.numEdges() - Interference.numEdges();
  }

  uint64_t NumPigParallelEdges = 0;
  uint64_t NumFdgParallelPairs = 0;
  uint64_t NumFdgMachineConstraintPairs = 0;
  uint64_t NumPigRegionPairs = 0;

private:
  UndirectedGraph Interference;
  UndirectedGraph Parallel;
  UndirectedGraph Combined;
  std::vector<unsigned> DefHeight;
  std::vector<ParallelEdge> Explicit;
};

MatrixPig::MatrixPig(const Function &F, const Webs &W,
                     const InterferenceGraph &IG, const MachineModel &Machine,
                     bool UseRegions) {
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
    Desc = Gs.reachability();
    Anc = Gs.ancestors();

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
      Ex.flipAll();
      Ex.intersectWith(Base[Kind[U]]);
      Row.unionWith(Ex);
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

/// Array-backed min-tree over vertex keys: O(log N) update, O(1) minimum.
/// Absent vertices hold the all-ones key, which sorts after every real
/// one.
class MinTree {
public:
  static constexpr uint64_t Absent = ~uint64_t(0);

  explicit MinTree(unsigned N) {
    while (Leaves < N)
      Leaves *= 2;
    Nodes.assign(2 * Leaves, Absent);
  }

  /// Lowers (or inserts) \p V's key to \p Key. The walk stops at the
  /// first ancestor whose minimum is already no larger.
  void decrease(unsigned V, uint64_t Key) {
    unsigned I = Leaves + V;
    assert(Key <= Nodes[I] && "keys only decrease");
    for (; I != 0 && Key < Nodes[I]; I /= 2)
      Nodes[I] = Key;
  }

  void erase(unsigned V) {
    unsigned I = Leaves + V;
    Nodes[I] = Absent;
    for (I /= 2; I != 0; I /= 2)
      Nodes[I] = std::min(Nodes[2 * I], Nodes[2 * I + 1]);
  }

  uint64_t min() const { return Nodes[1]; }

private:
  unsigned Leaves = 1;
  std::vector<uint64_t> Nodes;
};

/// Binary min-heap of (h*, vertex) entries for step 4. Its top can be
/// raised in place: a stale key is re-keyed with one sift down rather
/// than a pop and a push.
class SpillHeap {
public:
  /// h* as the bit pattern of a non-negative double, which orders as the
  /// double does but compares as an integer, then the vertex.
  struct Entry {
    uint64_t Key;
    unsigned V;

    bool operator<(const Entry &RHS) const {
      return std::tie(Key, V) < std::tie(RHS.Key, RHS.V);
    }
  };

  void assign(std::vector<Entry> Entries) {
    Heap = std::move(Entries);
    for (size_t I = Heap.size() / 2; I-- != 0;)
      siftDown(I);
  }

  bool empty() const { return Heap.empty(); }
  const Entry &top() const { return Heap.front(); }

  void pop() {
    Heap.front() = Heap.back();
    Heap.pop_back();
    if (!Heap.empty())
      siftDown(0);
  }

  /// Raises the top's key to \p Key. \returns true when it stays on top.
  bool raiseTop(uint64_t Key) {
    assert(Key >= Heap.front().Key && "keys only rise");
    Heap.front().Key = Key;
    return siftDown(0) == 0;
  }

private:
  /// Sifts entry \p I down to its place. \returns that place.
  size_t siftDown(size_t I) {
    size_t N = Heap.size();
    Entry Moving = Heap[I];
    for (size_t Child = 2 * I + 1; Child < N; Child = 2 * I + 1) {
      Child += Child + 1 < N && Heap[Child + 1] < Heap[Child];
      if (!(Heap[Child] < Moving))
        break;
      Heap[I] = Heap[Child];
      I = Child;
    }
    Heap[I] = Moving;
    return I;
  }

  std::vector<Entry> Heap;
};

/// The coloring procedure over incrementally maintained worklists. Each
/// structure answers one question of the whole-graph rescans exactly,
/// tie-breaks included (see DESIGN.md §5):
///   * Low — present vertices of combined degree < r. Degrees only fall,
///     so the next member at or after a cursor is the vertex the
///     lowest-index simplify sweep would remove next.
///   * Num — per vertex, its present neighbours joined by an
///     interference-only (I), parallel-only (P) or both-families (B)
///     edge. They sum to the combined degree, and step 4 takes Σw from
///     them. Without a family only I is ever non-zero.
/// With a family, step 3 adds:
///   * Victims — present vertices of interference degree < r keyed on
///     (combined degree, index): step 3's victim is the minimum.
/// Step 3 never removes an edge. Its victim V would drop its cheapest
/// parallel-only edges until it simplifies, and then leave first at the
/// next sweep; so V leaves at once, as a victim, and select recovers the
/// edges V kept from the removal order (DESIGN.md §5, "Step 3 as a
/// removal"). Without a family every edge is an interference edge, so a
/// vertex's interference degree is its combined degree: any vertex below
/// r is in Low and leaves at the next simplify, and step 3 never fires.
class MatrixEngine {
public:
  MatrixEngine(const UndirectedGraph &Interf, unsigned NumRegs,
         const MatrixFamily *Family)
      : Interf(Interf), Family(Family), R(NumRegs),
        Remaining(Interf.numVertices()), Present(Interf.numVertices(), true),
        Low(Interf.numVertices()), Num(Interf.numVertices()),
        Victims(Family != nullptr ? Interf.numVertices() : 0) {
    assert(NumRegs >= 1 && "coloring needs at least one register");
    unsigned N = Interf.numVertices();
    if (Family == nullptr) {
      for (unsigned V = 0; V != N; ++V) {
        Num[V] = {Interf.degree(V), 0, 0};
        refresh(V);
      }
      return;
    }
    const UndirectedGraph &Par = Family->Parallel;
    const UndirectedGraph &Combined = Family->Combined;
    IsVictim.resize(N);
    for (unsigned V = 0; V != N; ++V) {
      unsigned Both = Interf.degree(V) + Par.degree(V) - Combined.degree(V);
      Num[V] = {Interf.degree(V) - Both, Par.degree(V) - Both, Both};
      refresh(V);
    }
  }

  /// The one simplify / spill-choice loop (see ColoringEngine.h).
  std::vector<unsigned> removeAll(const std::vector<double> &Costs,
                                  double WI, double WP, bool Optimistic,
                                  Allocation &Out) {
    assert(Costs.size() == Interf.numVertices() &&
           "cost vector size mismatch");
    assert(meetsHeapPrecondition(Costs, WI, WP) &&
           "a cost is negative or a weight lies in (0, 1)");
    std::vector<unsigned> Stack;
    unsigned Cursor = 0;
    while (Remaining != 0) {
      simplify(Stack, Cursor);
      Cursor = 0;
      if (Remaining == 0)
        break;

      // Step 3: some vertex colorable if we give up parallelism? Take the
      // vertex needing the fewest removals; it keeps its k most
      // beneficial parallel-only edges, drops the rest and simplifies.
      // The sweep then resumes after it.
      if (unsigned V = victim(); V != ~0u) {
        unsigned Keep = R - 1 - (Num[V].I + Num[V].B);
        Out.ParallelEdgesDropped += Num[V].P - Keep;
        IsVictim.set(V);
        Stack.push_back(V);
        removeVertex(V);
        Cursor = V + 1;
        continue;
      }

      // Step 4: spill by the generalized metric h*.
      unsigned Spill = spillCandidate(Costs, WI, WP);
      assert(Spill != ~0u && "no spill candidate among survivors");
      (Optimistic ? Stack : Out.SpilledWebs).push_back(Spill);
      removeVertex(Spill);
    }
    return Stack;
  }

  /// Colors \p Stack in reverse removal order, each vertex with the
  /// lowest color none of its live colored neighbours holds. The colored
  /// vertices at V's turn are exactly those removed after it. Every edge
  /// step 3 gave away leads to a victim removed before its partner, so
  /// it is uncolored at the partner's turn: a vertex that was no victim
  /// colors against the combined graph. A victim colors against its
  /// colored interference neighbours and the k most beneficial of its
  /// colored parallel-only neighbours, k = r - 1 - (the former), in
  /// (benefit, index) order: the edges its drops kept.
  void select(const std::vector<unsigned> &Stack, Allocation &Out) {
    assert(Family != nullptr && "only step 3 needs this select");
    unsigned N = Interf.numVertices();
    buildExplicitRows();
    BitVector Colored(N);
    std::vector<bool> Used;
    std::vector<std::pair<double, unsigned>> Kept;
    // Every vertex left with fewer than r live neighbours, so each takes
    // one of colors 0 .. r - 1.
    auto Mark = [&](unsigned U) { Used[Out.ColorOfWeb[U]] = true; };
    for (auto It = Stack.rbegin(), E = Stack.rend(); It != E; ++It) {
      unsigned V = *It;
      Used.assign(R, false);
      if (!IsVictim.test(V)) {
        Scratch = Family->Combined.neighbors(V);
        Scratch.intersectWith(Colored);
        Scratch.forEachSetBit(Mark);
      } else {
        Scratch = Interf.neighbors(V);
        Scratch.intersectWith(Colored);
        unsigned Interfering = Scratch.count();
        assert(Interfering < R && "a victim's interference degree is < r");
        unsigned Keep = R - 1 - Interfering;
        Scratch.forEachSetBit(Mark);
        keepBest(V, Keep, Colored, Kept);
        for (const auto &[Benefit, U] : Kept)
          Mark(U);
      }
      unsigned Color = 0;
      while (Color < R && Used[Color])
        ++Color;
      assert(Color < R && "a vertex left with r live neighbours");
      Out.ColorOfWeb[V] = static_cast<int>(Color);
      Out.NumColorsUsed = std::max(Out.NumColorsUsed, Color + 1);
      Colored.set(V);
    }
  }

private:
  /// colorGraph's precondition (ColoringEngine.h): every cost is >= 0,
  /// +inf or NaN, and each weight is 0 or >= 1.
  static bool meetsHeapPrecondition(const std::vector<double> &Costs,
                                    double WI, double WP) {
    auto WeightOk = [](double W) { return W == 0.0 || W >= 1.0; };
    return WeightOk(WI) && WeightOk(WP) &&
           std::none_of(Costs.begin(), Costs.end(),
                        [](double C) { return C < 0.0; });
  }

  /// Removes every vertex the lowest-index repeated sweep would remove,
  /// starting at \p Cursor, pushing them on \p Stack in sweep order.
  void simplify(std::vector<unsigned> &Stack, unsigned Cursor) {
    while (true) {
      int V = Cursor == 0 ? Low.findFirst() : Low.findNext(Cursor - 1);
      if (V < 0 && Cursor != 0)
        V = Low.findFirst(); // the sweep ran off the end: start a new one
      if (V < 0)
        return;
      Stack.push_back(static_cast<unsigned>(V));
      removeVertex(static_cast<unsigned>(V));
      Cursor = static_cast<unsigned>(V) + 1;
    }
  }

  /// Step 3: the present vertex of smallest combined degree (then index)
  /// among those of interference degree < r, or ~0u when there is none.
  unsigned victim() const {
    if (Family == nullptr)
      return ~0u;
    uint64_t Key = Victims.min();
    return Key == MinTree::Absent ? ~0u : static_cast<unsigned>(Key);
  }

  /// Step 4: the present vertex of least h* (then index). The first
  /// survivor seeds the choice, so all-infinite costs still progress, and
  /// a NaN h* (an infinite cost over an overflowed Σw) never replaces it.
  /// Under colorGraph's precondition h* never falls while a coloring runs
  /// (DESIGN.md §5), so a lazy min-heap of (h*, index) keys answers the
  /// scan: a stale key at the top is raised to its vertex's current h*,
  /// and the first top still current is the scan's choice, ties going to
  /// the lowest index. A NaN first survivor is the scan's choice
  /// outright; any other NaN ranks as +inf, where the scan never prefers
  /// it to the lower-indexed seed, and it can only turn into +inf.
  unsigned spillCandidate(const std::vector<double> &Costs, double WI,
                          double WP) {
    assert(Remaining != 0 && "no survivors to choose from");
    unsigned First = static_cast<unsigned>(Present.findFirst());
    if (std::isnan(hStar(First, Costs, WI, WP)))
      return First;
    if (!HeapBuilt) {
      std::vector<SpillHeap::Entry> Entries;
      Entries.reserve(Remaining);
      Present.forEachSetBit([&](unsigned V) {
        Entries.push_back({rank(hStar(V, Costs, WI, WP)), V});
      });
      Spills.assign(std::move(Entries));
      HeapBuilt = true;
    }
    while (!Spills.empty()) {
      auto [Key, V] = Spills.top();
      if (!Present.test(V)) {
        Spills.pop();
        continue;
      }
      uint64_t Now = rank(hStar(V, Costs, WI, WP));
      if (Now == Key || Spills.raiseTop(Now)) {
        Spills.pop();
        return V;
      }
    }
    return ~0u;
  }

  /// h* of \p V. Without a family nP = nB = 0, so Σw is nI * wI plus two
  /// zeros: with weights (1, 1), Chaitin's double(degree) exactly.
  double hStar(unsigned V, const std::vector<double> &Costs, double WI,
               double WP) const {
    const Counts &C = Num[V];
    double WeightSum = C.I * WI + C.P * WP + C.B * (WI + WP);
    // All surviving vertices have degree >= r >= 1, but guard against a
    // zero weight sum from degenerate weight settings.
    return WeightSum > 0.0 ? Costs[V] / WeightSum : Costs[V];
  }

  /// The heap key of an h* that is not the first survivor's: NaN ranks
  /// as +inf, and + 0.0 turns -0.0 into +0.0, whose bits order first.
  static uint64_t rank(double H) {
    return std::bit_cast<uint64_t>(
        std::isnan(H) ? std::numeric_limits<double>::infinity() : H + 0.0);
  }

  /// Removes \p V. For a step 3 victim, each partner loses the one count
  /// a drop or the victim's later removal would have cost it, so the
  /// worklists come out as the drops and that removal leave them. No
  /// present vertex is below r here. A parallel-only partner U at r has
  /// interference degree below r, since the edge to V is not one, so U
  /// is a victim candidate: its key (r, U) is at least V's, so V's
  /// degree is r and U > V, and the sweep resuming at V + 1 meets U as
  /// the drops' sweep from 0 would have.
  void removeVertex(unsigned V) {
    assert(Present.test(V) && "vertex removed twice");
    Present.reset(V);
    Low.reset(V);
    --Remaining;
    if (Family == nullptr) {
      Scratch = Interf.neighbors(V);
      Scratch.intersectWith(Present);
      Scratch.forEachSetBit([&](unsigned U) {
        --Num[U].I;
        refresh(U);
      });
      return;
    }
    Victims.erase(V);
    bool Victim = IsVictim.test(V);
    Scratch = Family->Combined.neighbors(V);
    Scratch.subtract(Interf.neighbors(V));
    Scratch.intersectWith(Present);
    Scratch.forEachSetBit([&](unsigned U) {
      assert((!Victim || degree(U) != R || (U > V && degree(V) == R)) &&
             "a victim's partner fell below r before the victim");
      --Num[U].P;
      refresh(U);
    });
    const BitVector &InP = Family->Parallel.neighbors(V);
    Scratch = Interf.neighbors(V);
    Scratch.intersectWith(Present);
    Scratch.forEachSetBit([&](unsigned U) {
      --(InP.test(U) ? Num[U].B : Num[U].I);
      refresh(U);
    });
  }

  /// Present neighbours of \p V in the combined graph.
  unsigned degree(unsigned V) const {
    return Num[V].I + Num[V].P + Num[V].B;
  }

  /// Re-files present vertex \p V after its degrees changed.
  void refresh(unsigned V) {
    unsigned D = degree(V);
    if (D < R)
      Low.set(V);
    if (Family != nullptr && Num[V].I + Num[V].B < R)
      Victims.decrease(V, uint64_t(D) << 32 | V);
  }

  /// Lays out every vertex's explicit-benefit partners in index order.
  void buildExplicitRows() {
    unsigned N = Interf.numVertices();
    ExplicitStart.assign(N + 1, 0);
    for (const ParallelEdge &E : Family->Explicit) {
      ++ExplicitStart[E.A + 1];
      ++ExplicitStart[E.B + 1];
    }
    for (unsigned V = 0; V != N; ++V)
      ExplicitStart[V + 1] += ExplicitStart[V];
    // Explicit is sorted by (A, B), so each vertex's partners below it
    // arrive in order, then those above it.
    std::vector<unsigned> Fill(ExplicitStart.begin(), ExplicitStart.end() - 1);
    Explicit.resize(ExplicitStart[N]);
    for (const ParallelEdge &E : Family->Explicit) {
      Explicit[Fill[E.A]++] = {E.B, E.Benefit};
      Explicit[Fill[E.B]++] = {E.A, E.Benefit};
    }
  }

  /// Fills \p Kept with the \p Keep largest (benefit, index) keys among
  /// \p V's colored parallel-only neighbours, in no particular order.
  void keepBest(unsigned V, unsigned Keep, const BitVector &Colored,
                std::vector<std::pair<double, unsigned>> &Kept) {
    Kept.clear();
    if (Keep == 0)
      return;
    Scratch = Family->Combined.neighbors(V);
    Scratch.subtract(Interf.neighbors(V));
    Scratch.intersectWith(Colored);
    unsigned E = ExplicitStart[V], End = ExplicitStart[V + 1];
    unsigned HV = Family->DefHeight[V];
    size_t Worst = 0;
    Scratch.forEachSetBit([&](unsigned U) {
      while (E != End && Explicit[E].first < U)
        ++E;
      bool Listed = E != End && Explicit[E].first == U;
      assert((Listed || (HV != MatrixFamily::NoHeight &&
                         Family->DefHeight[U] != MatrixFamily::NoHeight)) &&
             "an edge with a heightless end lists its benefit");
      double Benefit = Listed ? Explicit[E].second
                              : static_cast<double>(HV + Family->DefHeight[U]);
      std::pair<double, unsigned> Key{Benefit, U};
      if (Kept.size() < Keep) {
        Kept.push_back(Key);
        if (Kept.size() == Keep)
          Worst = std::min_element(Kept.begin(), Kept.end()) - Kept.begin();
        return;
      }
      if (Key < Kept[Worst])
        return;
      Kept[Worst] = Key;
      Worst = std::min_element(Kept.begin(), Kept.end()) - Kept.begin();
    });
  }

  struct Counts {
    unsigned I, P, B;
  };

  const UndirectedGraph &Interf;
  const MatrixFamily *Family;
  unsigned R;
  unsigned Remaining;
  BitVector Present;
  BitVector Low;
  BitVector Scratch;
  std::vector<Counts> Num;

  // Step 4's lazy (h*, index) min-heap, built at the first spill choice.
  SpillHeap Spills;
  bool HeapBuilt = false;

  // Step 3 state, built only with a family.
  MinTree Victims;
  BitVector IsVictim;
  std::vector<unsigned> ExplicitStart;
  std::vector<std::pair<unsigned, double>> Explicit;
};

/// Section 4 on \p PIG's matrices, as pinterColor ran it.
Allocation matrixPinterColor(const MatrixPig &PIG,
                             const std::vector<double> &Costs,
                             unsigned NumRegs, const PinterOptions &Opts) {
  MatrixFamily Family{PIG.parallel(), PIG.combined(), PIG.defHeights(),
                      PIG.explicitEdges()};
  Allocation Out;
  Out.ColorOfWeb.assign(PIG.interference().numVertices(), -1);
  MatrixEngine Work(PIG.interference(), NumRegs, &Family);
  std::vector<unsigned> Stack =
      Work.removeAll(Costs, Opts.InterferenceWeight, Opts.ParallelWeight,
                     /*Optimistic=*/false, Out);
  if (Out.SpilledWebs.empty())
    Work.select(Stack, Out);
  return Out;
}

/// The PIG counters both builds keep, in one order.
constexpr std::array<const char *, 6> CounterNames = {
    "NumPigParallelEdges", "NumFdgParallelPairs",
    "NumFdgMachineConstraintPairs", "NumPigRegionPairs",
    "NumPigEtPairs", "NumPigLemma3Edges"};
using CounterValues = std::array<uint64_t, CounterNames.size()>;

uint64_t counterValue(const char *Name) {
  for (const telemetry::Counter *C : telemetry::counters())
    if (C->name() == std::string(Name))
      return C->value();
  ADD_FAILURE() << "no counter " << Name;
  return 0;
}

CounterValues pigCounters() {
  CounterValues Values;
  for (size_t I = 0; I != CounterNames.size(); ++I)
    Values[I] = counterValue(CounterNames[I]);
  return Values;
}

/// Tallies over a sweep, so a test can show it reached what it is meant
/// to cover.
struct GroupTally {
  unsigned Rounds = 0;
  unsigned SpillRounds = 0;
  uint64_t Dropped = 0;
  uint64_t Spilled = 0;
  uint64_t EtPairs = 0;
  uint64_t Lemma3Edges = 0;
  uint64_t ExplicitEdges = 0;
  uint64_t RegionPairs = 0;
};

void expectSameGraph(const UndirectedGraph &Lib, const UndirectedGraph &Ref,
                     const char *Family, const std::string &Where) {
  ASSERT_EQ(Lib.numVertices(), Ref.numVertices()) << Family << " " << Where;
  EXPECT_EQ(Lib.numEdges(), Ref.numEdges()) << Family << " " << Where;
  for (unsigned V = 0, N = Ref.numVertices(); V != N; ++V) {
    ASSERT_EQ(Lib.neighbors(V), Ref.neighbors(V))
        << Family << " row " << V << " " << Where;
    ASSERT_EQ(Lib.degree(V), Ref.degree(V))
        << Family << " degree " << V << " " << Where;
  }
}

/// Pairs of one-def webs defined in one block by instructions whose unit
/// kinds may co-issue, less those \p Parallel joins: the Et pairs, from
/// the matrices.
uint64_t etPairsOf(const Function &F, const Webs &W, const MachineModel &M,
                   const UndirectedGraph &Parallel) {
  if (M.issueWidth() == 1)
    return 0;
  uint64_t Pairs = 0;
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    std::vector<std::pair<unsigned, UnitKind>> Members;
    const BasicBlock &BB = F.block(B);
    for (unsigned I = 0; I != BB.size(); ++I)
      if (BB.inst(I).hasDef() &&
          W.defsOfWeb(W.webOfDef(B, I)).size() == 1)
        Members.push_back({W.webOfDef(B, I), BB.inst(I).unit()});
    for (size_t I = 0; I != Members.size(); ++I)
      for (size_t J = I + 1; J != Members.size(); ++J) {
        auto [A, KA] = Members[I];
        auto [C, KC] = Members[J];
        if (KA == KC && M.isSingleUnit(KA))
          continue;
        Pairs += !Parallel.hasEdge(A, C);
      }
  }
  return Pairs;
}

/// Requires \p Lib, whose build moved the counters by \p Counted, to
/// describe the families \p Ref holds as matrices.
void expectSameFamilies(const ParallelInterferenceGraph &Lib,
                        const MatrixPig &Ref, const Function &F,
                        const Webs &W, const MachineModel &M,
                        const CounterValues &Counted,
                        const std::string &Where, GroupTally &Tally) {
  const UndirectedGraph &Er = Ref.interference();
  const UndirectedGraph &RefPar = Ref.parallel();
  expectSameGraph(Lib.interference(), Er, "Er", Where);
  const UndirectedGraph LibPar = Lib.parallel();
  expectSameGraph(LibPar, RefPar, "parallel", Where);
  expectSameGraph(Lib.combined(), Ref.combined(), "combined", Where);
  EXPECT_EQ(LibPar.numEdges(), RefPar.numEdges()) << Where;
  EXPECT_EQ(Lib.numParallelOnlyEdges(), Ref.numParallelOnlyEdges()) << Where;
  EXPECT_EQ(Lib.explicitEdges().size(), Ref.explicitEdges().size()) << Where;
  EXPECT_EQ(Lib.defHeights(), Ref.defHeights()) << Where;

  // Every parallel edge: its benefit, and whether it is also an
  // interference edge (Lemma 3).
  uint64_t Lemma3 = 0;
  for (unsigned A = 0, N = RefPar.numVertices(); A != N; ++A) {
    int B = RefPar.neighbors(A).findNext(A);
    for (; B >= 0; B = RefPar.neighbors(A).findNext(static_cast<unsigned>(B))) {
      unsigned U = static_cast<unsigned>(B);
      ASSERT_EQ(Lib.parallelBenefit(A, U), Ref.parallelBenefit(A, U))
          << A << "-" << U << " " << Where;
      Lemma3 += Er.hasEdge(A, U);
    }
  }
  uint64_t EtPairs = etPairsOf(F, W, M, RefPar);
  EXPECT_EQ(Lib.numLemma3Edges(), Lemma3) << Where;
  EXPECT_EQ(Lib.numEtPairs(), EtPairs) << Where;

  const CounterValues Want = {Ref.NumPigParallelEdges,
                              Ref.NumFdgParallelPairs,
                              Ref.NumFdgMachineConstraintPairs,
                              Ref.NumPigRegionPairs, EtPairs, Lemma3};
  for (size_t I = 0; I != CounterNames.size(); ++I)
    EXPECT_EQ(Counted[I], Want[I]) << CounterNames[I] << " " << Where;

  Tally.EtPairs += EtPairs;
  Tally.Lemma3Edges += Lemma3;
  Tally.ExplicitEdges += Ref.explicitEdges().size();
  Tally.RegionPairs += Ref.NumPigRegionPairs;
}

/// Drives pinterAllocate's loop on \p Base: the EP pre-order once, then
/// per round both PIGs, both colorings and the spill code of the group
/// form's choice, comparing everything on every round.
void compareRounds(const Function &Base, const MachineModel &M,
                   unsigned NumRegs, const PinterOptions &Opts,
                   const std::string &Where, GroupTally &Tally) {
  constexpr unsigned MaxRounds = 6;
  Function F = Base;
  if (Opts.PreSchedule)
    preScheduleFunction(F, M);
  std::set<Reg> NoSpillRegs;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    std::string Here = Where + " round " + std::to_string(Round);
    Webs W(F);
    InterferenceGraph IG(F, W);
    CounterValues Before = pigCounters();
    ParallelInterferenceGraph Lib(F, W, IG, M, Opts.UseRegions);
    CounterValues Counted = pigCounters();
    for (size_t I = 0; I != Counted.size(); ++I)
      Counted[I] -= Before[I];
    MatrixPig Ref(F, W, IG, M, Opts.UseRegions);
    expectSameFamilies(Lib, Ref, F, W, M, Counted, Here, Tally);

    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)))
        Costs[Web] = std::numeric_limits<double>::infinity();
    Allocation A = pinterColor(Lib, Costs, NumRegs, Opts);
    Allocation B = matrixPinterColor(Ref, Costs, NumRegs, Opts);
    EXPECT_EQ(A.ColorOfWeb, B.ColorOfWeb) << Here;
    EXPECT_EQ(A.SpilledWebs, B.SpilledWebs) << Here;
    EXPECT_EQ(A.ParallelEdgesDropped, B.ParallelEdgesDropped) << Here;
    EXPECT_EQ(A.NumColorsUsed, B.NumColorsUsed) << Here;
    ++Tally.Rounds;
    Tally.Dropped += B.ParallelEdgesDropped;
    Tally.Spilled += B.SpilledWebs.size();
    if (A.fullyColored())
      return;
    ++Tally.SpillRounds;
    insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
  }
}

/// perfbench's seed mixing (splitmix64 of a combination of inputs), so
/// the ladder below is large-combined's own programs.
uint64_t mixSeed(uint64_t A, uint64_t B, uint64_t C) {
  uint64_t Z = A * 0x9E3779B97F4A7C15ull ^ (B + 0x632BE59BD9B4E019ull) * 31 ^
               (C + 0x85EBCA77C2B2AE63ull) * 0xC2B2AE3D27D4EB4Full;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// large-combined's program \p Rung of pass \p Pass at \p Seed.
Function ladderProgram(unsigned InstructionsPerBlock, uint64_t Seed,
                       unsigned Pass, unsigned Rung) {
  RandomProgramOptions Gen;
  Gen.InstructionsPerBlock = InstructionsPerBlock;
  Gen.FloatPercent = 40;
  Gen.MemoryPercent = 25;
  Gen.Shape = CfgShape::Straight;
  Gen.Seed = mixSeed(Seed, Pass, Rung);
  return generateRandomProgram(Gen);
}

MachineModel machineNumber(unsigned I, unsigned Regs) {
  switch (I) {
  case 0:
    return MachineModel::paperTwoUnit(Regs);
  case 1:
    return MachineModel::rs6000(Regs);
  default:
    return MachineModel::vliw4(Regs);
  }
}

const CfgShape AllShapes[] = {CfgShape::Straight, CfgShape::Diamond,
                              CfgShape::Loop, CfgShape::NestedDiamond,
                              CfgShape::DoubleLoop};

} // namespace

TEST(PigGroupReference, MatchesOnLargeCombinedLadder) {
  const unsigned Ladder[] = {128, 192, 192, 192, 256};
  MachineModel M = MachineModel::rs6000(12);
  GroupTally Tally;
  for (uint64_t Seed : {1ull, 7919ull})
    for (unsigned Pass = 0; Pass != 2; ++Pass)
      for (unsigned Rung = 0; Rung != std::size(Ladder); ++Rung)
        compareRounds(ladderProgram(Ladder[Rung], Seed, Pass, Rung), M,
                      M.numPhysRegs(), {},
                      "seed " + std::to_string(Seed) + " pass " +
                          std::to_string(Pass) + " ipb " +
                          std::to_string(Ladder[Rung]),
                      Tally);
  // Spill rounds, where step 3 gives most of the family away.
  EXPECT_GT(Tally.SpillRounds, 0u);
  EXPECT_GT(Tally.Dropped, 10000u);
  EXPECT_GT(Tally.EtPairs, 0u);
  EXPECT_GT(Tally.Lemma3Edges, 0u);
}

TEST(PigGroupReference, MatchesOnLargeBlocks) {
  // makeBlock's blocks in bench/perf_algorithms.cpp: block 0 holds
  // exactly the given number of instructions.
  MachineModel M = MachineModel::rs6000(12);
  GroupTally Tally;
  for (unsigned Insts : {1024u, 2048u}) {
    RandomProgramOptions Gen;
    Gen.InstructionsPerBlock = Insts - 3;
    Gen.Seed = 4242;
    Gen.FloatPercent = 40;
    Gen.MemoryPercent = 25;
    compareRounds(generateRandomProgram(Gen), M, M.numPhysRegs(), {},
                  std::to_string(Insts) + " instructions", Tally);
  }
  EXPECT_GT(Tally.SpillRounds, 1u);
  EXPECT_GT(Tally.Dropped, 0u);
}

TEST(PigGroupReference, MatchesOnEveryKernelUnderEveryWeighting) {
  const std::pair<double, double> Weights[] = {{1, 1}, {1, 0}, {0, 1}, {1, 4}};
  GroupTally Tally;
  for (unsigned MachineIdx = 0; MachineIdx != 3; ++MachineIdx) {
    MachineModel M = machineNumber(MachineIdx, 6);
    for (const auto &[Name, F] : standardKernelSuite())
      for (auto [WI, WP] : Weights) {
        PinterOptions Opts;
        Opts.InterferenceWeight = WI;
        Opts.ParallelWeight = WP;
        compareRounds(F, M, 6, Opts,
                      Name + " " + M.name() + " w=(" + std::to_string(WI) +
                          "," + std::to_string(WP) + ")",
                      Tally);
      }
  }
  EXPECT_GT(Tally.SpillRounds, 0u);
  EXPECT_GT(Tally.Dropped, 0u);
  EXPECT_GT(Tally.ExplicitEdges, 0u);
}

TEST(PigGroupReference, MatchesOnEveryShapeWithAndWithoutRegions) {
  GroupTally Tally;
  for (unsigned ShapeIdx = 0; ShapeIdx != std::size(AllShapes); ++ShapeIdx)
    for (unsigned MachineIdx = 0; MachineIdx != 3; ++MachineIdx)
      for (unsigned Seed = 0; Seed != 6; ++Seed) {
        RandomProgramOptions Gen;
        Gen.Shape = AllShapes[ShapeIdx];
        Gen.InstructionsPerBlock = 8 + 3 * Seed;
        Gen.FloatPercent = 30 + 20 * MachineIdx;
        Gen.MemoryPercent = 25;
        Gen.Seed = 17 + ShapeIdx * 7919 + MachineIdx * 104729 + Seed * 613;
        Function F = generateRandomProgram(Gen);
        MachineModel M = machineNumber(MachineIdx, 4);
        for (bool Regions : {false, true}) {
          PinterOptions Opts;
          Opts.UseRegions = Regions;
          compareRounds(F, M, 4, Opts,
                        "shape " + std::to_string(ShapeIdx) + " seed " +
                            std::to_string(Seed) + " " + M.name() +
                            (Regions ? " regions" : ""),
                        Tally);
        }
      }
  EXPECT_GT(Tally.SpillRounds, 0u);
  EXPECT_GT(Tally.Dropped, 0u);
  EXPECT_GT(Tally.ExplicitEdges, 0u);
  EXPECT_GT(Tally.RegionPairs, 0u);
}

TEST(PigGroupReference, MatchesOnSingleIssueMachineAndEmptyFunction) {
  GroupTally Tally;
  MachineModel Scalar = MachineModel::scalar(4);
  for (const auto &[Name, F] : standardKernelSuite())
    compareRounds(F, Scalar, 4, {}, Name + " scalar", Tally);
  EXPECT_EQ(Tally.EtPairs, 0u);
  EXPECT_GT(Tally.Spilled, 0u);

  Function Empty;
  std::string Error;
  ASSERT_TRUE(parseFunction("func @empty regs 0 {\nblock entry:\n  ret\n}\n",
                            Empty, Error))
      << Error;
  ASSERT_EQ(Webs(Empty).numWebs(), 0u);
  for (unsigned R : {1u, 4u})
    compareRounds(Empty, MachineModel::vliw4(), R, {}, "no webs", Tally);
}

TEST(PigGroupReference, CombinedCompilesMaterializeNoFamily) {
  // The compile path reads the group form only: no combined compile of
  // any kernel builds the parallel or combined adjacency.
  uint64_t Before = counterValue("NumPigMaterializations");
  for (unsigned MachineIdx = 0; MachineIdx != 3; ++MachineIdx) {
    MachineModel M = machineNumber(MachineIdx, 6);
    for (const auto &[Name, F] : standardKernelSuite()) {
      PipelineResult R = runStrategy(StrategyKind::Combined, F, M);
      EXPECT_TRUE(R.Success) << Name << " " << M.name() << ": " << R.Error;
    }
  }
  EXPECT_EQ(counterValue("NumPigMaterializations"), Before);

  // The counter does count: one request each.
  std::vector<std::pair<std::string, Function>> Suite = standardKernelSuite();
  const Function &F = Suite.front().second;
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::vliw4());
  (void)PIG.parallel();
  (void)PIG.combined();
  EXPECT_EQ(counterValue("NumPigMaterializations"), Before + 2);
}
