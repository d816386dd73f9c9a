//===- regalloc/ColoringEngine.cpp - Worklist graph coloring --------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "regalloc/ColoringEngine.h"

#include "support/BitVector.h"
#include "support/UndirectedGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

using namespace pira;

namespace {

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
///   * Rows — each vertex's parallel-only neighbours in (benefit, index)
///     order: the explicit edges sorted per vertex, merged with the
///     height-sum neighbours in the one (height, index) order of
///     vertices. Edges only ever disappear, so cursors that skip gone
///     entries find step 3's edge, and each victim reads its rows in one
///     run.
/// Without a family every edge is an interference edge, so a vertex's
/// interference degree is its combined degree: any vertex below r is in
/// Low and leaves at the next simplify, and step 3 never fires. Nothing
/// drops an edge, so nothing is copied and no row is laid out.
class Engine {
public:
  Engine(const UndirectedGraph &Interf, unsigned NumRegs,
         const ParallelFamily *Family)
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
    Live = Family->Combined;
    const UndirectedGraph &Par = Family->Parallel;
    for (unsigned V = 0; V != N; ++V) {
      unsigned Both = Interf.degree(V) + Par.degree(V) - Live.degree(V);
      Num[V] = {Interf.degree(V) - Both, Par.degree(V) - Both, Both};
      refresh(V);
    }
    buildRows();
  }

  /// The one simplify / spill-choice loop (see ColoringEngine.h).
  std::vector<unsigned> removeAll(const std::vector<double> &Costs,
                                  double WI, double WP, bool Optimistic,
                                  Allocation &Out) {
    assert(Costs.size() == Interf.numVertices() &&
           "cost vector size mismatch");
    std::vector<unsigned> Stack;
    while (Remaining != 0) {
      simplify(Stack);
      if (Remaining == 0)
        break;

      // Step 3: some vertex colorable if we give up parallelism? Take the
      // vertex needing the fewest removals and drop its least beneficial
      // parallel-only edges.
      if (unsigned V = victim(); V != ~0u) {
        Out.ParallelEdgesDropped += dropCheapestParallelEdges(V);
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

  const UndirectedGraph &selectGraph() const {
    return Family != nullptr ? Live : Interf;
  }

private:
  static constexpr unsigned NoRank = ~0u;

  /// Removes every vertex the lowest-index repeated sweep would remove,
  /// pushing them on \p Stack in sweep order.
  void simplify(std::vector<unsigned> &Stack) {
    unsigned Cursor = 0;
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

  /// Drops \p V's present parallel-only edges in (benefit, index) order
  /// until \p V can be simplified. \returns the number dropped.
  ///
  /// This is the one-drop step 3 repeated. After a drop that leaves V at
  /// r or more, no present vertex is below r, so the next simplify
  /// removes nothing, and V is the victim again: its key fell by one, as
  /// did its partner's, and no other key changed. The partner U never
  /// reaches r - 1 first. If U is a victim candidate its key was at least
  /// V's, so degree(U) = r forces degree(V) = r; otherwise U's
  /// interference degree is at least r, so the edge to V put it above r.
  ///
  /// V leaves at the next simplify, so this run is the only one to read
  /// V's rows: the height-sum row is built from V's present edges here,
  /// and only the explicit row, laid out up front, can hold gone entries.
  unsigned dropCheapestParallelEdges(unsigned V) {
    buildRankedRow(V);
    int K = RankedRow.findFirst();
    unsigned E = ExplicitStart[V], End = ExplicitStart[V + 1];
    unsigned Dropped = 0;
    do {
      while (E != End && gone(V, Explicit[E].second))
        ++E;
      bool TakeRanked = K >= 0;
      if (TakeRanked && E != End) {
        unsigned U = Order[static_cast<unsigned>(K)];
        double Benefit = static_cast<double>(Family->DefHeight[V] +
                                             Family->DefHeight[U]);
        TakeRanked = std::make_pair(Benefit, U) < Explicit[E];
      }
      unsigned U;
      if (TakeRanked) {
        U = Order[static_cast<unsigned>(K)];
        K = RankedRow.findNext(static_cast<unsigned>(K));
      } else {
        assert(E != End && "interference degree < combined degree implies "
                           "a parallel-only edge");
        U = Explicit[E++].second;
      }
      assert(!gone(V, U) && "only V's own drops remove edges in its run");
      Live.removeEdge(V, U);
      --Num[V].P;
      --Num[U].P;
      assert((degree(U) >= R || degree(V) < R) &&
             "the partner fell below r before the victim");
      refresh(U);
      ++Dropped;
    } while (degree(V) >= R);
    // V's key only fell during the run, so one re-filing at its end
    // leaves the worklists as a re-filing after every drop would.
    refresh(V);
    return Dropped;
  }

  /// Step 4: the present vertex of least h* (then index); the first
  /// survivor seeds the choice so all-infinite costs still progress, and
  /// a NaN h* (an infinite cost over an overflowed Σw) never replaces it.
  /// Without a family nP = nB = 0, so Σw is nI * wI plus two zeros: with
  /// weights (1, 1), Chaitin's double(degree) exactly.
  unsigned spillCandidate(const std::vector<double> &Costs, double WI,
                          double WP) const {
    unsigned Spill = ~0u;
    double BestH = std::numeric_limits<double>::infinity();
    Present.forEachSetBit([&](unsigned V) {
      const Counts &C = Num[V];
      double WeightSum = C.I * WI + C.P * WP + C.B * (WI + WP);
      // All surviving vertices have degree >= r >= 1, but guard against a
      // zero weight sum from degenerate weight settings.
      double H = WeightSum > 0.0 ? Costs[V] / WeightSum : Costs[V];
      if (Spill == ~0u || H < BestH) {
        BestH = H;
        Spill = V;
      }
    });
    return Spill;
  }

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
    const BitVector &InI = Interf.neighbors(V);
    const BitVector &InP = Family->Parallel.neighbors(V);
    Scratch = Live.neighbors(V);
    Scratch.intersectWith(Present);
    Scratch.forEachSetBit([&](unsigned U) {
      bool I = InI.test(U);
      bool P = InP.test(U);
      Counts &C = Num[U];
      --(I && P ? C.B : I ? C.I : C.P);
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

  /// True when parallel-only edge {\p V, \p U} has left the graph.
  bool gone(unsigned V, unsigned U) const {
    return !Present.test(U) || !Live.hasEdge(V, U);
  }

  /// Sorts the vertices with a height by (height, index) once, and lays
  /// out every vertex's parallel-only explicit edges in (benefit, index)
  /// order.
  void buildRows() {
    unsigned N = Interf.numVertices();
    std::vector<uint64_t> Keys;
    for (unsigned V = 0; V != N; ++V)
      if (Family->DefHeight[V] != ParallelFamily::NoHeight)
        Keys.push_back(uint64_t(Family->DefHeight[V]) << 32 | V);
    std::sort(Keys.begin(), Keys.end());
    Order.resize(Keys.size());
    Rank.assign(N, NoRank);
    for (unsigned K = 0, E = static_cast<unsigned>(Keys.size()); K != E;
         ++K) {
      Order[K] = static_cast<unsigned>(Keys[K]);
      Rank[Order[K]] = K;
    }
    RankedRow.resize(static_cast<unsigned>(Order.size()));

    ExplicitStart.assign(N + 1, 0);
    for (const ParallelEdge &E : Family->Explicit)
      if (!Interf.hasEdge(E.A, E.B)) {
        ++ExplicitStart[E.A + 1];
        ++ExplicitStart[E.B + 1];
      }
    for (unsigned V = 0; V != N; ++V)
      ExplicitStart[V + 1] += ExplicitStart[V];
    std::vector<unsigned> Fill(ExplicitStart.begin(), ExplicitStart.end() - 1);
    Explicit.resize(ExplicitStart[N]);
    for (const ParallelEdge &E : Family->Explicit)
      if (!Interf.hasEdge(E.A, E.B)) {
        Explicit[Fill[E.A]++] = {E.Benefit, E.B};
        Explicit[Fill[E.B]++] = {E.Benefit, E.A};
      }
    for (unsigned V = 0; V != N; ++V)
      std::sort(Explicit.begin() + ExplicitStart[V],
                Explicit.begin() + ExplicitStart[V + 1]);
  }

  /// Fills RankedRow with \p V's present height-sum neighbours as a row
  /// over ranks: bit K is set when Order[K] is one. Every such neighbour
  /// U has benefit H(V) + H(U), so ascending rank is (benefit, index)
  /// order. Empty when V itself has no height.
  void buildRankedRow(unsigned V) {
    RankedRow.resetAll();
    if (Rank[V] == NoRank)
      return;
    Scratch = Live.neighbors(V);
    Scratch.subtract(Interf.neighbors(V));
    Scratch.intersectWith(Present);
    Scratch.forEachSetBit([&](unsigned U) {
      if (Rank[U] != NoRank)
        RankedRow.set(Rank[U]);
    });
    // Region edges between two such vertices carry an explicit benefit.
    for (unsigned I = ExplicitStart[V]; I != ExplicitStart[V + 1]; ++I)
      if (unsigned K = Rank[Explicit[I].second]; K != NoRank)
        RankedRow.reset(K);
  }

  struct Counts {
    unsigned I, P, B;
  };

  const UndirectedGraph &Interf;
  const ParallelFamily *Family;
  unsigned R;
  unsigned Remaining;
  BitVector Present;
  BitVector Low;
  BitVector Scratch;
  std::vector<Counts> Num;

  // Step 3 state, built only with a family.
  UndirectedGraph Live;
  MinTree Victims;
  std::vector<unsigned> Order, Rank;
  BitVector RankedRow;
  std::vector<unsigned> ExplicitStart;
  std::vector<std::pair<double, unsigned>> Explicit;
};

} // namespace

Allocation pira::colorGraph(const UndirectedGraph &Interference,
                            const std::vector<double> &Costs,
                            unsigned NumRegs, const ParallelFamily *Family,
                            double InterferenceWeight,
                            double ParallelWeight) {
  Allocation Out;
  Out.ColorOfWeb.assign(Interference.numVertices(), -1);
  Engine Work(Interference, NumRegs, Family);
  std::vector<unsigned> Stack = Work.removeAll(
      Costs, InterferenceWeight, ParallelWeight, /*Optimistic=*/false, Out);
  if (Out.SpilledWebs.empty())
    assignColorsGreedy(Work.selectGraph(), Stack, Out);
  return Out;
}

std::vector<unsigned> pira::optimisticRemovalOrder(
    const UndirectedGraph &G, const std::vector<double> &Costs,
    unsigned NumRegs) {
  Allocation Unused;
  Engine Work(G, NumRegs, nullptr);
  return Work.removeAll(Costs, 1.0, 1.0, /*Optimistic=*/true, Unused);
}
