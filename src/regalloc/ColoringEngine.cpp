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
/// Step 3 never removes an edge. Its victim V would drop its cheapest
/// parallel-only edges until it simplifies, and then leave first at the
/// next sweep; so V leaves at once, as a victim, and select recovers the
/// edges V kept from the removal order (DESIGN.md §5, "Step 3 as a
/// removal"). Without a family every edge is an interference edge, so a
/// vertex's interference degree is its combined degree: any vertex below
/// r is in Low and leaves at the next simplify, and step 3 never fires.
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
      assert((Listed || (HV != ParallelFamily::NoHeight &&
                         Family->DefHeight[U] != ParallelFamily::NoHeight)) &&
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
  const ParallelFamily *Family;
  unsigned R;
  unsigned Remaining;
  BitVector Present;
  BitVector Low;
  BitVector Scratch;
  std::vector<Counts> Num;

  // Step 3 state, built only with a family.
  MinTree Victims;
  BitVector IsVictim;
  std::vector<unsigned> ExplicitStart;
  std::vector<std::pair<unsigned, double>> Explicit;
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
  if (!Out.SpilledWebs.empty())
    return Out;
  if (Family != nullptr)
    Work.select(Stack, Out);
  else
    assignColorsGreedy(Interference, Stack, Out);
  return Out;
}

std::vector<unsigned> pira::optimisticRemovalOrder(
    const UndirectedGraph &G, const std::vector<double> &Costs,
    unsigned NumRegs) {
  Allocation Unused;
  Engine Work(G, NumRegs, nullptr);
  return Work.removeAll(Costs, 1.0, 1.0, /*Optimistic=*/true, Unused);
}
