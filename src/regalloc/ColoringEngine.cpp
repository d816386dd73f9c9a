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
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <tuple>
#include <utility>

using namespace pira;

namespace {

/// Binary min-heap of (key, vertex) entries, the lazy worklists of steps
/// 3 and 4. Its top can be raised in place: a stale key is re-keyed with
/// one sift down rather than a pop and a push.
template <typename KeyT> class MinHeap {
public:
  struct Entry {
    KeyT Key;
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

  void reserve(size_t N) { Heap.reserve(N); }
  bool empty() const { return Heap.empty(); }
  const Entry &top() const { return Heap.front(); }

  void push(KeyT Key, unsigned V) {
    size_t I = Heap.size();
    Entry Moving{Key, V};
    Heap.push_back(Moving);
    for (size_t Parent; I != 0 && Moving < Heap[Parent = (I - 1) / 2];
         I = Parent)
      Heap[I] = Heap[Parent];
    Heap[I] = Moving;
  }

  void pop() {
    Heap.front() = Heap.back();
    Heap.pop_back();
    if (!Heap.empty())
      siftDown(0);
  }

  /// Raises the top's key to \p Key. \returns true when it stays on top.
  bool raiseTop(KeyT Key) {
    assert(!(Key < Heap.front().Key) && "keys only rise");
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
///     interference-only (I) or both-families (B) edge, and with a
///     family its present Et partners and explicit partners. Without a
///     family only I is ever non-zero, and it is the degree.
/// With a family the parallel neighbours are never walked. Each group
/// keeps S, the present members of its compatible groups (less the
/// vertex itself when the group is compatible with itself), so a
/// vertex's parallel degree is S - Et + X, where Et counts its present
/// Et partners and X its present explicit partners. Its combined
/// degree is S plus its correction I - Et + X. Per group:
///   * Candidates — a lazy min-heap of the members of interference
///     degree < r that are not in Low, keyed on a lower bound of their
///     correction (one that rose, as an Et partner left and S fell with
///     it, reads too low and is raised when it reaches the top). Step
///     3's victim is the least (S + correction, index) over the groups'
///     exact tops, and when S falls, the members whose correction now
///     lies under r - S join Low. Combined degree is at least
///     interference degree, so no other vertex can join Low.
/// Webs that are no member share one group of their own with S = 0.
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
        Low(Interf.numVertices()), Num(Interf.numVertices()) {
    assert(NumRegs >= 1 && "coloring needs at least one register");
    unsigned N = Interf.numVertices();
    if (Family == nullptr) {
      for (unsigned V = 0; V != N; ++V) {
        Num[V] = {Interf.degree(V), 0, 0, 0};
        if (Num[V].I < R)
          Low.set(V);
      }
      return;
    }
    buildGroups();
    buildExplicitRows();
    IsVictim.resize(N);
    for (unsigned V = 0; V != N; ++V) {
      unsigned Both = Family->BothDegree[V];
      Num[V] = {Interf.degree(V) - Both, Both,
                Family->EtStart[V + 1] - Family->EtStart[V],
                ExplicitStart[V + 1] - ExplicitStart[V]};
      int C = correction(V);
      unsigned G = Group[V];
      if (Groups[G].S + C < static_cast<int>(R))
        Low.set(V);
      else if (Num[V].I + Num[V].B < R)
        pushCandidate(V);
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
    Stack.reserve(Remaining);
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
        Out.ParallelEdgesDropped += parallelOnlyDegree(V) - Keep;
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
  /// colors against the combined graph. Its implicit neighbours' colors
  /// are the per-group color counts over its compatible groups less its
  /// colored Et partners' colors. A victim colors against its colored
  /// interference neighbours and the k most beneficial of its colored
  /// parallel-only neighbours, k = r - 1 - (the former), in (benefit,
  /// index) order: the edges its drops kept.
  void select(const std::vector<unsigned> &Stack, Allocation &Out) {
    assert(Family != nullptr && "only step 3 needs this select");
    unsigned N = Interf.numVertices();
    buildRanks();
    BitVector Colored(N);
    std::vector<bool> Used;
    std::vector<int> Tally;
    std::vector<unsigned> ColorCount(size_t(NonMembers) * R, 0);
    std::vector<std::pair<double, unsigned>> Kept;
    // Every vertex left with fewer than r live neighbours, so each takes
    // one of colors 0 .. r - 1.
    auto Mark = [&](unsigned U) { Used[Out.ColorOfWeb[U]] = true; };
    for (auto It = Stack.rbegin(), E = Stack.rend(); It != E; ++It) {
      unsigned V = *It;
      unsigned G = Group[V];
      Used.assign(R, false);
      Scratch = Interf.neighbors(V);
      Scratch.intersectWith(Colored);
      unsigned Interfering = 0;
      Scratch.forEachSetBit([&](unsigned U) {
        Mark(U);
        ++Interfering;
      });
      if (!IsVictim.test(V)) {
        for (unsigned I = ExplicitStart[V]; I != ExplicitStart[V + 1]; ++I)
          if (Colored.test(Explicit[I].first))
            Mark(Explicit[I].first);
        if (G != NonMembers) {
          Tally.assign(R, 0);
          for (unsigned C : compatible(G))
            for (unsigned Color = 0; Color != R; ++Color)
              Tally[Color] += ColorCount[size_t(C) * R + Color];
          for (unsigned U : etPartners(V))
            if (Colored.test(U))
              --Tally[Out.ColorOfWeb[U]];
          for (unsigned Color = 0; Color != R; ++Color)
            if (Tally[Color] > 0)
              Used[Color] = true;
        }
      } else {
        assert(Interfering < R && "a victim's interference degree is < r");
        keepBest(V, R - 1 - Interfering, Colored, Kept);
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
      if (G != NonMembers) {
        ++ColorCount[size_t(G) * R + Color];
        ColoredByRank.set(RankPos[V]);
      }
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
  /// Each group's least (correction, index) is its top once the stale
  /// keys above it are raised; S is shared within a group.
  unsigned victim() {
    if (Family == nullptr)
      return ~0u;
    uint64_t Best = ~uint64_t(0);
    for (size_t I = 0; I != VictimGroups.size();) {
      unsigned G = VictimGroups[I];
      MinHeap<int> &H = Groups[G].Candidates;
      while (!H.empty()) {
        auto [Key, V] = H.top();
        if (!Present.test(V)) {
          H.pop();
          continue;
        }
        int C = correction(V);
        assert(Key <= C && "a victim key above its correction");
        if (Key == C)
          break;
        H.raiseTop(C);
      }
      if (H.empty()) {
        Groups[G].Listed = false;
        VictimGroups[I] = VictimGroups.back();
        VictimGroups.pop_back();
        continue;
      }
      uint64_t Degree = static_cast<uint64_t>(Groups[G].S + H.top().Key);
      Best = std::min(Best, Degree << 32 | H.top().V);
      ++I;
    }
    return Best == ~uint64_t(0) ? ~0u : static_cast<unsigned>(Best);
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
      std::vector<MinHeap<uint64_t>::Entry> Entries;
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

  /// h* of \p V over its present neighbours: nI interference-only, nP
  /// parallel-only and nB in both families. Without a family nP = nB =
  /// 0, so Σw is nI * wI plus two zeros: with weights (1, 1), Chaitin's
  /// double(degree) exactly.
  double hStar(unsigned V, const std::vector<double> &Costs, double WI,
               double WP) const {
    const Counts &C = Num[V];
    unsigned P = Family != nullptr ? parallelOnlyDegree(V) : 0;
    double WeightSum = C.I * WI + P * WP + C.B * (WI + WP);
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
        if (--Num[U].I < R)
          Low.set(U);
      });
      return;
    }
    unsigned G = Group[V];
    bool Member = G != NonMembers;
    // Each interference neighbour's edge is in both families when the
    // neighbour is a member of a compatible group and no Et partner, or
    // is an explicit partner. The two partner kinds are disjoint, so one
    // mark tells them apart: the edge is parallel when exactly one of
    // "compatible member" and "marked" holds.
    ++Stamp;
    if (Member)
      for (unsigned C : compatible(G))
        Groups[C].Mark = Stamp;
    // An Et partner loses a member of its compatible groups below, but
    // no parallel neighbour: its correction rises as S falls.
    for (unsigned U : etPartners(V)) {
      WebMark[U] = Stamp;
      if (Present.test(U))
        --Num[U].Et;
    }
    for (unsigned I = ExplicitStart[V]; I != ExplicitStart[V + 1]; ++I) {
      unsigned U = Explicit[I].first;
      WebMark[U] = Stamp;
      if (Present.test(U)) {
        --Num[U].X;
        file(U);
      }
    }
    Scratch = Interf.neighbors(V);
    Scratch.intersectWith(Present);
    Scratch.forEachSetBit([&](unsigned U) {
      bool Parallel = (Member & (Groups[Group[U]].Mark == Stamp)) ^
                      (WebMark[U] == Stamp);
      Counts &C = Num[U];
      C.I -= !Parallel;
      C.B -= Parallel;
      // The correction fell, or U just became a step 3 candidate. Most
      // of round 1's dense graph stays at interference degree r or more.
      if (C.I + C.B < R && (!Parallel || C.I + C.B == R - 1))
        file(U);
    });
    if (!Member)
      return;
    for (unsigned C : compatible(G))
      --Groups[C].S;
    for (unsigned C : compatible(G))
      scanLow(C);
  }

  /// Files present vertex \p V after its correction fell or it became a
  /// step 3 candidate: it joins Low, or its new key joins its group's
  /// candidates. Nothing is filed while its interference degree is r or
  /// more, as in most of round 1's dense graph: its combined degree is r
  /// or more too.
  void file(unsigned V) {
    if (Num[V].I + Num[V].B >= R || Low.test(V))
      return;
    if (Groups[Group[V]].S + correction(V) < static_cast<int>(R))
      Low.set(V);
    else
      pushCandidate(V);
  }

  /// Adds \p V's current key to its group's step 3 candidates.
  void pushCandidate(unsigned V) {
    GroupState &G = Groups[Group[V]];
    G.Candidates.push(correction(V), V);
    if (!G.Listed) {
      G.Listed = true;
      VictimGroups.push_back(Group[V]);
    }
  }

  /// Moves the members of group \p G whose degree fell below r, now that
  /// its S fell, into Low; only step 3's candidates can.
  void scanLow(unsigned G) {
    int Threshold = static_cast<int>(R) - Groups[G].S;
    MinHeap<int> &H = Groups[G].Candidates;
    while (!H.empty() && H.top().Key < Threshold) {
      unsigned V = H.top().V;
      if (!Present.test(V) || Low.test(V)) {
        H.pop();
      } else if (int C = correction(V); C < Threshold) {
        Low.set(V);
        H.pop();
      } else {
        H.raiseTop(C);
      }
    }
  }

  /// Combined degree of present vertex \p V less its group's S.
  int correction(unsigned V) const {
    const Counts &C = Num[V];
    return static_cast<int>(C.I + C.X) - static_cast<int>(C.Et);
  }

  /// Present parallel-only neighbours of \p V.
  unsigned parallelOnlyDegree(unsigned V) const {
    const Counts &C = Num[V];
    return static_cast<unsigned>(Groups[Group[V]].S + static_cast<int>(C.X) -
                                 static_cast<int>(C.Et + C.B));
  }

  std::span<const unsigned> compatible(unsigned G) const {
    if (G == NonMembers)
      return {};
    return Family->Compatible.subspan(
        Family->CompatibleStart[G],
        Family->CompatibleStart[G + 1] - Family->CompatibleStart[G]);
  }

  std::span<const unsigned> etPartners(unsigned V) const {
    return Family->EtPartners.subspan(Family->EtStart[V],
                                      Family->EtStart[V + 1] -
                                          Family->EtStart[V]);
  }

  /// Numbers the groups, non-members last, and sets each group's S.
  void buildGroups() {
    unsigned N = Interf.numVertices();
    NonMembers = static_cast<unsigned>(Family->CompatibleStart.size() - 1);
    Group.resize(N);
    GroupStart.assign(NonMembers + 2, 0);
    for (unsigned V = 0; V != N; ++V) {
      unsigned G = Family->GroupOf[V];
      Group[V] = G == ParallelFamily::NoGroup ? NonMembers : G;
      ++GroupStart[Group[V] + 1];
    }
    Groups.resize(NonMembers + 1);
    for (unsigned G = 0; G != NonMembers + 1; ++G) {
      for (unsigned C : compatible(G))
        Groups[G].S += static_cast<int>(GroupStart[C + 1]) - (C == G);
      Groups[G].Candidates.reserve(GroupStart[G + 1]);
    }
    for (unsigned G = 0; G != NonMembers + 1; ++G)
      GroupStart[G + 1] += GroupStart[G];
    VictimGroups.reserve(NonMembers + 1);
    WebMark.assign(N, 0);
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
    // arrive in order, then those above it. Each offset advances to the
    // next vertex's start; shifting them up one restores them.
    Explicit.resize(ExplicitStart[N]);
    for (const ParallelEdge &E : Family->Explicit) {
      Explicit[ExplicitStart[E.A]++] = {E.B, E.Benefit};
      Explicit[ExplicitStart[E.B]++] = {E.A, E.Benefit};
    }
    std::copy_backward(ExplicitStart.begin(), ExplicitStart.end() - 1,
                       ExplicitStart.end());
    ExplicitStart[0] = 0;
  }

  /// Lays out each group's members by (height, index), highest first,
  /// the order in which a victim reads a group's colored members.
  void buildRanks() {
    unsigned N = Interf.numVertices();
    ByRank.resize(GroupStart[NonMembers]);
    RankPos.assign(N, 0);
    std::vector<unsigned> Fill(GroupStart.begin(), GroupStart.end() - 1);
    for (unsigned V = 0; V != N; ++V)
      if (Group[V] != NonMembers)
        ByRank[Fill[Group[V]]++] = V;
    const std::span<const unsigned> Height = Family->DefHeight;
    for (unsigned G = 0; G != NonMembers; ++G)
      std::sort(ByRank.begin() + GroupStart[G],
                ByRank.begin() + GroupStart[G + 1],
                [&](unsigned A, unsigned B) {
                  return std::tie(Height[A], A) > std::tie(Height[B], B);
                });
    for (unsigned P = 0, E = GroupStart[NonMembers]; P != E; ++P)
      RankPos[ByRank[P]] = P;
    ColoredByRank = BitVector(GroupStart[NonMembers]);
  }

  /// Fills \p Kept with the \p Keep largest (benefit, index) keys among
  /// \p V's colored parallel-only neighbours, in no particular order.
  /// Within a compatible group the benefit is V's height plus the
  /// member's, so each group's colored members in (height, index) order,
  /// skipping Et partners and interference neighbours, are its implicit
  /// partners best first; merging the groups' heads yields the best
  /// Keep of them.
  void keepBest(unsigned V, unsigned Keep, const BitVector &Colored,
                std::vector<std::pair<double, unsigned>> &Kept) {
    Kept.clear();
    if (Keep == 0)
      return;
    unsigned G = Group[V];
    if (G != NonMembers) {
      ++Stamp;
      for (unsigned U : etPartners(V))
        WebMark[U] = Stamp;
      // Per compatible group, the rank position of its best partner left
      // and the end of its ranks.
      Heads.clear();
      auto Partner = [&](int P, unsigned End) {
        for (; P >= 0 && static_cast<unsigned>(P) < End;
             P = nextColored(static_cast<unsigned>(P) + 1)) {
          unsigned U = ByRank[static_cast<unsigned>(P)];
          if (WebMark[U] != Stamp && !Interf.hasEdge(V, U))
            return P;
        }
        return -1;
      };
      for (unsigned C : compatible(G))
        if (int P = Partner(nextColored(GroupStart[C]), GroupStart[C + 1]);
            P >= 0)
          Heads.push_back({P, GroupStart[C + 1]});
      const std::span<const unsigned> Height = Family->DefHeight;
      while (!Heads.empty() && Kept.size() != Keep) {
        size_t Best = 0;
        for (size_t I = 1; I != Heads.size(); ++I) {
          unsigned A = ByRank[static_cast<unsigned>(Heads[I].first)];
          unsigned B = ByRank[static_cast<unsigned>(Heads[Best].first)];
          if (std::tie(Height[A], A) > std::tie(Height[B], B))
            Best = I;
        }
        auto &[P, End] = Heads[Best];
        unsigned U = ByRank[static_cast<unsigned>(P)];
        Kept.push_back({static_cast<double>(Height[V] + Height[U]), U});
        P = Partner(nextColored(static_cast<unsigned>(P) + 1), End);
        if (P < 0) {
          Heads[Best] = Heads.back();
          Heads.pop_back();
        }
      }
    }
    for (unsigned I = ExplicitStart[V]; I != ExplicitStart[V + 1]; ++I) {
      unsigned U = Explicit[I].first;
      if (Colored.test(U) && !Interf.hasEdge(V, U))
        Kept.push_back({Explicit[I].second, U});
    }
    if (Kept.size() > Keep) {
      std::nth_element(Kept.begin(), Kept.begin() + Keep, Kept.end(),
                       std::greater<>());
      Kept.resize(Keep);
    }
  }

  /// The first colored rank position at or after \p From, or -1.
  int nextColored(unsigned From) const {
    if (From >= ColoredByRank.size())
      return -1;
    return From == 0 ? ColoredByRank.findFirst()
                     : ColoredByRank.findNext(From - 1);
  }

  struct GroupState {
    /// Present members of the compatible groups, less one for the
    /// vertex itself when the group is compatible with itself.
    int S = 0;
    /// Stamp of the removal whose vertex's group this is compatible with.
    unsigned Mark = 0;
    /// Whether VictimGroups lists the group.
    bool Listed = false;
    MinHeap<int> Candidates;
  };

  struct Counts {
    unsigned I;  ///< Present interference-only neighbours.
    unsigned B;  ///< Present neighbours in both families.
    unsigned Et; ///< Present Et partners.
    unsigned X;  ///< Present explicit partners.
  };

  const UndirectedGraph &Interf;
  const ParallelFamily *Family;
  unsigned R;
  unsigned Remaining;
  BitVector Present;
  BitVector Low;
  BitVector Scratch;
  std::vector<Counts> Num;

  // Step 4's lazy (h*, index) min-heap, built at the first spill choice.
  MinHeap<uint64_t> Spills;
  bool HeapBuilt = false;

  // Step 3 state, built only with a family.
  unsigned NonMembers = 0;
  std::vector<unsigned> Group;
  std::vector<unsigned> GroupStart;
  std::vector<GroupState> Groups;
  /// The groups whose candidates step 3 reads.
  std::vector<unsigned> VictimGroups;
  std::vector<unsigned> WebMark;
  unsigned Stamp = 0;
  BitVector IsVictim;
  std::vector<unsigned> ExplicitStart;
  std::vector<std::pair<unsigned, double>> Explicit;

  // Select's per-group rank order, built only when select runs, and
  // keepBest's merge heads.
  std::vector<unsigned> ByRank;
  std::vector<unsigned> RankPos;
  BitVector ColoredByRank;
  std::vector<std::pair<int, unsigned>> Heads;
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
