//===- core/PinterAllocator.cpp - Section 4 combined allocator ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "core/PinterAllocator.h"

#include "analysis/Webs.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/RegionHoist.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/PreScheduler.h"
#include "support/BitVector.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/UndirectedGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

using namespace pira;

PIRA_STAT(NumPinterRounds, "Combined-allocator color/spill/repeat rounds");
PIRA_STAT(NumPinterSpilledWebs, "Webs the combined allocator sent to memory");
PIRA_STAT(NumParallelEdgesSacrificed,
          "Parallel-only PIG edges dropped under register pressure");

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

/// The Section 4 procedure over incrementally maintained worklists. Each
/// structure answers one question of the original whole-graph rescans
/// exactly, tie-breaks included (see DESIGN.md §5):
///   * Low — present webs of combined degree < r. Degrees only fall, so
///     the next member at or after a cursor is the web the lowest-index
///     simplify sweep would remove next.
///   * Victims — present webs of interference degree < r keyed on
///     (combined degree, index): step 3's victim is the minimum.
///   * Rows — each web's parallel-only neighbours in (benefit, index)
///     order: the PIG's explicit edges sorted per web, merged with the
///     height-sum neighbours in the one (height, index) order of webs.
///     Edges only ever disappear, so cursors that skip gone entries find
///     step 3's edge, and each victim reads its rows in one run.
///   * Num — per web, its present neighbours joined by an
///     interference-only (I), parallel-only (P) or both-families (B)
///     edge, from which step 4 takes Σw.
class PinterColoring {
public:
  PinterColoring(const ParallelInterferenceGraph &PIG, unsigned NumRegs)
      : PIG(PIG), Interf(PIG.interference()), Par(PIG.parallel()),
        Live(PIG.combined()), R(NumRegs), Present(PIG.numWebs(), true),
        Low(PIG.numWebs()), Victims(PIG.numWebs()),
        Remaining(PIG.numWebs()) {
    unsigned N = PIG.numWebs();
    Num.resize(N);
    for (unsigned V = 0; V != N; ++V) {
      unsigned Both = Interf.degree(V) + Par.degree(V) - Live.degree(V);
      Num[V] = {Interf.degree(V) - Both, Par.degree(V) - Both, Both};
      refresh(V);
    }
    buildRows();
  }

  unsigned remaining() const { return Remaining; }

  /// Removes every web the lowest-index repeated sweep would remove,
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

  /// Step 3: the present web of smallest combined degree (then index)
  /// among those of interference degree < r, or ~0u when there is none.
  unsigned victim() const {
    uint64_t Key = Victims.min();
    return Key == MinTree::Absent ? ~0u : static_cast<unsigned>(Key);
  }

  /// Drops \p V's present parallel-only edges in (benefit, index) order
  /// until \p V can be simplified. \returns the number dropped.
  ///
  /// This is the one-drop step 3 repeated. After a drop that leaves V at
  /// r or more, no present web is below r, so the next simplify removes
  /// nothing, and V is the victim again: its key fell by one, as did its
  /// partner's, and no other key changed. The partner U never reaches
  /// r - 1 first. If U is a victim candidate its key was at least V's, so
  /// degree(U) = r forces degree(V) = r; otherwise U's interference
  /// degree is at least r, so the edge to V put it above r.
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
        double Benefit = static_cast<double>(PIG.defHeight(V) +
                                             PIG.defHeight(U));
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

  /// Step 4: the present web of least h* (then index); the first
  /// survivor seeds the choice so all-infinite costs still progress.
  unsigned spillCandidate(const std::vector<double> &Costs,
                          const PinterOptions &Opts) const {
    double WI = Opts.InterferenceWeight;
    double WP = Opts.ParallelWeight;
    unsigned Spill = ~0u;
    double BestH = std::numeric_limits<double>::infinity();
    Present.forEachSetBit([&](unsigned V) {
      const Counts &C = Num[V];
      double WeightSum = C.I * WI + C.P * WP + C.B * (WI + WP);
      // All surviving vertices have degree >= r >= 1, but guard against a
      // zero weight sum from degenerate option settings.
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
    Victims.erase(V);
    --Remaining;
    const BitVector &InI = Interf.neighbors(V);
    const BitVector &InP = Par.neighbors(V);
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

  /// The combined graph minus dropped edges; removed webs keep theirs, as
  /// select needs.
  const UndirectedGraph &selectGraph() const { return Live; }

private:
  static constexpr unsigned NoRank = ~0u;

  unsigned degree(unsigned V) const {
    return Num[V].I + Num[V].P + Num[V].B;
  }

  /// Re-files present web \p V after its degrees changed.
  void refresh(unsigned V) {
    unsigned Degree = degree(V);
    if (Degree < R)
      Low.set(V);
    if (Num[V].I + Num[V].B < R)
      Victims.decrease(V, uint64_t(Degree) << 32 | V);
  }

  /// True when parallel-only edge {\p V, \p U} has left the graph.
  bool gone(unsigned V, unsigned U) const {
    return !Present.test(U) || !Live.hasEdge(V, U);
  }

  /// Sorts the webs with a defHeight() by (height, index) once, and lays
  /// out every web's parallel-only explicit edges in (benefit, index)
  /// order.
  void buildRows() {
    unsigned N = PIG.numWebs();
    std::vector<uint64_t> Keys;
    for (unsigned V = 0; V != N; ++V)
      if (PIG.defHeight(V) != ParallelInterferenceGraph::NoHeight)
        Keys.push_back(uint64_t(PIG.defHeight(V)) << 32 | V);
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
    for (const ParallelEdge &E : PIG.explicitEdges())
      if (!Interf.hasEdge(E.A, E.B)) {
        ++ExplicitStart[E.A + 1];
        ++ExplicitStart[E.B + 1];
      }
    for (unsigned V = 0; V != N; ++V)
      ExplicitStart[V + 1] += ExplicitStart[V];
    std::vector<unsigned> Fill(ExplicitStart.begin(), ExplicitStart.end() - 1);
    Explicit.resize(ExplicitStart[N]);
    for (const ParallelEdge &E : PIG.explicitEdges())
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
    // Region edges between two such webs carry an explicit benefit.
    for (unsigned I = ExplicitStart[V]; I != ExplicitStart[V + 1]; ++I)
      if (unsigned K = Rank[Explicit[I].second]; K != NoRank)
        RankedRow.reset(K);
  }

  const ParallelInterferenceGraph &PIG;
  const UndirectedGraph &Interf;
  const UndirectedGraph &Par;
  UndirectedGraph Live;
  unsigned R;
  BitVector Present;
  BitVector Low;
  BitVector Scratch;
  MinTree Victims;
  unsigned Remaining;
  struct Counts {
    unsigned I, P, B;
  };
  std::vector<Counts> Num;
  std::vector<unsigned> Order, Rank;
  BitVector RankedRow;
  std::vector<unsigned> ExplicitStart;
  std::vector<std::pair<double, unsigned>> Explicit;
};

} // namespace

Allocation pira::pinterColor(const ParallelInterferenceGraph &PIG,
                             const std::vector<double> &Costs,
                             unsigned NumRegs, const PinterOptions &Opts) {
  PIRA_TIME_SCOPE("pig/coloring");
  assert(Costs.size() == PIG.numWebs() && "cost vector size mismatch");
  Allocation Out;
  Out.ColorOfWeb.assign(PIG.numWebs(), -1);

  PinterColoring Work(PIG, NumRegs);
  std::vector<unsigned> Stack;
  while (Work.remaining() != 0) {
    Work.simplify(Stack);
    if (Work.remaining() == 0)
      break;

    // Step 3: some vertex colorable if we give up parallelism? Take the
    // vertex needing the fewest removals and drop its least beneficial
    // parallel-only edge.
    unsigned Victim = Work.victim();
    if (Victim != ~0u) {
      Out.ParallelEdgesDropped += Work.dropCheapestParallelEdges(Victim);
      continue;
    }

    // Step 4: spill by the generalized metric h*.
    unsigned Spill = Work.spillCandidate(Costs, Opts);
    assert(Spill != ~0u && "no spill candidate among survivors");
    Out.SpilledWebs.push_back(Spill);
    Work.removeVertex(Spill);
  }
  NumParallelEdgesSacrificed += Out.ParallelEdgesDropped;

  if (Out.SpilledWebs.empty())
    assignColorsGreedy(Work.selectGraph(), Stack, Out);
  return Out;
}

PinterStats pira::pinterAllocate(Function &F, unsigned NumRegs,
                                 const MachineModel &Machine,
                                 const PinterOptions &Opts,
                                 Function *SymbolicSnapshot) {
  PIRA_TIME_SCOPE("alloc/pinter");
  PinterStats Stats;
  std::set<Reg> NoSpillRegs;
  constexpr double Infinite = std::numeric_limits<double>::infinity();

  for (unsigned Round = 0; Round != Opts.MaxRounds; ++Round) {
    // Cooperative watchdog: a stalled color/spill/repeat loop unwinds
    // here instead of holding its worker hostage.
    deadline::checkpoint();
    ++Stats.Rounds;
    ++NumPinterRounds;
    // Preliminary EP reordering improves the *input* order once. It must
    // not run again after spill rounds: it would hoist the fresh reload
    // loads (which have no predecessors) away from their uses, stretching
    // their live ranges and recreating the pressure the spill relieved.
    if (Round == 0) {
      if (Opts.UseRegions)
        Stats.HoistedInstructions = regionHoist(F);
      if (Opts.PreSchedule)
        Stats.PreScheduleMoves += preScheduleFunction(F, Machine);
    }

    PIRA_TIME_SCOPE("alloc/round");
    Webs W(F);
    InterferenceGraph IG(F, W);
    ParallelInterferenceGraph PIG(F, W, IG, Machine, Opts.UseRegions,
                                  Opts.ClosurePool);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)))
        Costs[Web] = Infinite;

    Allocation A = pinterColor(PIG, Costs, NumRegs, Opts);
    Stats.ParallelEdgesDropped += A.ParallelEdgesDropped;
    if (A.fullyColored()) {
      if (SymbolicSnapshot != nullptr)
        *SymbolicSnapshot = F;
      applyAllocation(F, W, A);
      Stats.Success = true;
      Stats.ColorsUsed = A.NumColorsUsed;
      return Stats;
    }
    Stats.SpilledWebs += static_cast<unsigned>(A.SpilledWebs.size());
    NumPinterSpilledWebs += A.SpilledWebs.size();
    SpillCode Code = insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
    Stats.SpillStores += Code.Stores;
    Stats.SpillLoads += Code.Loads;
  }
  return Stats;
}
