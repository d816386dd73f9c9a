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
#include <bit>
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

/// Sorts \p Edges by benefit, keeping their order among equal benefits:
/// an LSD radix sort over each benefit's order-preserving bit pattern,
/// one byte per pass. Passes where every key has the same byte are
/// skipped, so integer-valued benefits take two or three.
void sortByBenefitStable(std::vector<ParallelEdge> &Edges) {
  auto KeyOf = [](double Benefit) {
    // -0.0 and +0.0 must tie, as they do under operator<.
    uint64_t Bits = std::bit_cast<uint64_t>(Benefit == 0.0 ? 0.0 : Benefit);
    return Bits >> 63 ? ~Bits : Bits | uint64_t(1) << 63;
  };
  size_t Count[8][256] = {};
  for (const ParallelEdge &E : Edges) {
    uint64_t Key = KeyOf(E.Benefit);
    for (unsigned Byte = 0; Byte != 8; ++Byte)
      ++Count[Byte][Key >> 8 * Byte & 0xff];
  }
  std::vector<ParallelEdge> Sorted(Edges.size());
  for (unsigned Byte = 0; Byte != 8; ++Byte) {
    size_t *Start = Count[Byte];
    if (std::find(Start, Start + 256, Edges.size()) != Start + 256)
      continue;
    size_t Sum = 0;
    for (unsigned Digit = 0; Digit != 256; ++Digit)
      Sum += std::exchange(Start[Digit], Sum);
    for (const ParallelEdge &E : Edges)
      Sorted[Start[KeyOf(E.Benefit) >> 8 * Byte & 0xff]++] = E;
    Edges.swap(Sorted);
  }
}

/// The Section 4 procedure over incrementally maintained worklists. Each
/// structure answers one question of the original whole-graph rescans
/// exactly, tie-breaks included (see DESIGN.md §5):
///   * Low — present webs of combined degree < r. Degrees only fall, so
///     the next member at or after a cursor is the web the lowest-index
///     simplify sweep would remove next.
///   * Victims — present webs of interference degree < r keyed on
///     (combined degree, index): step 3's victim is the minimum.
///   * Rows — each web's parallel-only neighbours in (benefit, index)
///     order. Edges only ever disappear, so a cursor that skips gone
///     entries finds step 3's edge.
///   * NumI/NumP/NumB — present neighbours joined by an interference-only,
///     parallel-only or both-families edge, from which step 4 takes Σw.
class PinterColoring {
public:
  PinterColoring(const ParallelInterferenceGraph &PIG, unsigned NumRegs)
      : Interf(PIG.interference()), Par(PIG.parallel()),
        Live(PIG.combined()), R(NumRegs), Present(PIG.numWebs(), true),
        Low(PIG.numWebs()), Victims(PIG.numWebs()),
        Remaining(PIG.numWebs()) {
    unsigned N = PIG.numWebs();
    NumI.resize(N);
    NumP.resize(N);
    NumB.resize(N);
    for (unsigned V = 0; V != N; ++V) {
      unsigned Both = Interf.degree(V) + Par.degree(V) - Live.degree(V);
      NumB[V] = Both;
      NumI[V] = Interf.degree(V) - Both;
      NumP[V] = Par.degree(V) - Both;
      refresh(V);
    }
    buildRows(PIG);
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

  /// Drops \p V's present parallel-only edge of least benefit (then
  /// neighbour index).
  void dropCheapestParallelEdge(unsigned V) {
    unsigned &C = Cursor[V];
    while (true) {
      assert(C != RowStart[V + 1] &&
             "interference degree < combined degree implies a "
             "parallel-only edge");
      unsigned U = Rows[C++];
      if (Present.test(U) && Live.hasEdge(V, U)) {
        Live.removeEdge(V, U);
        --NumP[V];
        --NumP[U];
        refresh(V);
        refresh(U);
        return;
      }
    }
  }

  /// Step 4: the present web of least h* (then index); the first
  /// survivor seeds the choice so all-infinite costs still progress.
  unsigned spillCandidate(const std::vector<double> &Costs,
                          const PinterOptions &Opts) const {
    double WI = Opts.InterferenceWeight;
    double WP = Opts.ParallelWeight;
    unsigned Spill = ~0u;
    double BestH = std::numeric_limits<double>::infinity();
    for (int I = Present.findFirst(); I != -1;
         I = Present.findNext(static_cast<unsigned>(I))) {
      unsigned V = static_cast<unsigned>(I);
      double WeightSum = NumI[V] * WI + NumP[V] * WP + NumB[V] * (WI + WP);
      // All surviving vertices have degree >= r >= 1, but guard against a
      // zero weight sum from degenerate option settings.
      double H = WeightSum > 0.0 ? Costs[V] / WeightSum : Costs[V];
      if (Spill == ~0u || H < BestH) {
        BestH = H;
        Spill = V;
      }
    }
    return Spill;
  }

  void removeVertex(unsigned V) {
    assert(Present.test(V) && "vertex removed twice");
    Present.reset(V);
    Low.reset(V);
    Victims.erase(V);
    --Remaining;
    const BitVector &Row = Live.neighbors(V);
    for (int I = Row.findFirst(); I != -1;
         I = Row.findNext(static_cast<unsigned>(I))) {
      unsigned U = static_cast<unsigned>(I);
      if (!Present.test(U))
        continue;
      bool InI = Interf.hasEdge(V, U);
      bool InP = Par.hasEdge(V, U);
      --(InI && InP ? NumB[U] : InI ? NumI[U] : NumP[U]);
      refresh(U);
    }
  }

  /// The combined graph minus dropped edges; removed webs keep theirs, as
  /// select needs.
  const UndirectedGraph &selectGraph() const { return Live; }

private:
  /// Re-files present web \p V after its degrees changed.
  void refresh(unsigned V) {
    unsigned Degree = NumI[V] + NumP[V] + NumB[V];
    if (Degree < R)
      Low.set(V);
    if (NumI[V] + NumB[V] < R)
      Victims.decrease(V, uint64_t(Degree) << 32 | V);
  }

  /// Lays out every web's parallel-only neighbours in (benefit, index)
  /// order: one sort of the edges by (benefit, A, B), then a stable
  /// distribution, puts the X < V entries of row V before the B > V ones,
  /// each ascending.
  void buildRows(const ParallelInterferenceGraph &PIG) {
    // The PIG's edges come sorted by (A, B), so a stable sort by benefit
    // leaves them in (benefit, A, B) order.
    std::vector<ParallelEdge> Order;
    for (const ParallelEdge &E : PIG.parallelEdges())
      if (!Interf.hasEdge(E.A, E.B))
        Order.push_back(E);
    sortByBenefitStable(Order);
    unsigned N = PIG.numWebs();
    RowStart.assign(N + 1, 0);
    for (const ParallelEdge &E : Order) {
      ++RowStart[E.A + 1];
      ++RowStart[E.B + 1];
    }
    for (unsigned V = 0; V != N; ++V)
      RowStart[V + 1] += RowStart[V];
    Cursor.assign(RowStart.begin(), RowStart.end() - 1);
    Rows.resize(RowStart[N]);
    for (const ParallelEdge &E : Order) {
      Rows[Cursor[E.A]++] = E.B;
      Rows[Cursor[E.B]++] = E.A;
    }
    Cursor.assign(RowStart.begin(), RowStart.end() - 1);
  }

  const UndirectedGraph &Interf;
  const UndirectedGraph &Par;
  UndirectedGraph Live;
  unsigned R;
  BitVector Present;
  BitVector Low;
  MinTree Victims;
  unsigned Remaining;
  std::vector<unsigned> NumI, NumP, NumB;
  std::vector<unsigned> RowStart, Rows, Cursor;
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
      Work.dropCheapestParallelEdge(Victim);
      ++Out.ParallelEdgesDropped;
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
