//===- sched/ListScheduler.h - Resource-constrained scheduling -*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cycle-driven list scheduler in the Gibbons-Muchnick style the paper
/// cites: at each cycle, ready instructions (all predecessors issued and
/// latencies elapsed) compete for the machine's functional units and
/// issue slots, highest critical-path height first. It runs after
/// register allocation — on a dependence graph that reflects whatever
/// anti/output dependences the allocator introduced — which is exactly
/// where the paper's framework pays off.
///
/// Its cycle loop, listSchedule, also runs Goodman-Hsu's integrated
/// prepass (IntegratedPrepass.h): the two differ only in the priority.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SCHED_LISTSCHEDULER_H
#define PIRA_SCHED_LISTSCHEDULER_H

#include "analysis/DependenceGraph.h"
#include "machine/MachineModel.h"
#include "sched/Schedule.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <utility>
#include <vector>

namespace pira {

class Function;

/// Unit capacity per unit kind.
using UnitCounts = std::array<unsigned, NumUnitKinds>;

/// A node a list-scheduling priority picked, and its unit kind.
struct SchedPick {
  static constexpr unsigned None = ~0u;
  unsigned Node = None;
  unsigned Kind = 0;
};

/// The critical-path order: greatest height first, then the lowest index
/// (program order).
struct HeightOrder {
  std::vector<unsigned> Height;
  bool before(unsigned A, unsigned B) const {
    return Height[A] != Height[B] ? Height[A] > Height[B] : A < B;
  }
  /// A heap comparator that keeps the best node on top. It refers to
  /// this order rather than copying the heights.
  auto heapLess() const {
    return [this](unsigned A, unsigned B) { return before(B, A); };
  }
};

/// Schedules the block of \p G onto \p Machine, one cycle at a time.
///
/// A node is ready once its predecessors have all issued and their
/// latencies have elapsed; until then it waits in a min-heap on that
/// cycle, and a cycle in which nothing is ready is skipped. Each cycle
/// issues while a slot is left, and an issue can ready a zero-latency
/// successor in the same cycle. The priority \p P answers three calls:
///   - ready(V): V is ready.
///   - pick(UnitsLeft): the best ready node of a kind K with
///     UnitsLeft[K] != 0, with K; or Node None. The loop issues it.
///   - issue(V): V issues, before its successors are released.
template <typename PriorityT>
BlockSchedule listSchedule(const DependenceGraph &G,
                           const MachineModel &Machine, PriorityT &P) {
  unsigned N = G.size();
  BlockSchedule Out;
  Out.CycleOf.assign(N, 0);
  // ReadyAt[v]: the earliest cycle v may issue given its issued
  // predecessors. Pending: (ReadyAt, node) of the nodes whose
  // predecessors have all issued but whose operands are not ready yet.
  std::vector<unsigned> PredsLeft(N), ReadyAt(N, 0);
  std::vector<std::pair<unsigned, unsigned>> Pending;
  Pending.reserve(N);
  unsigned NumReady = 0;
  auto MakeReady = [&](unsigned V) {
    ++NumReady;
    P.ready(V);
  };
  for (unsigned V = 0; V != N; ++V) {
    PredsLeft[V] = static_cast<unsigned>(G.predEdges(V).size());
    if (PredsLeft[V] == 0)
      MakeReady(V);
  }
  UnitCounts Units{};
  for (unsigned K = 0; K != NumUnitKinds; ++K)
    Units[K] = Machine.units(static_cast<UnitKind>(K));

  unsigned Remaining = N;
  unsigned Cycle = 0;
  while (Remaining != 0) {
    while (!Pending.empty() && Pending.front().first <= Cycle) {
      std::pop_heap(Pending.begin(), Pending.end(), std::greater<>());
      MakeReady(Pending.back().second);
      Pending.pop_back();
    }
    if (NumReady == 0) {
      // Nothing can issue until the next pending node's operands arrive.
      assert(!Pending.empty() && "unissued nodes but none pending");
      Cycle = Pending.front().first;
      continue;
    }
    unsigned SlotsLeft = Machine.issueWidth();
    UnitCounts UnitsLeft = Units;
    while (SlotsLeft != 0) {
      SchedPick Pick = P.pick(UnitsLeft);
      if (Pick.Node == SchedPick::None)
        break;
      unsigned V = Pick.Node;
      Out.CycleOf[V] = Cycle;
      --Remaining;
      --NumReady;
      --SlotsLeft;
      --UnitsLeft[Pick.Kind];
      P.issue(V);
      for (unsigned EI : G.succEdges(V)) {
        const DepEdge &E = G.edges()[EI];
        ReadyAt[E.To] = std::max(ReadyAt[E.To], Cycle + E.Latency);
        if (--PredsLeft[E.To] != 0)
          continue;
        if (ReadyAt[E.To] <= Cycle) {
          MakeReady(E.To);
        } else {
          Pending.push_back({ReadyAt[E.To], E.To});
          std::push_heap(Pending.begin(), Pending.end(), std::greater<>());
        }
      }
    }
    ++Cycle;
  }
  Out.Makespan = Cycle;
  return Out;
}

/// Schedules block \p BlockIdx of \p F, whose dependence graph is \p G,
/// onto \p Machine.
BlockSchedule scheduleBlockFor(const Function &F, unsigned BlockIdx,
                               const DependenceGraph &G,
                               const MachineModel &Machine);

/// Schedules every block of \p F (building each block's dependence graph
/// from the function's current operands).
FunctionSchedule scheduleFunction(const Function &F,
                                  const MachineModel &Machine);

/// Physically reorders \p Block's instructions of \p F into schedule
/// order (by cycle, original position within a cycle) and returns the
/// permutation NewIndex[OldIndex]. The schedule-first and Goodman-Hsu
/// prepasses materialize their orderings with it, and the EP pre-order
/// passes its adjusted EP numbers as cycles.
std::vector<unsigned> reorderBlockBySchedule(Function &F, unsigned Block,
                                             const BlockSchedule &S);

} // namespace pira

#endif // PIRA_SCHED_LISTSCHEDULER_H
