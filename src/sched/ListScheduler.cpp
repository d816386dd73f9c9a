//===- sched/ListScheduler.cpp - Resource-constrained scheduling ----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "sched/ListScheduler.h"

#include "analysis/DependenceGraph.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "sched/EPTimes.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <numeric>

using namespace pira;

PIRA_STAT(NumBlocksListScheduled, "Basic blocks list-scheduled");
PIRA_STAT(NumListScheduleCycles,
          "Static cycles across all list-scheduled blocks");

BlockSchedule pira::scheduleBlockFor(const Function &F, unsigned BlockIdx,
                                     const DependenceGraph &G,
                                     const MachineModel &Machine) {
  const BasicBlock &BB = F.block(BlockIdx);
  unsigned N = G.size();
  assert(N == BB.size() && "dependence graph does not match block");

  BlockSchedule Out;
  Out.CycleOf.assign(N, 0);
  if (N == 0)
    return Out;

  std::vector<unsigned> Height = computeHeights(G);
  std::vector<unsigned> PredsLeft(N, 0);
  for (unsigned V = 0; V != N; ++V)
    PredsLeft[V] = static_cast<unsigned>(G.predEdges(V).size());
  auto KindOf = [&](unsigned V) {
    return static_cast<unsigned>(BB.inst(V).unit());
  };

  // The priority: greatest height first, ties to the lowest original
  // index (program order).
  auto Before = [&](unsigned A, unsigned B) {
    return Height[A] != Height[B] ? Height[A] > Height[B] : A < B;
  };
  auto HeapLess = [&](unsigned A, unsigned B) { return Before(B, A); };

  // Ready[k]: nodes of unit kind k whose predecessors have all issued and
  // whose operands are ready by this cycle, as a heap with the best node
  // on top. Pending: nodes whose predecessors have all issued but whose
  // operands are not ready yet, as a min-heap on ReadyAt.
  std::array<std::vector<unsigned>, NumUnitKinds> Ready;
  using PendingNode = std::pair<unsigned, unsigned>; // (ReadyAt, node)
  std::vector<PendingNode> Pending;
  auto MakeReady = [&](unsigned V) {
    std::vector<unsigned> &Heap = Ready[KindOf(V)];
    Heap.push_back(V);
    std::push_heap(Heap.begin(), Heap.end(), HeapLess);
  };
  for (unsigned V = 0; V != N; ++V)
    if (PredsLeft[V] == 0)
      MakeReady(V);

  // ReadyAt[v]: earliest cycle v may issue given already-issued preds.
  std::vector<unsigned> ReadyAt(N, 0);
  unsigned Remaining = N;
  unsigned Cycle = 0;

  while (Remaining != 0) {
    while (!Pending.empty() && Pending.front().first <= Cycle) {
      std::pop_heap(Pending.begin(), Pending.end(), std::greater<>());
      MakeReady(Pending.back().second);
      Pending.pop_back();
    }
    bool AnyReady = std::any_of(Ready.begin(), Ready.end(),
                                [](const auto &H) { return !H.empty(); });
    if (!AnyReady) {
      // Nothing can issue until the next pending node's operands arrive.
      assert(!Pending.empty() && "unissued nodes but none pending");
      Cycle = Pending.front().first;
      continue;
    }

    unsigned SlotsLeft = Machine.issueWidth();
    std::array<unsigned, NumUnitKinds> UnitsLeft{};
    for (unsigned K = 0; K != NumUnitKinds; ++K)
      UnitsLeft[K] = Machine.units(static_cast<UnitKind>(K));

    // Issue greedily within the cycle; each issue can unlock zero-latency
    // successors in the same cycle. Each pick is the best ready node of a
    // unit kind with capacity left in this cycle.
    while (SlotsLeft != 0) {
      unsigned Best = ~0u;
      for (unsigned K = 0; K != NumUnitKinds; ++K)
        if (UnitsLeft[K] != 0 && !Ready[K].empty() &&
            (Best == ~0u || Before(Ready[K].front(), Best)))
          Best = Ready[K].front();
      if (Best == ~0u)
        break;

      std::vector<unsigned> &Heap = Ready[KindOf(Best)];
      std::pop_heap(Heap.begin(), Heap.end(), HeapLess);
      Heap.pop_back();
      Out.CycleOf[Best] = Cycle;
      --Remaining;
      --SlotsLeft;
      --UnitsLeft[KindOf(Best)];
      for (unsigned EI : G.succEdges(Best)) {
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
  ++NumBlocksListScheduled;
  NumListScheduleCycles += Cycle;
  return Out;
}

FunctionSchedule pira::scheduleFunction(const Function &F,
                                        const MachineModel &Machine) {
  PIRA_TIME_SCOPE("sched/list");
  FunctionSchedule Out;
  Out.Blocks.reserve(F.numBlocks());
  for (unsigned B = 0, E = F.numBlocks(); B != E; ++B) {
    DependenceGraph G(F, B, Machine);
    Out.Blocks.push_back(scheduleBlockFor(F, B, G, Machine));
  }
  return Out;
}

std::vector<unsigned> pira::reorderBlockBySchedule(Function &F,
                                                   unsigned Block,
                                                   const BlockSchedule &S) {
  BasicBlock &BB = F.block(Block);
  unsigned N = BB.size();
  assert(S.CycleOf.size() == N && "schedule does not match block");

  std::vector<unsigned> Order(N);
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B2) {
    return S.CycleOf[A] < S.CycleOf[B2];
  });

  [[maybe_unused]] bool HadTerminator = BB.hasTerminator();
  std::vector<Instruction> NewInsts;
  NewInsts.reserve(N);
  std::vector<unsigned> NewIndex(N, 0);
  for (unsigned Pos = 0; Pos != N; ++Pos) {
    NewIndex[Order[Pos]] = Pos;
    NewInsts.push_back(BB.inst(Order[Pos]));
  }
  BB.instructions() = std::move(NewInsts);
  assert((!HadTerminator || BB.hasTerminator()) &&
         "reorder must keep the terminator last");
  return NewIndex;
}
