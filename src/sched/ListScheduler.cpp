//===- sched/ListScheduler.cpp - Resource-constrained scheduling ----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "sched/ListScheduler.h"

#include "ir/Function.h"
#include "sched/EPTimes.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>

using namespace pira;

PIRA_STAT(NumBlocksListScheduled, "Basic blocks list-scheduled");
PIRA_STAT(NumListScheduleCycles,
          "Static cycles across all list-scheduled blocks");

namespace {

/// The list scheduler's priority: HeightOrder. Ready heap k holds the
/// ready nodes of unit kind k, best on top. A node is ready once, so the
/// heaps share one buffer of N, heap k in [Start[k], Start[k] + Size[k]).
class HeightPriority {
public:
  HeightPriority(const BasicBlock &BB, const DependenceGraph &G)
      : Order{computeHeights(G)}, KindOf(G.size()), Heaps(G.size()) {
    for (unsigned V = 0, N = G.size(); V != N; ++V) {
      KindOf[V] = static_cast<unsigned char>(BB.inst(V).unit());
      ++Start[KindOf[V] + 1];
    }
    for (unsigned K = 0; K != NumUnitKinds; ++K)
      Start[K + 1] += Start[K];
  }

  void ready(unsigned V) {
    unsigned K = KindOf[V];
    heap(K)[Size[K]++] = V;
    std::push_heap(heap(K), heap(K) + Size[K], Order.heapLess());
  }

  SchedPick pick(const UnitCounts &UnitsLeft) {
    SchedPick Best;
    for (unsigned K = 0; K != NumUnitKinds; ++K)
      if (UnitsLeft[K] != 0 && Size[K] != 0 &&
          (Best.Node == SchedPick::None || Order.before(*heap(K), Best.Node)))
        Best = {*heap(K), K};
    if (Best.Node != SchedPick::None)
      std::pop_heap(heap(Best.Kind), heap(Best.Kind) + Size[Best.Kind]--,
                    Order.heapLess());
    return Best;
  }

  void issue(unsigned) {}

private:
  std::vector<unsigned>::iterator heap(unsigned K) {
    return Heaps.begin() + Start[K];
  }

  HeightOrder Order;
  std::vector<unsigned char> KindOf;
  std::vector<unsigned> Heaps;
  std::array<unsigned, NumUnitKinds + 1> Start{};
  std::array<unsigned, NumUnitKinds> Size{};
};

} // namespace

BlockSchedule pira::scheduleBlockFor(const Function &F, unsigned BlockIdx,
                                     const DependenceGraph &G,
                                     const MachineModel &Machine) {
  const BasicBlock &BB = F.block(BlockIdx);
  assert(G.size() == BB.size() && "dependence graph does not match block");
  if (G.size() == 0)
    return {};
  HeightPriority P(BB, G);
  BlockSchedule Out = listSchedule(G, Machine, P);
  ++NumBlocksListScheduled;
  NumListScheduleCycles += Out.Makespan;
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

  std::vector<unsigned> NewIndex(N, 0);
  bool Identity = true;
  for (unsigned Pos = 0; Pos != N; ++Pos) {
    NewIndex[Order[Pos]] = Pos;
    Identity &= Order[Pos] == Pos;
  }
  if (Identity)
    return NewIndex;
  [[maybe_unused]] bool HadTerminator = BB.hasTerminator();
  std::vector<Instruction> NewInsts;
  NewInsts.reserve(N);
  for (unsigned Pos = 0; Pos != N; ++Pos)
    NewInsts.push_back(std::move(BB.inst(Order[Pos])));
  BB.instructions() = std::move(NewInsts);
  assert((!HadTerminator || BB.hasTerminator()) &&
         "reorder must keep the terminator last");
  return NewIndex;
}
