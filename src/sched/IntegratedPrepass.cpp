//===- sched/IntegratedPrepass.cpp - Goodman-Hsu IPS scheduler ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "sched/IntegratedPrepass.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Liveness.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "sched/EPTimes.h"
#include "sched/ListScheduler.h"
#include "sched/Schedule.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>

using namespace pira;

PIRA_STAT(NumIpsPressureDecisions,
          "Goodman-Hsu picks made in register-reducing (CSR) mode");
PIRA_STAT(NumIpsMoves, "Instructions repositioned by the IPS prepass");

namespace {

/// Dual-mode list scheduling of one block over ready heaps.
///
/// Each pick is the best ready node whose unit kind has capacity left in
/// the cycle. In pipeline (CSP) mode that is the greatest height, then
/// the lowest index; in pressure (CSR) mode the least pressure delta,
/// then the greatest height, then the lowest index. Each unit kind keeps
/// its ready nodes in one heap in CSP order and in one heap per delta
/// value in (height, index) order, so a kind's CSR candidate is the top
/// of its lowest non-empty delta heap. Issued and re-filed entries are
/// dropped lazily when they surface. Nodes whose predecessors have all
/// issued but whose operands are not ready wait in a min-heap on ReadyAt,
/// and a cycle in which nothing is ready is skipped. See DESIGN.md §5.
class IpsBlockScheduler {
public:
  IpsBlockScheduler(const Function &F, unsigned BlockIdx,
                    const MachineModel &Machine, const Liveness &Live,
                    unsigned RegLimit, IpsStats &Stats)
      : BB(F.block(BlockIdx)), Machine(Machine), G(F, BlockIdx, Machine),
        LiveOut(Live.liveOut(BlockIdx)), RegLimit(RegLimit), Stats(Stats) {
    unsigned N = G.size();
    Height = computeHeights(G);
    PredsLeft.assign(N, 0);
    for (unsigned V = 0; V != N; ++V)
      PredsLeft[V] = static_cast<unsigned>(G.predEdges(V).size());
    ReadyAt.assign(N, 0);
    State.assign(N, NotReady);
    Delta.assign(N, 0);

    // Unissued distinct readers per register, and the XOR of their
    // indices: when one reader is left, the XOR names it.
    unsigned NumRegs = F.numRegs();
    for (const Instruction &I : BB.instructions())
      for (Reg U : I.uses())
        NumRegs = std::max(NumRegs, U + 1);
    ReadersLeft.assign(NumRegs, 0);
    ReaderXor.assign(NumRegs, 0);
    for (unsigned V = 0; V != N; ++V) {
      unsigned Operands = 0;
      forEachOperand(V, [&](Reg R) {
        ++ReadersLeft[R];
        ReaderXor[R] ^= V;
        ++Operands;
      });
      MaxOperands = std::max(MaxOperands, Operands);
    }
    // Deltas run from -MaxOperands (every operand dies, no def) to +1.
    for (Kind &K : Kinds)
      K.ByDelta.resize(MaxOperands + 2);
    // Live on entry to the scheduling region: upward-exposed registers.
    LiveCount = Live.upwardExposed(BlockIdx).count();
  }

  BlockSchedule run() {
    unsigned N = G.size();
    BlockSchedule Out;
    Out.CycleOf.assign(N, 0);
    for (unsigned V = 0; V != N; ++V)
      if (PredsLeft[V] == 0)
        makeReady(V);
    unsigned Remaining = N;
    unsigned Cycle = 0;
    while (Remaining != 0) {
      while (!Pending.empty() && Pending.front().first <= Cycle) {
        std::pop_heap(Pending.begin(), Pending.end(), std::greater<>());
        makeReady(Pending.back().second);
        Pending.pop_back();
      }
      if (NumReady == 0) {
        // Nothing can issue until the next pending node's operands
        // arrive; the rescan would idle through these cycles.
        assert(!Pending.empty() && "unissued nodes but none pending");
        Cycle = Pending.front().first;
        continue;
      }
      unsigned SlotsLeft = Machine.issueWidth();
      std::array<unsigned, NumUnitKinds> UnitsLeft{};
      for (unsigned K = 0; K != NumUnitKinds; ++K)
        UnitsLeft[K] = Machine.units(static_cast<UnitKind>(K));
      while (SlotsLeft != 0) {
        unsigned Best = pickCandidate(UnitsLeft);
        if (Best == ~0u)
          break;
        issue(Best, Cycle, Out);
        --Remaining;
        --SlotsLeft;
        --UnitsLeft[kindOf(Best)];
      }
      ++Cycle;
    }
    Out.Makespan = Cycle;
    return Out;
  }

private:
  enum NodeState : uint8_t { NotReady, Ready, Issued };

  /// A unit kind's ready nodes: one heap in CSP order, and one heap per
  /// pressure delta (index Delta + MaxOperands) in the same order.
  struct Kind {
    std::vector<unsigned> Csp;
    std::vector<std::vector<unsigned>> ByDelta;
  };

  unsigned kindOf(unsigned V) const {
    return static_cast<unsigned>(BB.inst(V).unit());
  }

  bool escapes(Reg R) const { return R < LiveOut.size() && LiveOut.test(R); }

  /// Calls \p Fn once per distinct register \p V reads.
  template <typename FnT> void forEachOperand(unsigned V, FnT &&Fn) const {
    const UseList &Uses = BB.inst(V).uses();
    for (unsigned I = 0, E = static_cast<unsigned>(Uses.size()); I != E;
         ++I)
      if (std::find(Uses.begin(), Uses.begin() + I, Uses[I]) ==
          Uses.begin() + I)
        Fn(Uses[I]);
  }

  /// Net change in the live-value count if unissued \p V issues now: +1
  /// for every def, whether or not anyone reads it, and -1 per distinct
  /// operand register that does not escape the block and whose remaining
  /// in-block uses are all V's.
  int pressureDelta(unsigned V) const {
    int D = BB.inst(V).hasDef() ? 1 : 0;
    forEachOperand(V, [&](Reg R) {
      if (ReadersLeft[R] == 1 && !escapes(R))
        --D;
    });
    return D;
  }

  /// Greatest height first, then the lowest index.
  bool before(unsigned A, unsigned B) const {
    return Height[A] != Height[B] ? Height[A] > Height[B] : A < B;
  }

  void push(std::vector<unsigned> &Heap, unsigned V) {
    Heap.push_back(V);
    std::push_heap(Heap.begin(), Heap.end(),
                   [&](unsigned A, unsigned B) { return before(B, A); });
  }

  /// Pops stale entries off \p Heap: issued nodes, and, for the delta
  /// heap of \p D, nodes re-filed under another delta. \returns the top,
  /// or ~0u when the heap is empty.
  unsigned top(std::vector<unsigned> &Heap, int D, bool IsDeltaHeap) {
    auto HeapLess = [&](unsigned A, unsigned B) { return before(B, A); };
    while (!Heap.empty()) {
      unsigned V = Heap.front();
      if (State[V] != Issued && (!IsDeltaHeap || Delta[V] == D))
        return V;
      std::pop_heap(Heap.begin(), Heap.end(), HeapLess);
      Heap.pop_back();
    }
    return ~0u;
  }

  /// Files \p V in its kind's delta heap under its current delta.
  void fileDelta(unsigned V) {
    Delta[V] = pressureDelta(V);
    push(Kinds[kindOf(V)].ByDelta[static_cast<unsigned>(
             Delta[V] + static_cast<int>(MaxOperands))],
         V);
  }

  void makeReady(unsigned V) {
    State[V] = Ready;
    ++NumReady;
    push(Kinds[kindOf(V)].Csp, V);
    fileDelta(V);
  }

  unsigned pickCandidate(const std::array<unsigned, NumUnitKinds> &Units) {
    bool PressureMode = LiveCount >= RegLimit;
    unsigned Best = ~0u;
    int BestDelta = 0;
    for (unsigned K = 0; K != NumUnitKinds; ++K) {
      if (Units[K] == 0)
        continue;
      Kind &Ready = Kinds[K];
      if (!PressureMode) {
        // CSP: critical path height.
        unsigned V = top(Ready.Csp, 0, /*IsDeltaHeap=*/false);
        if (V != ~0u && (Best == ~0u || before(V, Best)))
          Best = V;
        continue;
      }
      // CSR: smallest pressure delta first; ties by height.
      for (unsigned I = 0, E = static_cast<unsigned>(Ready.ByDelta.size());
           I != E; ++I) {
        int D = static_cast<int>(I) - static_cast<int>(MaxOperands);
        unsigned V = top(Ready.ByDelta[I], D, /*IsDeltaHeap=*/true);
        if (V == ~0u)
          continue;
        if (Best == ~0u || D < BestDelta ||
            (D == BestDelta && before(V, Best))) {
          Best = V;
          BestDelta = D;
        }
        break;
      }
    }
    if (Best != ~0u) {
      if (PressureMode)
        ++Stats.CsrDecisions;
      else
        ++Stats.CspDecisions;
    }
    return Best;
  }

  void issue(unsigned V, unsigned Cycle, BlockSchedule &Out) {
    State[V] = Issued;
    --NumReady;
    Out.CycleOf[V] = Cycle;
    forEachOperand(V, [&](Reg R) {
      --ReadersLeft[R];
      ReaderXor[R] ^= V;
      if (ReadersLeft[R] == 0 && !escapes(R) && LiveCount > 0)
        --LiveCount;
    });
    if (BB.inst(V).hasDef())
      ++LiveCount;
    // A waiting node's delta only falls, and only when its operand R
    // starts to die: issuing V left it the one unissued reader of R.
    forEachOperand(V, [&](Reg R) {
      if (ReadersLeft[R] != 1 || escapes(R))
        return;
      unsigned U = ReaderXor[R];
      if (State[U] == Ready && pressureDelta(U) != Delta[U])
        fileDelta(U);
    });
    for (unsigned EI : G.succEdges(V)) {
      const DepEdge &E = G.edges()[EI];
      ReadyAt[E.To] = std::max(ReadyAt[E.To], Cycle + E.Latency);
      if (--PredsLeft[E.To] != 0)
        continue;
      if (ReadyAt[E.To] <= Cycle) {
        makeReady(E.To);
      } else {
        Pending.push_back({ReadyAt[E.To], E.To});
        std::push_heap(Pending.begin(), Pending.end(), std::greater<>());
      }
    }
  }

  const BasicBlock &BB;
  const MachineModel &Machine;
  DependenceGraph G;
  const BitVector &LiveOut;
  unsigned RegLimit;
  IpsStats &Stats;

  std::vector<unsigned> Height;
  std::vector<unsigned> PredsLeft;
  std::vector<unsigned> ReadyAt;
  std::vector<NodeState> State;
  std::vector<int> Delta;
  std::vector<unsigned> ReadersLeft;
  std::vector<unsigned> ReaderXor;
  unsigned MaxOperands = 0;
  std::array<Kind, NumUnitKinds> Kinds;
  /// (ReadyAt, node) of nodes waiting only for their operands.
  std::vector<std::pair<unsigned, unsigned>> Pending;
  unsigned NumReady = 0;
  unsigned LiveCount = 0;
};

} // namespace

IpsStats pira::integratedPrepassSchedule(Function &F,
                                         const MachineModel &Machine,
                                         unsigned RegLimit) {
  PIRA_TIME_SCOPE("sched/ips");
  assert(!F.isAllocated() && "IPS runs on symbolic code");
  assert(RegLimit >= 1 && "register limit must be positive");
  IpsStats Stats;
  Liveness Live(F);
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    if (F.block(B).size() < 2)
      continue;
    IpsBlockScheduler Scheduler(F, B, Machine, Live, RegLimit, Stats);
    BlockSchedule S = Scheduler.run();
    std::vector<unsigned> Perm = reorderBlockBySchedule(F, B, S);
    for (unsigned Pos = 0; Pos != Perm.size(); ++Pos)
      if (Perm[Pos] != Pos)
        ++Stats.Moved;
  }
  NumIpsPressureDecisions += Stats.CsrDecisions;
  NumIpsMoves += Stats.Moved;
  return Stats;
}
