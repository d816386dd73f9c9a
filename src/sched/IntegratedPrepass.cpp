//===- sched/IntegratedPrepass.cpp - Goodman-Hsu IPS scheduler ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "sched/IntegratedPrepass.h"

#include "analysis/Liveness.h"
#include "ir/Function.h"
#include "sched/EPTimes.h"
#include "sched/ListScheduler.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>

using namespace pira;

PIRA_STAT(NumIpsPressureDecisions,
          "Goodman-Hsu picks made in register-reducing (CSR) mode");
PIRA_STAT(NumIpsMoves, "Instructions repositioned by the IPS prepass");

namespace {

/// Goodman-Hsu's dual-mode priority for listSchedule (ListScheduler.h).
///
/// Each pick is the best ready node whose unit kind has capacity left in
/// the cycle. In pipeline (CSP) mode that is the list scheduler's
/// HeightOrder; in pressure (CSR) mode the least pressure delta, then
/// HeightOrder. Each unit kind keeps its ready nodes in one heap in CSP
/// order and in one heap per delta value in HeightOrder, so a kind's CSR
/// candidate is the top of its lowest non-empty delta heap. Issued and
/// re-filed entries are dropped lazily when they surface. See DESIGN.md
/// §5.
class IpsPriority {
public:
  IpsPriority(const Function &F, unsigned BlockIdx, const DependenceGraph &G,
              const Liveness &Live, unsigned RegLimit, IpsStats &Stats)
      : BB(F.block(BlockIdx)), LiveOut(Live.liveOut(BlockIdx)),
        RegLimit(RegLimit), Stats(Stats), Order{computeHeights(G)},
        KindOf(G.size()), State(G.size(), NotReady), Delta(G.size(), 0),
        // Live on entry to the scheduling region: upward-exposed registers.
        LiveCount(Live.upwardExposed(BlockIdx).count()) {
    unsigned N = G.size();
    // Unissued distinct readers per register, and the XOR of their
    // indices: when one reader is left, the XOR names it.
    unsigned NumRegs = F.numRegs();
    for (const Instruction &I : BB.instructions())
      for (Reg U : I.uses())
        NumRegs = std::max(NumRegs, U + 1);
    ReadersLeft.assign(NumRegs, 0);
    ReaderXor.assign(NumRegs, 0);
    for (unsigned V = 0; V != N; ++V) {
      KindOf[V] = static_cast<unsigned char>(BB.inst(V).unit());
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
  }

  void ready(unsigned V) {
    State[V] = Ready;
    push(Kinds[KindOf[V]].Csp, V);
    fileDelta(V);
  }

  SchedPick pick(const UnitCounts &UnitsLeft) {
    bool PressureMode = LiveCount >= RegLimit;
    SchedPick Best;
    int BestDelta = 0;
    for (unsigned K = 0; K != NumUnitKinds; ++K) {
      if (UnitsLeft[K] == 0)
        continue;
      Kind &Ready = Kinds[K];
      if (!PressureMode) {
        // CSP: critical path height.
        unsigned V = top(Ready.Csp, 0, /*IsDeltaHeap=*/false);
        if (V != ~0u &&
            (Best.Node == SchedPick::None || Order.before(V, Best.Node)))
          Best = {V, K};
        continue;
      }
      // CSR: smallest pressure delta first; ties by height.
      for (unsigned I = 0, E = static_cast<unsigned>(Ready.ByDelta.size());
           I != E; ++I) {
        int D = static_cast<int>(I) - static_cast<int>(MaxOperands);
        unsigned V = top(Ready.ByDelta[I], D, /*IsDeltaHeap=*/true);
        if (V == ~0u)
          continue;
        if (Best.Node == SchedPick::None || D < BestDelta ||
            (D == BestDelta && Order.before(V, Best.Node))) {
          Best = {V, K};
          BestDelta = D;
        }
        break;
      }
    }
    if (Best.Node != SchedPick::None) {
      if (PressureMode)
        ++Stats.CsrDecisions;
      else
        ++Stats.CspDecisions;
    }
    return Best;
  }

  void issue(unsigned V) {
    State[V] = Issued;
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
  }

private:
  enum NodeState : uint8_t { NotReady, Ready, Issued };

  /// A unit kind's ready nodes: one heap in CSP order, and one heap per
  /// pressure delta (index Delta + MaxOperands) in the same order.
  struct Kind {
    std::vector<unsigned> Csp;
    std::vector<std::vector<unsigned>> ByDelta;
  };

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

  void push(std::vector<unsigned> &Heap, unsigned V) {
    Heap.push_back(V);
    std::push_heap(Heap.begin(), Heap.end(), Order.heapLess());
  }

  /// Pops stale entries off \p Heap: issued nodes, and, for the delta
  /// heap of \p D, nodes re-filed under another delta. \returns the top,
  /// or ~0u when the heap is empty.
  unsigned top(std::vector<unsigned> &Heap, int D, bool IsDeltaHeap) {
    while (!Heap.empty()) {
      unsigned V = Heap.front();
      if (State[V] != Issued && (!IsDeltaHeap || Delta[V] == D))
        return V;
      std::pop_heap(Heap.begin(), Heap.end(), Order.heapLess());
      Heap.pop_back();
    }
    return ~0u;
  }

  /// Files \p V in its kind's delta heap under its current delta.
  void fileDelta(unsigned V) {
    Delta[V] = pressureDelta(V);
    push(Kinds[KindOf[V]].ByDelta[static_cast<unsigned>(
             Delta[V] + static_cast<int>(MaxOperands))],
         V);
  }

  const BasicBlock &BB;
  const BitVector &LiveOut;
  unsigned RegLimit;
  IpsStats &Stats;

  HeightOrder Order;
  std::vector<unsigned char> KindOf;
  std::vector<NodeState> State;
  std::vector<int> Delta;
  std::vector<unsigned> ReadersLeft;
  std::vector<unsigned> ReaderXor;
  unsigned MaxOperands = 0;
  std::array<Kind, NumUnitKinds> Kinds;
  unsigned LiveCount;
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
    DependenceGraph G(F, B, Machine);
    IpsPriority P(F, B, G, Live, RegLimit, Stats);
    std::vector<unsigned> Perm =
        reorderBlockBySchedule(F, B, listSchedule(G, Machine, P));
    for (unsigned Pos = 0; Pos != Perm.size(); ++Pos)
      if (Perm[Pos] != Pos)
        ++Stats.Moved;
  }
  NumIpsPressureDecisions += Stats.CsrDecisions;
  NumIpsMoves += Stats.Moved;
  return Stats;
}
