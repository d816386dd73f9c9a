//===- analysis/DependenceGraph.cpp - Per-block schedule graph ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"

#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "support/Telemetry.h"
#include "transforms/DagReduce.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <tuple>

using namespace pira;

PIRA_STAT(NumClosureComponents,
          "Weakly connected components split off before closure");
PIRA_STAT(NumClosureChainsCollapsed,
          "Single-entry/single-exit chains collapsed before closure");
PIRA_STAT(NumClosureEdgesStripped,
          "Redundant transitive edges stripped before closure");
PIRA_STAT(NumClosureSinksPeeled,
          "Universal terminator sinks peeled before closure");

const char *pira::depKindName(DepKind Kind) {
  switch (Kind) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Memory:
    return "memory";
  case DepKind::Control:
    return "control";
  }
  assert(false && "unknown dependence kind");
  return "?";
}

namespace {
constexpr unsigned NoNode = ~0u;
} // namespace

void DependenceGraph::addEdge(unsigned From, unsigned To, DepKind Kind,
                              unsigned Latency) {
  assert(From < NumNodes && To < NumNodes && From < To &&
         "bad dependence edge; node order must stay topological");
  // Every edge into To is added in one contiguous run: during To's own
  // iteration and, for the terminator, by the control-edge loop right
  // after it. So a duplicate (From, To) is always the last edge From
  // added. The first kind wins; the strongest (largest latency)
  // constraint is kept.
  assert((Edges.empty() || Edges.back().To <= To) &&
         "edges into one node must be added in one run");
  if (LastTo[From] == To) {
    DepEdge &E = Edges[LastEdge[From]];
    if (E.Latency < Latency)
      E.Latency = Latency;
    return;
  }
  LastTo[From] = To;
  LastEdge[From] = static_cast<unsigned>(Edges.size());
  Edges.push_back({From, To, Kind, Latency});
}

void DependenceGraph::buildCsr() {
  unsigned NumEdges = static_cast<unsigned>(Edges.size());
  unsigned *SOff = Storage.allocateZeroed<unsigned>(NumNodes + 1);
  unsigned *POff = Storage.allocateZeroed<unsigned>(NumNodes + 1);
  for (const DepEdge &E : Edges) {
    ++SOff[E.From + 1];
    ++POff[E.To + 1];
  }
  for (unsigned I = 0; I != NumNodes; ++I) {
    SOff[I + 1] += SOff[I];
    POff[I + 1] += POff[I];
  }
  unsigned *SIdx = Storage.allocate<unsigned>(NumEdges);
  unsigned *PIdx = Storage.allocate<unsigned>(NumEdges);
  {
    // Stable fill in edge-insertion order, matching the order the old
    // per-node vectors accumulated.
    std::vector<unsigned> SFill(SOff, SOff + NumNodes);
    std::vector<unsigned> PFill(POff, POff + NumNodes);
    for (unsigned EI = 0; EI != NumEdges; ++EI) {
      SIdx[SFill[Edges[EI].From]++] = EI;
      PIdx[PFill[Edges[EI].To]++] = EI;
    }
  }
  SuccOff = SOff;
  SuccIdx = SIdx;
  PredOff = POff;
  PredIdx = PIdx;
  LastTo = {};
  LastEdge = {};
}

/// Returns the index register of memory instruction \p I, or NoReg for a
/// direct access.
static Reg memoryIndexReg(const Instruction &I) {
  if (I.opcode() == Opcode::Load)
    return I.uses().empty() ? NoReg : I.uses()[0];
  return I.uses().size() > 1 ? I.uses()[1] : NoReg;
}

/// Returns true when \p Offset lies inside an array of \p Size elements.
static bool offsetInBounds(int64_t Offset, unsigned Size) {
  return Offset >= 0 && Offset < static_cast<int64_t>(Size);
}

bool pira::memoryProvablyDisjoint(const Function &F, const Instruction &A,
                                  const Instruction &B) {
  assert(A.isMemory() && B.isMemory() && "not memory instructions");
  if (A.arraySymbolId() != B.arraySymbolId())
    return true;
  unsigned Size = F.arraySize(A.arraySymbol());
  if (Size == 0)
    return false;
  if (memoryIndexReg(A) != memoryIndexReg(B))
    return false;
  return offsetInBounds(A.imm(), Size) && offsetInBounds(B.imm(), Size) &&
         A.imm() != B.imm();
}

namespace {

/// Append-only lists of instruction indices threaded through one shared
/// pool, so that a block's many short lists cost no allocation each.
class ListPool {
public:
  struct List {
    unsigned Head = NoNode;
    unsigned Tail = NoNode;
    bool empty() const { return Head == NoNode; }
  };

  explicit ListPool(size_t Capacity) { Links.reserve(Capacity); }

  void append(List &L, unsigned Value) {
    unsigned Idx = static_cast<unsigned>(Links.size());
    Links.push_back({Value, NoNode});
    (L.empty() ? L.Head : Links[L.Tail].Next) = Idx;
    L.Tail = Idx;
  }

  /// Calls \p Fn on every value of \p L in append order.
  template <typename FnT> void forEach(const List &L, FnT &&Fn) const {
    for (unsigned Idx = L.Head; Idx != NoNode; Idx = Links[Idx].Next)
      Fn(Links[Idx].Value);
  }

private:
  struct Link {
    unsigned Value;
    unsigned Next;
  };
  std::vector<Link> Links;
};

/// Earlier memory ops under one key, in block order: all of them, and the
/// stores alone (a load conflicts only with stores).
struct MemOpList {
  ListPool::List All;
  ListPool::List Stores;
};

/// Dense bucket ids of one memory op.
struct MemOpKeys {
  unsigned Inst;
  unsigned Array;
  unsigned Group; ///< The array and the index register (NoReg: direct).
  unsigned Slot;  ///< The group and an in-bounds offset, or the group's
                  ///< one slot for all out-of-bounds offsets.
  bool InBounds;
};

/// The memory ops of one block, bucketed per array, per index register
/// and per in-bounds offset.
struct MemBuckets {
  std::vector<MemOpKeys> Ops; ///< In block order.
  std::vector<unsigned> OutOfBoundsSlot; ///< Per group; NoNode if none.
  unsigned NumArrays = 0;
  unsigned NumSlots = 0;
};

} // namespace

/// Buckets the memory ops of \p BB by sorting them on (array, index
/// register, offset). Each array's size is looked up once.
static MemBuckets bucketMemoryOps(const Function &F, const BasicBlock &BB) {
  struct SortKey {
    Symbol Array;
    Reg Index;
    int64_t Offset;
    unsigned Op;
  };
  MemBuckets Out;
  std::vector<SortKey> Keys;
  for (unsigned I = 0, E = BB.size(); I != E; ++I) {
    const Instruction &Inst = BB.inst(I);
    if (!Inst.isMemory())
      continue;
    Keys.push_back({Inst.arraySymbolId(), memoryIndexReg(Inst), Inst.imm(),
                    static_cast<unsigned>(Out.Ops.size())});
    Out.Ops.push_back({I, 0, 0, 0, false});
  }
  std::sort(Keys.begin(), Keys.end(), [](const SortKey &X, const SortKey &Y) {
    if (X.Array != Y.Array)
      return std::less<Symbol>()(X.Array, Y.Array);
    return std::tie(X.Index, X.Offset) < std::tie(Y.Index, Y.Offset);
  });

  unsigned Size = 0;
  unsigned Slot = 0;
  const SortKey *Prev = nullptr;
  for (const SortKey &Key : Keys) {
    MemOpKeys &Op = Out.Ops[Key.Op];
    bool NewArray = !Prev || Prev->Array != Key.Array;
    bool NewGroup = NewArray || Prev->Index != Key.Index;
    if (NewArray) {
      ++Out.NumArrays;
      Size = F.arraySize(*Key.Array);
    }
    if (NewGroup)
      Out.OutOfBoundsSlot.push_back(NoNode);
    Op.Array = Out.NumArrays - 1;
    Op.Group = static_cast<unsigned>(Out.OutOfBoundsSlot.size()) - 1;
    Op.InBounds = offsetInBounds(Key.Offset, Size);
    if (!Op.InBounds) {
      unsigned &Oob = Out.OutOfBoundsSlot.back();
      if (Oob == NoNode)
        Oob = Out.NumSlots++;
      Op.Slot = Oob;
    } else {
      // Equal offsets are adjacent in the sort; a new offset starts a slot.
      if (NewGroup || Prev->Offset != Key.Offset)
        Slot = Out.NumSlots++;
      Op.Slot = Slot;
    }
    Prev = &Key;
  }
  return Out;
}

DependenceGraph::DependenceGraph(const Function &F, unsigned BlockIdx,
                                 const MachineModel &Machine) {
  const BasicBlock &BB = F.block(BlockIdx);
  NumNodes = BB.size();
  LastTo.assign(NumNodes, NoNode);
  LastEdge.assign(NumNodes, 0);

  // LastDef[R] / readers since that def, for register dependences. These
  // track *positions*, so the same construction serves symbolic code (no
  // redefinition, hence no anti/output edges) and allocated code. Both
  // are flat tables indexed by register; reader lists keep read order.
  unsigned RegLimit = 0;
  size_t NumUses = 0;
  for (const Instruction &Inst : BB.instructions()) {
    if (Inst.hasDef())
      RegLimit = std::max(RegLimit, Inst.def() + 1);
    for (Reg U : Inst.uses())
      RegLimit = std::max(RegLimit, U + 1);
    NumUses += Inst.uses().size();
  }
  std::vector<unsigned> LastDef(RegLimit, NoNode);
  std::vector<ListPool::List> Readers(RegLimit);

  // Memory ops, bucketed. Each op enters its group's and its slot's lists
  // (a store twice each: All and Stores), and each group enters its
  // array's two lists at most once: at most six entries per op.
  MemBuckets Mem = bucketMemoryOps(F, BB);
  std::vector<MemOpList> Groups(Mem.OutOfBoundsSlot.size());
  std::vector<MemOpList> Slots(Mem.NumSlots);
  struct ArrayGroups {
    ListPool::List WithOps;
    ListPool::List WithStores;
  };
  std::vector<ArrayGroups> Arrays(Mem.NumArrays);
  ListPool Pool(NumUses + 6 * Mem.Ops.size());
  std::vector<unsigned> Conflicts;
  unsigned NextMemOp = 0;

  for (unsigned I = 0; I != NumNodes; ++I) {
    const Instruction &Inst = BB.inst(I);

    // Flow dependences: latest prior def of each used register.
    for (Reg U : Inst.uses()) {
      if (LastDef[U] != NoNode) {
        const Instruction &Producer = BB.inst(LastDef[U]);
        addEdge(LastDef[U], I, DepKind::Flow,
                Machine.latency(Producer.opcode()));
      }
      Pool.append(Readers[U], I);
    }

    if (Inst.hasDef()) {
      Reg D = Inst.def();
      // Output dependence on the previous def of D.
      if (LastDef[D] != NoNode)
        addEdge(LastDef[D], I, DepKind::Output, 1);
      // Anti dependences from readers of the previous value of D. Zero
      // latency: a superscalar reads operands before writing results, so
      // reader and overwriter may share a cycle.
      Pool.forEach(Readers[D], [&](unsigned Reader) {
        if (Reader != I)
          addEdge(Reader, I, DepKind::Anti, 0);
      });
      LastDef[D] = I;
      Readers[D] = {};
    }

    // Memory ordering: every prior memory op that may touch the same slot
    // (memoryProvablyDisjoint fails), unless both are loads. Within one
    // array that is every op through another index register, plus, through
    // the same one, the ops at the same in-bounds offset and the
    // out-of-bounds ops, or all of them when this op is itself out of
    // bounds (always so for an undeclared or empty array). Edges go in in
    // ascending source order, as a scan over all earlier ops would add them.
    if (Inst.isMemory()) {
      const MemOpKeys &Op = Mem.Ops[NextMemOp++];
      assert(Op.Inst == I && "memory ops out of step");
      bool IsLoad = Inst.opcode() == Opcode::Load;
      ArrayGroups &Arr = Arrays[Op.Array];
      MemOpList &Group = Groups[Op.Group];

      Conflicts.clear();
      auto Take = [&](const MemOpList &L) {
        Pool.forEach(IsLoad ? L.Stores : L.All,
                     [&](unsigned Prev) { Conflicts.push_back(Prev); });
      };
      Pool.forEach(IsLoad ? Arr.WithStores : Arr.WithOps, [&](unsigned G) {
        if (G != Op.Group)
          Take(Groups[G]);
      });
      if (!Op.InBounds) {
        Take(Group);
      } else {
        Take(Slots[Op.Slot]);
        if (Mem.OutOfBoundsSlot[Op.Group] != NoNode)
          Take(Slots[Mem.OutOfBoundsSlot[Op.Group]]);
      }
      std::sort(Conflicts.begin(), Conflicts.end());
      for (unsigned Prev : Conflicts)
        addEdge(Prev, I, DepKind::Memory,
                Machine.latency(BB.inst(Prev).opcode()));

      if (Group.All.empty())
        Pool.append(Arr.WithOps, Op.Group);
      if (!IsLoad && Group.Stores.empty())
        Pool.append(Arr.WithStores, Op.Group);
      for (MemOpList *L : {&Group, &Slots[Op.Slot]}) {
        Pool.append(L->All, I);
        if (!IsLoad)
          Pool.append(L->Stores, I);
      }
    }
  }

  // The terminator stays last: every instruction precedes it. Zero latency
  // lets work share the branch's final cycle, as on real machines.
  if (NumNodes != 0 && BB.inst(NumNodes - 1).isTerminator())
    for (unsigned I = 0; I + 1 < NumNodes; ++I)
      addEdge(I, NumNodes - 1, DepKind::Control, 0);

  buildCsr();
}

BitMatrix DependenceGraph::reachability(ThreadPool *Pool) const {
  std::vector<std::pair<unsigned, unsigned>> EdgePairs;
  EdgePairs.reserve(Edges.size());
  for (const DepEdge &E : Edges)
    EdgePairs.push_back({E.From, E.To});
  dagreduce::ReduceStats RS;
  BitMatrix M = dagreduce::reducedClosure(NumNodes, EdgePairs, Pool, &RS);
  NumClosureComponents += RS.Components;
  NumClosureChainsCollapsed += RS.Chains;
  NumClosureEdgesStripped += RS.StrippedEdges;
  NumClosureSinksPeeled += RS.PeeledSink ? 1 : 0;
  return M;
}

bool DependenceGraph::hasEdge(unsigned From, unsigned To) const {
  for (unsigned EI : succEdges(From))
    if (Edges[EI].To == To)
      return true;
  return false;
}

bool DependenceGraph::hasPath(unsigned From, unsigned To) const {
  assert(From < NumNodes && To < NumNodes && "node out of range");
  // Small scope; a DFS avoids building the full closure.
  std::vector<unsigned> Stack = {From};
  BitVector Seen(NumNodes);
  Seen.set(From);
  while (!Stack.empty()) {
    unsigned Node = Stack.back();
    Stack.pop_back();
    for (unsigned EI : succEdges(Node)) {
      unsigned Next = Edges[EI].To;
      if (Next == To)
        return true;
      if (!Seen.test(Next)) {
        Seen.set(Next);
        Stack.push_back(Next);
      }
    }
  }
  return false;
}
