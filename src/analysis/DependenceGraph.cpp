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

#include <algorithm>
#include <cassert>
#include <functional>
#include <tuple>

using namespace pira;

PIRA_STAT(NumScheduleGraphsBuilt, "Block schedule graphs (Gs) built");

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
  unsigned &Last = LastEdge[From];
  if (Last != NoNode && Edges[Last].To == To) {
    DepEdge &E = Edges[Last];
    if (E.Latency < Latency)
      E.Latency = Latency;
    return;
  }
  Last = static_cast<unsigned>(Edges.size());
  Edges.push_back({From, To, Kind, Latency});
}

void DependenceGraph::buildCsr() {
  unsigned NumEdges = static_cast<unsigned>(Edges.size());
  // Uninitialized but for the offsets, which count.
  Csr.reset(new unsigned[2 * (size_t(NumNodes) + 1) + NumEdges]);
  unsigned *SOff = Csr.get();
  unsigned *POff = SOff + NumNodes + 1;
  unsigned *SIdx = POff + NumNodes + 1;
  std::fill(SOff, SIdx, 0u);
  for (const DepEdge &E : Edges) {
    ++SOff[E.From + 1];
    ++POff[E.To + 1];
  }
  for (unsigned I = 0; I != NumNodes; ++I) {
    SOff[I + 1] += SOff[I];
    POff[I + 1] += POff[I];
  }
  // Stable fill in edge-insertion order. Each node's offset advances to
  // the next node's start; shifting the offsets up one restores them.
  for (unsigned EI = 0; EI != NumEdges; ++EI)
    SIdx[SOff[Edges[EI].From]++] = EI;
  std::copy_backward(SOff, SOff + NumNodes, SOff + NumNodes + 1);
  SOff[0] = 0;
  SuccOff = SOff;
  SuccIdx = SIdx;
  PredOff = POff;
  LastEdge = {};
}

Reg pira::memoryIndexReg(const Instruction &I) {
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
  unsigned Group; ///< The array, the index register (NoReg: direct) and
                  ///< the register's reaching def: one index value.
  unsigned Slot;  ///< The group and an in-bounds offset, or the group's
                  ///< one slot for all out-of-bounds offsets.
  bool InBounds;
};

/// The memory ops of one block, bucketed per array, per index value and
/// per in-bounds offset.
struct MemBuckets {
  std::vector<MemOpKeys> Ops; ///< In block order.
  std::vector<unsigned> OutOfBoundsSlot; ///< Per group; NoNode if none.
  unsigned NumArrays = 0;
  unsigned NumSlots = 0;
};

} // namespace

/// Buckets the \p NumMemOps memory ops of \p BB by sorting them on
/// (array, index register, the index register's reaching def, offset): a
/// redefinition of the index register starts a new group, since offsets
/// compare only under one index value. Each array's size is looked up
/// once. \p LastDef is scratch indexed by register, all NoNode on entry
/// and on return.
static MemBuckets bucketMemoryOps(const Function &F, const BasicBlock &BB,
                                  unsigned NumMemOps,
                                  std::vector<unsigned> &LastDef) {
  struct SortKey {
    Symbol Array;
    Reg Index;
    unsigned IndexDef; ///< NoNode: the value the block was entered with.
    int64_t Offset;
    unsigned Op;
  };
  MemBuckets Out;
  if (NumMemOps == 0)
    return Out;
  std::vector<SortKey> Keys;
  Keys.reserve(NumMemOps);
  Out.Ops.reserve(NumMemOps);
  for (unsigned I = 0, E = BB.size(); I != E; ++I) {
    const Instruction &Inst = BB.inst(I);
    if (Inst.isMemory()) {
      Reg Index = memoryIndexReg(Inst);
      Keys.push_back({Inst.arraySymbolId(), Index,
                      Index == NoReg ? NoNode : LastDef[Index], Inst.imm(),
                      static_cast<unsigned>(Out.Ops.size())});
      Out.Ops.push_back({I, 0, 0, 0, false});
    }
    if (Inst.hasDef())
      LastDef[Inst.def()] = I;
  }
  for (const Instruction &Inst : BB.instructions())
    if (Inst.hasDef())
      LastDef[Inst.def()] = NoNode;
  std::sort(Keys.begin(), Keys.end(), [](const SortKey &X, const SortKey &Y) {
    if (X.Array != Y.Array)
      return std::less<Symbol>()(X.Array, Y.Array);
    return std::tie(X.Index, X.IndexDef, X.Offset) <
           std::tie(Y.Index, Y.IndexDef, Y.Offset);
  });

  unsigned Size = 0;
  unsigned Slot = 0;
  const SortKey *Prev = nullptr;
  for (const SortKey &Key : Keys) {
    MemOpKeys &Op = Out.Ops[Key.Op];
    bool NewArray = !Prev || Prev->Array != Key.Array;
    bool NewGroup = NewArray || Prev->Index != Key.Index ||
                    Prev->IndexDef != Key.IndexDef;
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
  ++NumScheduleGraphsBuilt;
  const BasicBlock &BB = F.block(BlockIdx);
  NumNodes = BB.size();
  LastEdge.assign(NumNodes, NoNode);

  // LastDef[R] / readers since that def, for register dependences. These
  // track *positions*, so the same construction serves symbolic code (no
  // redefinition, hence no anti/output edges) and allocated code. Both
  // are flat tables indexed by register; reader lists keep read order.
  unsigned RegLimit = 0;
  size_t NumUses = 0;
  unsigned NumMemOps = 0;
  for (const Instruction &Inst : BB.instructions()) {
    if (Inst.hasDef())
      RegLimit = std::max(RegLimit, Inst.def() + 1);
    for (Reg U : Inst.uses())
      RegLimit = std::max(RegLimit, U + 1);
    NumUses += Inst.uses().size();
    NumMemOps += Inst.isMemory();
  }
  std::vector<unsigned> LastDef(RegLimit, NoNode);
  std::vector<ListPool::List> Readers(RegLimit);

  // Memory ops, bucketed. Each op enters its group's and its slot's lists
  // (a store twice each: All and Stores), and each group enters its
  // array's two lists at most once: at most six entries per op.
  MemBuckets Mem = bucketMemoryOps(F, BB, NumMemOps, LastDef);
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
  // Room for every flow and control edge, one allocation for most blocks.
  Edges.reserve(NumUses + NumNodes);

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
    // array that is every op through another index value, plus, through
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

DependenceGraph::DependenceGraph(
    unsigned NumNodes, std::vector<std::pair<unsigned, unsigned>> EdgePairs)
    : NumNodes(NumNodes) {
  // In the order the block constructor adds edges: by target, then
  // source. Built here rather than through addEdge, which then stays
  // inlined into the block constructor's loops.
  std::sort(EdgePairs.begin(), EdgePairs.end(),
            [](const auto &X, const auto &Y) {
              return std::tie(X.second, X.first) < std::tie(Y.second, Y.first);
            });
  EdgePairs.erase(std::unique(EdgePairs.begin(), EdgePairs.end()),
                  EdgePairs.end());
  Edges.reserve(EdgePairs.size());
  for (auto [From, To] : EdgePairs) {
    assert(From < To && To < NumNodes &&
           "bad dependence edge; node order must stay topological");
    Edges.push_back({From, To, DepKind::Flow, 1});
  }
  buildCsr();
}

BitMatrix DependenceGraph::reachability() const {
  BitMatrix Reach(NumNodes);
  for (unsigned U = NumNodes; U-- != 0;) {
    BitVector &Row = Reach.row(U);
    // Successors come in ascending order. A successor already in the row
    // was reached through an earlier one, whose row holds its row too.
    for (unsigned EI : succEdges(U)) {
      unsigned V = Edges[EI].To;
      if (Row.test(V))
        continue;
      Row.set(V);
      Row.unionWith(Reach.row(V));
    }
  }
  return Reach;
}

BitMatrix DependenceGraph::ancestors() const {
  BitMatrix Anc(NumNodes);
  for (unsigned V = 0; V != NumNodes; ++V) {
    BitVector &Row = Anc.row(V);
    for (unsigned EI : predEdges(V)) {
      unsigned U = Edges[EI].From;
      if (Row.test(U))
        continue;
      Row.set(U);
      Row.unionWith(Anc.row(U));
    }
  }
  return Anc;
}

bool DependenceGraph::hasEdge(unsigned From, unsigned To) const {
  for (unsigned EI : succEdges(From))
    if (Edges[EI].To == To)
      return true;
  return false;
}
