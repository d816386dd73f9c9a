//===- core/RegionFalseDeps.cpp - Cross-block Ef pairs --------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "core/RegionFalseDeps.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"

#include <set>
#include <string>

using namespace pira;

RegionFalseDeps::RegionFalseDeps(const Function &F, const Webs &W,
                                 const std::vector<unsigned> &Blocks)
    : F(F) {
  for (unsigned B : Blocks)
    for (unsigned I = 0, E = F.block(B).size(); I != E; ++I)
      Nodes.emplace_back(B, I);
  unsigned N = static_cast<unsigned>(Nodes.size());
  Deps = BitMatrix(N);

  // Which arrays each intervening block may write (for the cross-block
  // memory barrier rule).
  BitMatrix BlockReach(F.numBlocks());
  for (unsigned B = 0, E = F.numBlocks(); B != E; ++B)
    for (unsigned S : F.block(B).successors())
      BlockReach.set(B, S);
  BlockReach.transitiveClosure();

  std::set<unsigned> InRegion(Blocks.begin(), Blocks.end());
  auto Intervening = [&](unsigned From, unsigned To, auto &&Pred) {
    for (unsigned P = 0, E = F.numBlocks(); P != E; ++P) {
      if (InRegion.count(P) || !BlockReach.test(From, P) ||
          !BlockReach.test(P, To))
        continue;
      for (const Instruction &I : F.block(P).instructions())
        if (Pred(I))
          return true;
    }
    return false;
  };

  // Two accesses through one index register see one value only when no
  // def of it lies between them, memoryProvablyDisjoint's precondition.
  // In region order that is a def at or after the earlier access, which
  // reads its index before it writes.
  IndexDefBefore.assign(N, NoDef);
  std::vector<unsigned> LastDef(F.numRegs(), NoDef);
  for (unsigned A = 0; A != N; ++A) {
    const Instruction &I = instAt(A);
    if (I.isMemory() && memoryIndexReg(I) != NoReg)
      IndexDefBefore[A] = LastDef[memoryIndexReg(I)];
    if (I.hasDef())
      LastDef[I.def()] = A;
  }

  for (unsigned A = 0; A != N; ++A) {
    const Instruction &IA = instAt(A);
    for (unsigned B = A + 1; B != N; ++B) {
      const Instruction &IB = instAt(B);
      bool SameBlock = Nodes[A].first == Nodes[B].first;
      if (orders(W, A, IA, B, IB, SameBlock, Intervening))
        Deps.set(A, B);
    }
  }
  Deps.transitiveClosure();
}

bool RegionFalseDeps::canIssueTogether(unsigned A, unsigned B,
                                       const MachineModel &Machine) const {
  if (Deps.test(A, B) || Deps.test(B, A))
    return false;
  if (Machine.issueWidth() == 1)
    return false;
  UnitKind KA = instAt(A).unit();
  if (KA == instAt(B).unit() && Machine.isSingleUnit(KA))
    return false;
  return true;
}

const Instruction &RegionFalseDeps::instAt(unsigned Node) const {
  return F.block(Nodes[Node].first).inst(Nodes[Node].second);
}

template <typename InterveningFn>
bool RegionFalseDeps::orders(const Webs &W, unsigned A, const Instruction &IA,
                             unsigned B, const Instruction &IB,
                             bool SameBlock,
                             InterveningFn &&Intervening) const {
  auto [BlockA, InstA] = Nodes[A];
  auto [BlockB, InstB] = Nodes[B];

  // Flow: A defines the web one of B's operands reads.
  if (IA.hasDef()) {
    unsigned DefWeb = W.webOfDef(BlockA, InstA);
    for (unsigned Op = 0, OE = static_cast<unsigned>(IB.uses().size());
         Op != OE; ++Op)
      if (W.webOfUse(BlockB, InstB, Op) == DefWeb)
        return true;
    // Output on a compound web (defs on both sides; Claim 2 territory).
    if (IB.hasDef() && W.webOfDef(BlockB, InstB) == DefWeb)
      return true;
  }
  // Anti: B redefines a web A reads (same compound web).
  if (IB.hasDef()) {
    unsigned DefWeb = W.webOfDef(BlockB, InstB);
    for (unsigned Op = 0, OE = static_cast<unsigned>(IA.uses().size());
         Op != OE; ++Op)
      if (W.webOfUse(BlockA, InstA, Op) == DefWeb)
        return true;
  }

  auto StoreTo = [](const std::string &Array) {
    return [&Array](const Instruction &I) {
      return I.opcode() == Opcode::Store && I.arraySymbol() == Array;
    };
  };
  // Memory ordering (loads commute; everything else is conservative,
  // plus a barrier when a block between the two writes the array). Two
  // accesses of one array through an index register redefined between
  // them may alias whatever their offsets.
  if (IA.isMemory() && IB.isMemory() &&
      !(IA.opcode() == Opcode::Load && IB.opcode() == Opcode::Load)) {
    if (!memoryProvablyDisjoint(F, IA, IB))
      return true;
    if (!SameBlock && Intervening(BlockA, BlockB, StoreTo(IA.arraySymbol())))
      return true;
    Reg Index = memoryIndexReg(IA);
    if (IA.arraySymbol() == IB.arraySymbol() && Index != NoReg &&
        ((IndexDefBefore[B] != NoDef && IndexDefBefore[B] >= A) ||
         (!SameBlock &&
          Intervening(BlockA, BlockB, [Index](const Instruction &I) {
            return I.def() == Index;
          }))))
      return true;
  }
  // A store is also ordered against intervening writes of its array even
  // when region endpoints are provably disjoint loads/stores — handled
  // above; loads pairs need the barrier too when crossing blocks.
  if (IA.isMemory() && IB.isMemory() && !SameBlock &&
      IA.arraySymbol() == IB.arraySymbol() &&
      Intervening(BlockA, BlockB, StoreTo(IA.arraySymbol())))
    return true;

  // Control: anything precedes its own block's terminator; terminators
  // keep their block order. Cross-block non-terminator pairs float (the
  // paper "logically ignores" control edges inside a region).
  if (SameBlock && IB.isTerminator())
    return true;
  if (!SameBlock && IA.isTerminator() && IB.isTerminator())
    return true;
  return false;
}
