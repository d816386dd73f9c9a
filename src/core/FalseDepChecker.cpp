//===- core/FalseDepChecker.cpp - Post-allocation validation --------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Lemma 1 asks one question per allocation edge u -> v (u < v): is
// {u, v} in Ef? Every Gs edge points from a lower to a higher index, so
// {u, v} is in the symmetrized closure iff the symbolic Gs has a path
// u -> v, and every such path stays inside [u, v]. The machine part of Et
// is "width 1, or both in one single-unit class". So each target v needs
// only the ancestors of v at or above its earliest queried source, found
// by one backward walk that serves its output and anti edges alike, and
// no closure, Ef or N^2 matrix is built. The earliest source is the
// previous def of v's register (output), or its first reader when the
// block has no earlier def (anti), so per register the walked windows
// tile the block: O(R * (N + E)) per block for R registers.
//
// The check reads only the two functions and the machine. It shares no
// code with the PIG's false-dependence graph, so it cannot agree with the
// allocator by construction.
//
//===----------------------------------------------------------------------===//

#include "core/FalseDepChecker.h"

#include "ir/Function.h"
#include "machine/MachineModel.h"

#include <algorithm>
#include <cassert>

using namespace pira;

FalseDepChecker::FalseDepChecker(const Function &Symbolic,
                                 const Function &Allocated,
                                 const MachineModel &Machine)
    : Symbolic(Symbolic), Machine(Machine) {
  assert(!Symbolic.isAllocated() && Allocated.isAllocated() &&
         "arguments swapped");
  assert(Symbolic.numBlocks() == Allocated.numBlocks() &&
         "functions do not correspond");
  (void)Allocated;
}

bool FalseDepChecker::needsGraphs() const {
  return Machine.issueWidth() != 1;
}

void FalseDepChecker::checkBlock(unsigned Block,
                                 const DependenceGraph &After) {
  if (!needsGraphs())
    return;
  const BasicBlock &BB = Symbolic.block(Block);
  assert(After.size() == BB.size() &&
         "allocation must preserve instruction positions");
  constexpr unsigned NoNode = ~0u;
  auto Queried = [](DepKind Kind) {
    return Kind == DepKind::Output || Kind == DepKind::Anti;
  };

  DependenceGraph Before(Symbolic, Block, Machine);
  const std::vector<DepEdge> &BeforeEdges = Before.edges();
  const std::vector<DepEdge> &AfterEdges = After.edges();
  // Mark[P] == V + 1 once P is known to be an ancestor of V.
  Mark.assign(BB.size(), 0);
  // Every edge into V is added in one run, so visiting targets in order
  // and each target's edges in insertion order is edges() order.
  for (unsigned V = 0, N = BB.size(); V != N; ++V) {
    unsigned Lo = NoNode;
    for (unsigned EI : After.predEdges(V))
      if (Queried(AfterEdges[EI].Kind))
        Lo = std::min(Lo, AfterEdges[EI].From);
    if (Lo == NoNode)
      continue;

    unsigned Stamp = V + 1;
    Stack.assign(1, V);
    while (!Stack.empty()) {
      unsigned Node = Stack.back();
      Stack.pop_back();
      for (unsigned EI : Before.predEdges(Node)) {
        unsigned P = BeforeEdges[EI].From;
        if (P >= Lo && Mark[P] != Stamp) {
          Mark[P] = Stamp;
          Stack.push_back(P);
        }
      }
    }

    UnitKind Unit = BB.inst(V).unit();
    bool SingleUnit = Machine.isSingleUnit(Unit);
    for (unsigned EI : After.predEdges(V)) {
      const DepEdge &E = AfterEdges[EI];
      if (!Queried(E.Kind) || Mark[E.From] == Stamp)
        continue;
      if (SingleUnit && BB.inst(E.From).unit() == Unit)
        continue;
      if (E.Kind == DepKind::Output)
        FalseDeps.push_back({Block, E.From, E.To, E.Kind});
      else
        ++AntiLosses;
    }
  }
}

/// Runs \p Check over every block, building each block's allocated Gs.
static void checkEveryBlock(FalseDepChecker &Check, const Function &Allocated,
                            const MachineModel &Machine) {
  if (!Check.needsGraphs())
    return;
  for (unsigned B = 0, NB = Allocated.numBlocks(); B != NB; ++B) {
    DependenceGraph After(Allocated, B, Machine);
    Check.checkBlock(B, After);
  }
}

std::vector<FalseDep>
pira::findFalseDependences(const Function &Symbolic,
                           const Function &Allocated,
                           const MachineModel &Machine) {
  FalseDepChecker Check(Symbolic, Allocated, Machine);
  checkEveryBlock(Check, Allocated, Machine);
  return Check.falseDeps();
}

unsigned pira::countAntiOrderingLosses(const Function &Symbolic,
                                       const Function &Allocated,
                                       const MachineModel &Machine) {
  FalseDepChecker Check(Symbolic, Allocated, Machine);
  checkEveryBlock(Check, Allocated, Machine);
  return Check.antiOrderingLosses();
}
