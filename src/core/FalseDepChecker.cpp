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
// by a backward walk, and no closure, Ef or N^2 matrix is built. The
// earliest source is the previous def of v's register (output) or its
// first reader since that def (anti), so per register the walked windows
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

namespace {

/// Calls \p Report(Block, Edge) for every edge of kind \p Kind in the
/// allocated Gs of each block whose endpoints may issue together in
/// \p Symbolic, in edges() order.
template <typename ReportT>
void forEachCoIssuableEdge(const Function &Symbolic,
                           const Function &Allocated,
                           const MachineModel &Machine, DepKind Kind,
                           ReportT &&Report) {
  assert(!Symbolic.isAllocated() && Allocated.isAllocated() &&
         "arguments swapped");
  assert(Symbolic.numBlocks() == Allocated.numBlocks() &&
         "functions do not correspond");
  // A single-issue machine serializes every pair.
  if (Machine.issueWidth() == 1)
    return;

  constexpr unsigned NoNode = ~0u;
  std::vector<unsigned> Mark;
  std::vector<unsigned> Stack;
  for (unsigned B = 0, NB = Symbolic.numBlocks(); B != NB; ++B) {
    assert(Symbolic.block(B).size() == Allocated.block(B).size() &&
           "allocation must preserve instruction positions");
    const BasicBlock &BB = Symbolic.block(B);
    DependenceGraph Before(Symbolic, B, Machine);
    DependenceGraph After(Allocated, B, Machine);
    const std::vector<DepEdge> &BeforeEdges = Before.edges();
    const std::vector<DepEdge> &AfterEdges = After.edges();
    // Mark[P] == V + 1 once P is known to be an ancestor of V.
    Mark.assign(BB.size(), 0);
    // Every edge into V is added in one run, so visiting targets in order
    // and each target's edges in insertion order is edges() order.
    for (unsigned V = 0, N = BB.size(); V != N; ++V) {
      unsigned Lo = NoNode;
      for (unsigned EI : After.predEdges(V))
        if (AfterEdges[EI].Kind == Kind)
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
        if (E.Kind != Kind || Mark[E.From] == Stamp)
          continue;
        if (SingleUnit && BB.inst(E.From).unit() == Unit)
          continue;
        Report(B, E);
      }
    }
  }
}

} // namespace

std::vector<FalseDep>
pira::findFalseDependences(const Function &Symbolic,
                           const Function &Allocated,
                           const MachineModel &Machine) {
  // Only register reuse creates new edges; flow/memory/control edges
  // exist identically in the symbolic graph. Anti edges never forbid
  // same-cycle issue (reads precede writes), so only output edges can be
  // false — see the header comment.
  std::vector<FalseDep> Result;
  forEachCoIssuableEdge(Symbolic, Allocated, Machine, DepKind::Output,
                        [&](unsigned B, const DepEdge &E) {
                          Result.push_back({B, E.From, E.To, E.Kind});
                        });
  return Result;
}

unsigned pira::countAntiOrderingLosses(const Function &Symbolic,
                                       const Function &Allocated,
                                       const MachineModel &Machine) {
  unsigned Count = 0;
  forEachCoIssuableEdge(Symbolic, Allocated, Machine, DepKind::Anti,
                        [&](unsigned, const DepEdge &) { ++Count; });
  return Count;
}
