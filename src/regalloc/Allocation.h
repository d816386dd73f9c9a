//===- regalloc/Allocation.h - Coloring results and rewriting ---*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common result type shared by the Chaitin baseline and the Pinter
/// combined allocator, and the operand-rewriting step that turns a web
/// coloring into physical-register code.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_REGALLOC_ALLOCATION_H
#define PIRA_REGALLOC_ALLOCATION_H

#include <vector>

namespace pira {

class Function;
class Webs;

/// A register assignment over webs.
struct Allocation {
  /// Color (physical register) per web; -1 for spilled webs.
  std::vector<int> ColorOfWeb;

  /// Number of distinct colors used.
  unsigned NumColorsUsed = 0;

  /// Webs this coloring sent to memory, in spill order.
  std::vector<unsigned> SpilledWebs;

  /// Parallel (false-dependence) edges the Pinter allocator dropped under
  /// register pressure; always 0 for the Chaitin baseline.
  unsigned ParallelEdgesDropped = 0;

  /// Returns true when every web received a color.
  bool fullyColored() const { return SpilledWebs.empty(); }
};

/// Rewrites \p F in place, replacing every register operand with the
/// color of its web under \p A. Marks the function allocated and shrinks
/// its register space to the colors used. Every web must be colored.
void applyAllocation(Function &F, const Webs &W, const Allocation &A);

class UndirectedGraph;

/// Chaitin-style select phase: pops \p Stack (reverse removal order) and
/// gives each vertex the lowest color absent among its already-colored
/// neighbors in \p G, updating \p Out.ColorOfWeb / NumColorsUsed.
/// Vertices not on the stack keep their existing color entries.
void assignColorsGreedy(const UndirectedGraph &G,
                        const std::vector<unsigned> &Stack, Allocation &Out);

} // namespace pira

#endif // PIRA_REGALLOC_ALLOCATION_H
