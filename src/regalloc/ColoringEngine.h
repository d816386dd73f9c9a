//===- regalloc/ColoringEngine.h - Worklist graph coloring ------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one simplify / spill-choice loop behind chaitinColor, briggsColor
/// and the paper's Section 4 procedure (pinterColor):
///
///   2. Simplify vertices of degree < r, lowest index first, sweep after
///      sweep.
///   3. When stuck, and only with a parallel family: take the vertex of
///      least degree (then index) among those of interference degree < r
///      and drop its parallel-only edges, cheapest benefit first, until
///      it simplifies.
///   4. Otherwise choose the vertex of least h* = cost / Σw (then index),
///      from a lazy min-heap of (h*, index) keys.
///
/// Chaitin's allocator is this loop with no family: step 3 never fires,
/// and h* with every weight 1 is Chaitin's cost / degree bit for bit.
/// Each of the procedure's whole-graph rescans is answered by a worklist
/// kept up to date instead (DESIGN.md §5, "One coloring engine").
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_REGALLOC_COLORINGENGINE_H
#define PIRA_REGALLOC_COLORINGENGINE_H

#include "regalloc/Allocation.h"

#include <span>
#include <vector>

namespace pira {

class UndirectedGraph;

/// One parallel edge {A, B} (A < B) of the PIG with its scheduling
/// benefit.
struct ParallelEdge {
  unsigned A;
  unsigned B;
  double Benefit;
};

/// The parallel edge family Section 4 colors beside the interference
/// graph (the PIG's, see core/ParallelInterferenceGraph.h), kept in the
/// paper's form: Ef is the complement of Et.
///
/// A *member* is a web with exactly one defining instruction; its group
/// is that instruction's (block, unit kind). A group is compatible with
/// the other groups of its block, and with itself unless its unit kind
/// has one unit. Two members are joined by an *implicit* parallel edge
/// when their groups are compatible and their defs are no Et pair (the
/// closure of Gs relates them); its benefit is the sum of their
/// DefHeight entries. Every other parallel edge is listed in Explicit.
/// No explicit edge joins two members of one block, so the two parts
/// never overlap.
///
/// A view: the arrays must outlive the coloring that reads them.
struct ParallelFamily {
  /// DefHeight entry of a web that is no member.
  static constexpr unsigned NoHeight = ~0u;
  /// GroupOf entry of a web that is no member.
  static constexpr unsigned NoGroup = ~0u;

  /// Per web, its group, or NoGroup.
  std::span<const unsigned> GroupOf;
  /// Per group G, the groups compatible with it, ascending:
  /// Compatible[CompatibleStart[G] .. CompatibleStart[G + 1]).
  std::span<const unsigned> CompatibleStart;
  std::span<const unsigned> Compatible;
  /// Per web V, the members it forms an Et pair with, ascending:
  /// EtPartners[EtStart[V] .. EtStart[V + 1]). Empty for a non-member.
  std::span<const unsigned> EtStart;
  std::span<const unsigned> EtPartners;
  /// Per web, the height of its only defining instruction, or NoHeight.
  std::span<const unsigned> DefHeight;
  /// The explicit parallel edges with their benefits, sorted by (A, B).
  std::span<const ParallelEdge> Explicit;
  /// Per web, its interference neighbours that are also parallel
  /// neighbours: its edges in both families (Lemma 3).
  std::span<const unsigned> BothDegree;
};

/// Colors \p Interference, plus \p Family when non-null, with \p NumRegs
/// colors (at least 1). Step 4 weighs an interference edge
/// \p InterferenceWeight, a parallel edge \p ParallelWeight and an edge
/// in both the sum.
///
/// Precondition, asserted once per call: every cost is >= 0, +inf or
/// NaN, and each weight is 0 or >= 1. Then Σw never rises as neighbours
/// leave and a positive Σw is >= 1, so no vertex's h* ever falls, which
/// is what lets step 4 pop its choice from a lazy heap rather than scan
/// every survivor (DESIGN.md §5). Costs from computeSpillCosts, +inf
/// for pinned webs, and the in-tree weights 0, 1, 2 and 4 all qualify.
///
/// A cost may be infinite. Each step-4 choice lands on
/// the returned SpilledWebs, in order; a vertex of infinite cost is
/// chosen only once every survivor's cost is infinite. When nothing was
/// chosen, select colors in reverse removal order against the combined
/// graph minus the edges step 3 dropped.
Allocation colorGraph(const UndirectedGraph &Interference,
                      const std::vector<double> &Costs, unsigned NumRegs,
                      const ParallelFamily *Family = nullptr,
                      double InterferenceWeight = 1.0,
                      double ParallelWeight = 1.0);

/// Briggs's removal order for \p G: colorGraph's loop with no family,
/// except that each step-4 choice is pushed on the returned stack in its
/// turn rather than spilled. colorGraph's precondition on \p Costs
/// applies.
std::vector<unsigned> optimisticRemovalOrder(const UndirectedGraph &G,
                                             const std::vector<double> &Costs,
                                             unsigned NumRegs);

} // namespace pira

#endif // PIRA_REGALLOC_COLORINGENGINE_H
