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
/// graph (the PIG's, see core/ParallelInterferenceGraph.h). A view: the
/// graphs and arrays must outlive the coloring that reads them.
struct ParallelFamily {
  /// DefHeight entry of a web whose parallel edges all carry an explicit
  /// benefit.
  static constexpr unsigned NoHeight = ~0u;

  /// Web pairs whose defining instructions may issue in one cycle. May
  /// overlap the interference graph.
  const UndirectedGraph &Parallel;
  /// Interference | Parallel.
  const UndirectedGraph &Combined;
  /// Per web, the height of its only defining instruction, or NoHeight.
  /// A parallel edge between two webs with heights that Explicit does not
  /// list has benefit DefHeight[A] + DefHeight[B].
  std::span<const unsigned> DefHeight;
  /// The parallel edges whose benefit is not that sum, sorted by (A, B).
  std::span<const ParallelEdge> Explicit;
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
