//===- regalloc/ChaitinAllocator.h - Baseline graph coloring ----*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic Chaitin et al. allocator the paper baselines against:
/// simplify vertices of degree < r, send the cheapest cost/degree vertex
/// to the spill list when stuck, color in reverse removal order, and when
/// anything spilled, insert spill code and repeat on the rewritten
/// program. It colors the plain interference graph, so it may freely
/// introduce false dependences — the behaviour the paper's framework
/// eliminates.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_REGALLOC_CHAITINALLOCATOR_H
#define PIRA_REGALLOC_CHAITINALLOCATOR_H

#include "regalloc/Allocation.h"

#include <vector>

namespace pira {

class Function;
class UndirectedGraph;

/// One round of Chaitin coloring on an arbitrary conflict graph: the
/// coloring engine (regalloc/ColoringEngine.h) with no parallel family.
///
/// A vertex of infinite cost goes on the spill list only once every
/// surviving vertex's cost is infinite; their h values then tie, and the
/// lowest index goes first. \p NumRegs is the color budget r (at least
/// 1). \returns colors per vertex (-1 for vertices on the spill list).
Allocation chaitinColor(const UndirectedGraph &G,
                        const std::vector<double> &Costs, unsigned NumRegs);

/// Briggs-style *optimistic* variant of chaitinColor: would-be spill
/// candidates are pushed on the removal stack anyway, and a vertex lands
/// on the spill list only if the select phase finds all NumRegs colors
/// taken by its neighbors. Never spills more vertices than the
/// pessimistic procedure on the same graph; included as the era's
/// standard improvement (Briggs et al. 1989) for baseline comparisons.
/// Its pushes follow chaitinColor's spill rule, infinite costs included.
Allocation briggsColor(const UndirectedGraph &G,
                       const std::vector<double> &Costs, unsigned NumRegs);

/// Statistics of a full allocation run.
struct AllocStats {
  bool Success = false;      ///< Everything colored within the round cap.
  unsigned Rounds = 0;       ///< Color/spill/repeat iterations.
  unsigned ColorsUsed = 0;   ///< Distinct colors in the final coloring.
  unsigned SpilledWebs = 0;  ///< Webs sent to memory, summed over rounds.
  unsigned SpillStores = 0;  ///< Store instructions inserted.
  unsigned SpillLoads = 0;   ///< Load instructions inserted.
};

/// Allocates \p F onto \p NumRegs registers with the Chaitin loop,
/// mutating \p F (spill code, then physical-register rewrite). On failure
/// (round cap hit) \p F is left in symbolic form with spill code from the
/// attempted rounds. When \p SymbolicSnapshot is non-null it receives the
/// final symbolic-form code (post-spill, pre-renaming) — the twin the
/// false-dependence checker compares against.
AllocStats chaitinAllocate(Function &F, unsigned NumRegs,
                           unsigned MaxRounds = 32,
                           Function *SymbolicSnapshot = nullptr);

} // namespace pira

#endif // PIRA_REGALLOC_CHAITINALLOCATOR_H
