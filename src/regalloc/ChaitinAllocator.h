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

#include <functional>
#include <vector>

namespace pira {

class Function;
class InterferenceGraph;
class UndirectedGraph;
class Webs;

namespace telemetry {
class Counter;
} // namespace telemetry

/// One round of Chaitin coloring on an arbitrary conflict graph: the
/// coloring engine (regalloc/ColoringEngine.h) with no parallel family.
///
/// A vertex of infinite cost goes on the spill list only once every
/// surviving vertex's cost is infinite; their h values then tie, and the
/// lowest index goes first. \p NumRegs is the color budget r (at least
/// 1). \returns colors per vertex (-1 for vertices on the spill list).
Allocation chaitinColor(const UndirectedGraph &G,
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

/// The color/spill/repeat loop both allocators run: Chaitin's with
/// chaitinColor, Section 4's with the PIG coloring (PinterAllocator.h).
///
/// Each round, timed as "alloc/round", takes a deadline checkpoint,
/// bumps \p RoundsRun, builds \p F's webs, interference graph and spill
/// costs (+inf for spill temporaries), and has \p ColorRound color them.
/// A full coloring is applied to \p F, after a copy of the symbolic code
/// to \p SymbolicSnapshot when non-null; else the spilled webs, counted
/// in \p WebsSpilled, go to memory and the next round starts. After
/// \p MaxRounds rounds \p F is left symbolic, with every round's spills.
AllocStats colorSpillRepeat(
    Function &F, unsigned MaxRounds, Function *SymbolicSnapshot,
    telemetry::Counter &RoundsRun, telemetry::Counter &WebsSpilled,
    const std::function<Allocation(const Webs &W, const InterferenceGraph &IG,
                                   const std::vector<double> &Costs)>
        &ColorRound);

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
