//===- core/PinterAllocator.h - Section 4 combined allocator ----*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "registers allocation Algorithm" (Section 4), embedding
/// scheduling and allocation heuristics in one Chaitin-based coloring of
/// the parallelizable interference graph:
///
///   1. EP-driven preliminary reordering of each block (PreScheduler).
///   2. Simplify vertices of degree < r on the combined graph.
///   3. When stuck, if some vertex has degree < r counting only
///      interference edges, give away the least valuable parallelism:
///      remove the incident parallel-only (Ef \ Er) edge with the
///      smallest scheduling benefit — never an Ef ∩ Er edge (Lemma 3) —
///      and resume simplification.
///   4. Otherwise spill the vertex minimizing the generalized metric
///      h*(v) = cost(v) / Σ_{u ∈ in(v)} w({u, v}), where pure
///      interference edges weigh InterferenceWeight, pure parallel edges
///      ParallelWeight, and edges in both families the sum (Lemmas 2/3).
///      With ParallelWeight = 0 and no parallel edges this degenerates to
///      the traditional h = cost/degree.
///   5. Color in reverse removal order; on spills, insert spill code and
///      repeat the whole procedure.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_CORE_PINTERALLOCATOR_H
#define PIRA_CORE_PINTERALLOCATOR_H

#include "regalloc/Allocation.h"

#include <vector>

namespace pira {

class Function;
class MachineModel;
class ParallelInterferenceGraph;

/// Tuning knobs for the Section 4 procedure.
///
/// pinterColor sums h*'s edge weights from per-web neighbour counts
/// rather than edge by edge. The two agree bit for bit when both weights
/// are integers, as every in-tree setting is; other weights may round
/// differently in the last place.
struct PinterOptions {
  /// Weight of pure interference edges in h* (spill avoidance).
  double InterferenceWeight = 1.0;
  /// Weight of pure parallel edges in h* (parallelism preservation).
  /// The paper argues materialized parallelism usually outweighs a spill.
  double ParallelWeight = 1.0;
  /// Run the EP-driven input reordering before building the graphs.
  bool PreSchedule = true;
  /// Collect parallel edges across plausible block pairs AND hoist
  /// instructions within acyclic control-equivalent chains so the
  /// block scheduler can exploit them (the global / region extension).
  bool UseRegions = false;
  /// Cap on color/spill/repeat rounds.
  unsigned MaxRounds = 32;
};

/// Statistics of a combined allocation run.
struct PinterStats {
  bool Success = false;
  unsigned Rounds = 0;
  unsigned ColorsUsed = 0;
  unsigned SpilledWebs = 0;
  unsigned SpillStores = 0;
  unsigned SpillLoads = 0;
  /// Parallel-only edges sacrificed under register pressure (step 3).
  unsigned ParallelEdgesDropped = 0;
  /// Instructions repositioned by the preliminary scheduling stage.
  unsigned PreScheduleMoves = 0;
  /// Instructions hoisted across blocks by the region extension.
  unsigned HoistedInstructions = 0;
};

/// One round of the Section 4 coloring procedure on a PIG, run by the
/// coloring engine (regalloc/ColoringEngine.h). A vertex of infinite cost
/// is spilled only once every surviving vertex's cost is infinite; their
/// h* values then tie, and the lowest index goes first. \p NumRegs must
/// be at least 1. Dropped-edge count is reported in the returned
/// Allocation::ParallelEdgesDropped.
Allocation pinterColor(const ParallelInterferenceGraph &PIG,
                       const std::vector<double> &Costs, unsigned NumRegs,
                       const PinterOptions &Opts = {});

/// Full combined allocation of \p F onto \p NumRegs registers for
/// \p Machine; mutates \p F (reordering, spill code, physical renaming).
/// \p SymbolicSnapshot, when non-null, receives the final symbolic-form
/// twin for false-dependence checking.
PinterStats pinterAllocate(Function &F, unsigned NumRegs,
                           const MachineModel &Machine,
                           const PinterOptions &Opts = {},
                           Function *SymbolicSnapshot = nullptr);

} // namespace pira

#endif // PIRA_CORE_PINTERALLOCATOR_H
