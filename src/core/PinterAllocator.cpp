//===- core/PinterAllocator.cpp - Section 4 combined allocator ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "core/PinterAllocator.h"

#include "core/ParallelInterferenceGraph.h"
#include "core/RegionHoist.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "regalloc/ColoringEngine.h"
#include "sched/PreScheduler.h"
#include "support/Deadline.h"
#include "support/Telemetry.h"

#include <cassert>

using namespace pira;

PIRA_STAT(NumPinterRounds, "Combined-allocator color/spill/repeat rounds");
PIRA_STAT(NumPinterSpilledWebs, "Webs the combined allocator sent to memory");
PIRA_STAT(NumParallelEdgesSacrificed,
          "Parallel-only PIG edges dropped under register pressure");

Allocation pira::pinterColor(const ParallelInterferenceGraph &PIG,
                             const std::vector<double> &Costs,
                             unsigned NumRegs, const PinterOptions &Opts) {
  PIRA_TIME_SCOPE("pig/coloring");
  assert(Costs.size() == PIG.numWebs() && "cost vector size mismatch");
  ParallelFamily Family = PIG.family();
  Allocation Out =
      colorGraph(PIG.interference(), Costs, NumRegs, &Family,
                 Opts.InterferenceWeight, Opts.ParallelWeight);
  NumParallelEdgesSacrificed += Out.ParallelEdgesDropped;
  return Out;
}

PinterStats pira::pinterAllocate(Function &F, unsigned NumRegs,
                                 const MachineModel &Machine,
                                 const PinterOptions &Opts,
                                 Function *SymbolicSnapshot) {
  PIRA_TIME_SCOPE("alloc/pinter");
  PinterStats Stats;
  deadline::checkpoint();
  // Preliminary EP reordering improves the *input* order once. It must
  // not run again after spill rounds: it would hoist the fresh reload
  // loads (which have no predecessors) away from their uses, stretching
  // their live ranges and recreating the pressure the spill relieved.
  if (Opts.UseRegions)
    Stats.HoistedInstructions = regionHoist(F);
  if (Opts.PreSchedule)
    Stats.PreScheduleMoves = preScheduleFunction(F, Machine);

  static_cast<AllocStats &>(Stats) = colorSpillRepeat(
      F, Opts.MaxRounds, SymbolicSnapshot, NumPinterRounds,
      NumPinterSpilledWebs,
      [&](const Webs &W, const InterferenceGraph &IG,
          const std::vector<double> &Costs) {
        ParallelInterferenceGraph PIG(F, W, IG, Machine, Opts.UseRegions);
        Allocation A = pinterColor(PIG, Costs, NumRegs, Opts);
        Stats.ParallelEdgesDropped += A.ParallelEdgesDropped;
        return A;
      });
  return Stats;
}
