//===- core/PinterAllocator.cpp - Section 4 combined allocator ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "core/PinterAllocator.h"

#include "analysis/Webs.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/RegionHoist.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "regalloc/ColoringEngine.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/PreScheduler.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <limits>
#include <set>

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
  std::set<Reg> NoSpillRegs;
  constexpr double Infinite = std::numeric_limits<double>::infinity();

  for (unsigned Round = 0; Round != Opts.MaxRounds; ++Round) {
    // Cooperative watchdog: a stalled color/spill/repeat loop unwinds
    // here instead of holding its worker hostage.
    deadline::checkpoint();
    ++Stats.Rounds;
    ++NumPinterRounds;
    // Preliminary EP reordering improves the *input* order once. It must
    // not run again after spill rounds: it would hoist the fresh reload
    // loads (which have no predecessors) away from their uses, stretching
    // their live ranges and recreating the pressure the spill relieved.
    if (Round == 0) {
      if (Opts.UseRegions)
        Stats.HoistedInstructions = regionHoist(F);
      if (Opts.PreSchedule)
        Stats.PreScheduleMoves += preScheduleFunction(F, Machine);
    }

    PIRA_TIME_SCOPE("alloc/round");
    Webs W = [&] {
      PIRA_TIME_SCOPE("alloc/webs");
      return Webs(F);
    }();
    InterferenceGraph IG = [&] {
      PIRA_TIME_SCOPE("alloc/interference");
      return InterferenceGraph(F, W);
    }();
    ParallelInterferenceGraph PIG(F, W, IG, Machine, Opts.UseRegions);
    std::vector<double> Costs = [&] {
      PIRA_TIME_SCOPE("alloc/spill-costs");
      std::vector<double> C = computeSpillCosts(F, W);
      for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
        if (NoSpillRegs.count(W.webRegister(Web)))
          C[Web] = Infinite;
      return C;
    }();

    Allocation A = pinterColor(PIG, Costs, NumRegs, Opts);
    Stats.ParallelEdgesDropped += A.ParallelEdgesDropped;
    if (A.fullyColored()) {
      if (SymbolicSnapshot != nullptr)
        *SymbolicSnapshot = F;
      applyAllocation(F, W, A);
      Stats.Success = true;
      Stats.ColorsUsed = A.NumColorsUsed;
      return Stats;
    }
    Stats.SpilledWebs += static_cast<unsigned>(A.SpilledWebs.size());
    NumPinterSpilledWebs += A.SpilledWebs.size();
    SpillCode Code = insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
    Stats.SpillStores += Code.Stores;
    Stats.SpillLoads += Code.Loads;
  }
  return Stats;
}
