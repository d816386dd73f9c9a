//===- regalloc/ChaitinAllocator.cpp - Baseline graph coloring ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "regalloc/ChaitinAllocator.h"

#include "analysis/Webs.h"
#include "ir/Function.h"
#include "regalloc/ColoringEngine.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "support/Deadline.h"
#include "support/Telemetry.h"

#include <limits>
#include <set>

using namespace pira;

PIRA_STAT(NumChaitinRounds, "Chaitin color/spill/repeat rounds run");
PIRA_STAT(NumChaitinSpilledWebs, "Webs the Chaitin allocator sent to memory");

Allocation pira::chaitinColor(const UndirectedGraph &G,
                              const std::vector<double> &Costs,
                              unsigned NumRegs) {
  return colorGraph(G, Costs, NumRegs);
}

AllocStats pira::colorSpillRepeat(
    Function &F, unsigned MaxRounds, Function *SymbolicSnapshot,
    telemetry::Counter &RoundsRun, telemetry::Counter &WebsSpilled,
    const std::function<Allocation(const Webs &, const InterferenceGraph &,
                                   const std::vector<double> &)> &ColorRound) {
  AllocStats Stats;
  std::set<Reg> NoSpillRegs;
  constexpr double Infinite = std::numeric_limits<double>::infinity();

  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    // Cooperative watchdog: a stalled color/spill/repeat loop unwinds
    // here instead of holding its worker hostage.
    deadline::checkpoint();
    ++Stats.Rounds;
    ++RoundsRun;
    PIRA_TIME_SCOPE("alloc/round");
    Webs W = [&] {
      PIRA_TIME_SCOPE("alloc/webs");
      return Webs(F);
    }();
    InterferenceGraph IG = [&] {
      PIRA_TIME_SCOPE("alloc/interference");
      return InterferenceGraph(F, W);
    }();
    std::vector<double> Costs = [&] {
      PIRA_TIME_SCOPE("alloc/spill-costs");
      std::vector<double> C = computeSpillCosts(F, W);
      for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
        if (NoSpillRegs.count(W.webRegister(Web)))
          C[Web] = Infinite;
      return C;
    }();

    Allocation A = ColorRound(W, IG, Costs);
    if (A.fullyColored()) {
      if (SymbolicSnapshot != nullptr)
        *SymbolicSnapshot = F;
      applyAllocation(F, W, A);
      Stats.Success = true;
      Stats.ColorsUsed = A.NumColorsUsed;
      return Stats;
    }
    Stats.SpilledWebs += static_cast<unsigned>(A.SpilledWebs.size());
    WebsSpilled += A.SpilledWebs.size();
    SpillCode Code = insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
    Stats.SpillStores += Code.Stores;
    Stats.SpillLoads += Code.Loads;
  }
  return Stats;
}

AllocStats pira::chaitinAllocate(Function &F, unsigned NumRegs,
                                 unsigned MaxRounds,
                                 Function *SymbolicSnapshot) {
  PIRA_TIME_SCOPE("alloc/chaitin");
  return colorSpillRepeat(
      F, MaxRounds, SymbolicSnapshot, NumChaitinRounds, NumChaitinSpilledWebs,
      [&](const Webs &, const InterferenceGraph &IG,
          const std::vector<double> &Costs) {
        PIRA_TIME_SCOPE("alloc/coloring");
        return chaitinColor(IG.graph(), Costs, NumRegs);
      });
}
