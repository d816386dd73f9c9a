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
#include "support/UndirectedGraph.h"

#include <algorithm>
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

Allocation pira::briggsColor(const UndirectedGraph &G,
                             const std::vector<double> &Costs,
                             unsigned NumRegs) {
  Allocation Out;
  Out.ColorOfWeb.assign(G.numVertices(), -1);
  std::vector<unsigned> Stack = optimisticRemovalOrder(G, Costs, NumRegs);

  // Capped select: a vertex whose neighbors exhaust the register file
  // becomes an actual spill.
  for (auto It = Stack.rbegin(), E = Stack.rend(); It != E; ++It) {
    unsigned V = *It;
    std::vector<bool> Used(NumRegs, false);
    const BitVector &Neigh = G.neighbors(V);
    for (int Nb = Neigh.findFirst(); Nb != -1;
         Nb = Neigh.findNext(static_cast<unsigned>(Nb))) {
      int C = Out.ColorOfWeb[static_cast<unsigned>(Nb)];
      if (C >= 0 && static_cast<unsigned>(C) < NumRegs)
        Used[static_cast<unsigned>(C)] = true;
    }
    unsigned Color = 0;
    while (Color < NumRegs && Used[Color])
      ++Color;
    if (Color == NumRegs) {
      Out.SpilledWebs.push_back(V);
      continue;
    }
    Out.ColorOfWeb[V] = static_cast<int>(Color);
    Out.NumColorsUsed = std::max(Out.NumColorsUsed, Color + 1);
  }
  return Out;
}

AllocStats pira::chaitinAllocate(Function &F, unsigned NumRegs,
                                 unsigned MaxRounds,
                                 Function *SymbolicSnapshot) {
  PIRA_TIME_SCOPE("alloc/chaitin");
  AllocStats Stats;
  std::set<Reg> NoSpillRegs;
  constexpr double Infinite = std::numeric_limits<double>::infinity();

  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    // Cooperative watchdog: a stalled color/spill/repeat loop unwinds
    // here instead of holding its worker hostage.
    deadline::checkpoint();
    ++Stats.Rounds;
    ++NumChaitinRounds;
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

    Allocation A = [&] {
      PIRA_TIME_SCOPE("alloc/coloring");
      return chaitinColor(IG.graph(), Costs, NumRegs);
    }();
    if (A.fullyColored()) {
      if (SymbolicSnapshot != nullptr)
        *SymbolicSnapshot = F;
      applyAllocation(F, W, A);
      Stats.Success = true;
      Stats.ColorsUsed = A.NumColorsUsed;
      return Stats;
    }
    Stats.SpilledWebs += static_cast<unsigned>(A.SpilledWebs.size());
    NumChaitinSpilledWebs += A.SpilledWebs.size();
    SpillCode Code = insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
    Stats.SpillStores += Code.Stores;
    Stats.SpillLoads += Code.Loads;
  }
  return Stats;
}
