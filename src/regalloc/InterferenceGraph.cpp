//===- regalloc/InterferenceGraph.cpp - Live-range interference -----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "regalloc/InterferenceGraph.h"

#include "analysis/Liveness.h"
#include "analysis/Webs.h"
#include "ir/Function.h"

#include <algorithm>

using namespace pira;

InterferenceGraph::InterferenceGraph(const Function &F, const Webs &W) {
  unsigned NumBlocks = F.numBlocks();
  unsigned NumWebs = W.numWebs();
  Graph = UndirectedGraph(NumWebs);

  // Web-granularity liveness. The web binding already resolves which
  // definition(s) feed each use, so block-local Use/Def sets over webs
  // give exact may-liveness at web level.
  std::vector<BitVector> UseW(NumBlocks, BitVector(NumWebs));
  std::vector<BitVector> DefW(NumBlocks, BitVector(NumWebs));
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      for (unsigned Web : W.websOfUses(B, I))
        if (!DefW[B].test(Web))
          UseW[B].set(Web);
      if (BB.inst(I).hasDef())
        DefW[B].set(W.webOfDef(B, I));
    }
  }

  solveLiveness(F, UseW, DefW, LiveInW, LiveOutW);

  // Webs carrying function inputs are all "defined" together at entry:
  // any two simultaneously live there interfere even though no textual
  // definition exists.
  const BitVector &EntryLive = LiveInW[0];
  for (int A = EntryLive.findFirst(); A != -1;
       A = EntryLive.findNext(static_cast<unsigned>(A)))
    for (int B = EntryLive.findNext(static_cast<unsigned>(A)); B != -1;
         B = EntryLive.findNext(static_cast<unsigned>(B)))
      Graph.addEdge(static_cast<unsigned>(A), static_cast<unsigned>(B));

  // Interference: walk each block backward; at a definition, the defined
  // web conflicts with everything currently live (minus itself). A value
  // whose last use feeds this very instruction is no longer live, which
  // implements the paper's open interval endpoint. The live set is a
  // list with a position per web, so a def costs its edges, a def or use
  // leaves or joins in O(1), and the pressure is the list's length. Edges
  // arrive in list order, not index order; addEdge makes the matrix, the
  // degrees and the edge count independent of that order.
  constexpr unsigned NotLive = ~0u;
  std::vector<unsigned> Live;
  std::vector<unsigned> PosOf(NumWebs, NotLive);
  auto Join = [&](unsigned Web) {
    if (PosOf[Web] != NotLive)
      return;
    PosOf[Web] = static_cast<unsigned>(Live.size());
    Live.push_back(Web);
  };
  auto Leave = [&](unsigned Web) {
    unsigned Pos = PosOf[Web];
    if (Pos == NotLive)
      return;
    PosOf[Live.back()] = Pos;
    Live[Pos] = Live.back();
    Live.pop_back();
    PosOf[Web] = NotLive;
  };
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    LiveOutW[B].forEachSetBit(Join);
    MaxPressure = std::max(MaxPressure, static_cast<unsigned>(Live.size()));
    for (unsigned I = BB.size(); I-- != 0;) {
      if (BB.inst(I).hasDef()) {
        unsigned DefWeb = W.webOfDef(B, I);
        Leave(DefWeb);
        for (unsigned Other : Live)
          Graph.addEdge(DefWeb, Other);
      }
      for (unsigned Web : W.websOfUses(B, I))
        Join(Web);
      MaxPressure = std::max(MaxPressure, static_cast<unsigned>(Live.size()));
    }
    for (unsigned Web : Live)
      PosOf[Web] = NotLive;
    Live.clear();
  }
}
