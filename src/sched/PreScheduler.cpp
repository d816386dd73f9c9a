//===- sched/PreScheduler.cpp - EP-driven input reordering ----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "sched/PreScheduler.h"

#include "ir/Function.h"
#include "sched/EPTimes.h"
#include "sched/ListScheduler.h"
#include "support/BitVector.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace pira;

PIRA_STAT(NumPreScheduleMoves,
          "Instructions repositioned by EP-driven pre-scheduling");

/// Postpones instructions that overflow machine capacity at their EP
/// value and propagates the delay; returns the adjusted EP numbers.
static std::vector<unsigned> adjustEP(const Function &F, unsigned BlockIdx,
                                      const DependenceGraph &G,
                                      const MachineModel &Machine) {
  const BasicBlock &BB = F.block(BlockIdx);
  unsigned N = G.size();
  std::vector<unsigned> EP = computeEP(G);
  HeightOrder Order{computeHeights(G)};

  // Levels[L] lists every node whose EP has been L. EP numbers only grow,
  // so a node enters each level at most once, and an entry whose EP has
  // since moved on is stale. Postponing a member of level L raises EPs
  // to L + 1 or more only, so level L is complete when its turn comes.
  std::vector<std::vector<unsigned>> Levels;
  auto SetEP = [&](unsigned V, unsigned Value) {
    EP[V] = Value;
    if (Levels.size() <= Value)
      Levels.resize(Value + 1);
    Levels[Value].push_back(V);
  };
  for (unsigned V = 0; V != N; ++V)
    SetEP(V, EP[V]);

  // Nodes whose EP rose and whose outgoing edges still need relaxing.
  BitVector Raised(N);
  std::vector<unsigned> Members;
  std::vector<unsigned> Postponed;
  // Process EP levels smallest first; levels can grow as members are
  // postponed.
  for (unsigned Level = 0; Level < Levels.size(); ++Level) {
    // Members of this level, most urgent (greatest height) first; ties in
    // original program order.
    Members.clear();
    for (unsigned V : Levels[Level])
      if (EP[V] == Level)
        Members.push_back(V);
    std::sort(Members.begin(), Members.end(),
              [&](unsigned A, unsigned B) { return Order.before(A, B); });

    // Admit members while capacity lasts; postpone the rest.
    unsigned SlotsLeft = Machine.issueWidth();
    std::array<unsigned, NumUnitKinds> UnitsLeft{};
    for (unsigned K = 0; K != NumUnitKinds; ++K)
      UnitsLeft[K] = Machine.units(static_cast<UnitKind>(K));
    Postponed.clear();
    for (unsigned V : Members) {
      unsigned Kind = static_cast<unsigned>(BB.inst(V).unit());
      if (SlotsLeft != 0 && UnitsLeft[Kind] != 0) {
        --SlotsLeft;
        --UnitsLeft[Kind];
      } else {
        Postponed.push_back(V);
      }
    }

    for (unsigned V : Postponed) {
      SetEP(V, EP[V] + 1);
      // Propagate along outgoing paths: a successor may issue no earlier
      // than EP[V] + latency. Every edge held before the bump, so only
      // the out-edges of nodes whose EP rose can fail; ascending index
      // order is topological, so each such node is final when visited.
      Raised.set(V);
      for (int U = static_cast<int>(V); U != -1;
           U = Raised.findNext(static_cast<unsigned>(U))) {
        Raised.reset(static_cast<unsigned>(U));
        for (unsigned EI : G.succEdges(static_cast<unsigned>(U))) {
          const DepEdge &E = G.edges()[EI];
          if (EP[E.To] < EP[U] + E.Latency) {
            SetEP(E.To, EP[U] + E.Latency);
            Raised.set(E.To);
          }
        }
      }
    }
  }
  return EP;
}

unsigned pira::preScheduleFunction(Function &F, const MachineModel &Machine) {
  PIRA_TIME_SCOPE("sched/prepass");
  assert(!F.isAllocated() && "pre-scheduling runs on symbolic code");
  unsigned Moved = 0;
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    if (F.block(B).size() < 2)
      continue;
    DependenceGraph G(F, B, Machine);
    // A linear order consistent with the adjusted EP partial order: the
    // EP numbers as issue cycles. Program order inside one EP level
    // respects every zero-latency edge.
    std::vector<unsigned> Perm =
        reorderBlockBySchedule(F, B, {adjustEP(F, B, G, Machine)});
    for (unsigned Pos = 0; Pos != Perm.size(); ++Pos)
      if (Perm[Pos] != Pos)
        ++Moved;
  }
  NumPreScheduleMoves += Moved;
  return Moved;
}
