//===- pipeline/Oracle.cpp - Exact branch-and-bound strategy --------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
//
// The search enumerates, cycle by cycle, every issue set that the machine
// (issue width, unit counts) and the register file admit, over the symbolic
// schedule graph Gs. Register admission is exact: an issue set is feasible
// iff some within-cycle order keeps the number of simultaneously-live
// values at or under K, and for a single block live ranges are intervals
// along the issue order, so K registers suffice exactly when that peak
// does not exceed K (the left-edge greedy achieves it). Three classical
// reductions keep the enumeration sound yet small:
//
//   * Earliest-issue dominance: delaying an instruction past its ready
//     cycle never helps — register pressure depends only on the *sequence*
//     of issue sets, not on their wall-clock cycles — so the search only
//     idles toward a pending latency event.
//   * Admissible bounds: critical-path height and per-unit-class
//     ceil(remaining/units) floors, checked against the incumbent.
//   * Dominance memoization: per scheduled-set bitmask, a Pareto front of
//     (makespan-so-far, effective ready times); a state pointwise no
//     better than a stored one cannot lead to a better completion.
//
// Scope: single-block functions without symbolic register reuse. The
// reuse restriction is what makes the optimality claim airtight — a
// coloring allocator may legally *rename* the webs of a reused symbolic
// register apart and thereby drop anti/output edges the symbolic graph
// contains, so an oracle that enforced those edges could be beaten.
// Out-of-scope inputs fail fast with SearchExhausted and fall down the
// degradation ladder.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Oracle.h"

#include "analysis/DependenceGraph.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "sched/EPTimes.h"
#include "support/Deadline.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

using namespace pira;

PIRA_STAT(NumOracleRuns, "Oracle searches started");
PIRA_STAT(NumOracleSolved, "Oracle searches that proved an optimum");
PIRA_STAT(NumOracleInfeasible,
          "Oracle searches that proved no spill-free schedule fits");
PIRA_STAT(NumOracleOutOfScope,
          "Oracle inputs rejected before search (multi-block, too large, "
          "symbolic reuse)");
PIRA_STAT(NumOracleExhausted,
          "Oracle searches abandoned on node budget or deadline");
PIRA_STAT(NumOracleNodes, "Oracle search nodes expanded");
PIRA_STAT(NumOracleBoundPrunes, "Oracle branches cut by admissible bounds");
PIRA_STAT(NumOracleDominancePrunes,
          "Oracle states cut by dominance memoization");
PIRA_HIST(OracleSearchNs, "Oracle search wall time per function (ns)");

namespace {

constexpr unsigned Inf = std::numeric_limits<unsigned>::max();

/// The whole search over one block. Built once per oracleCompile call;
/// all state is per-instance, so concurrent batch workers never share.
class OracleSearch {
public:
  OracleSearch(const Function &F, const MachineModel &M)
      : F(F), M(M), G(F, /*BlockIdx=*/0, M) {}

  /// Runs the search. Returns Ok and fills \p Out on a proven optimum;
  /// SearchExhausted / AllocFailure otherwise (see Oracle.h).
  Status run(const OracleOptions &Opts, PipelineResult &Out);

private:
  /// Issue-set enumeration scratch, one instance per search level so a
  /// committed cycle's recursion cannot clobber its parent's candidates.
  struct Level {
    std::vector<unsigned> Work;    ///< Candidates, decided left to right.
    std::vector<unsigned> Members; ///< Tentatively included set.
    unsigned UnitsUsed[NumUnitKinds] = {};
    std::vector<unsigned> PredsLeftDyn; ///< PredsLeft net of Members.
    std::vector<unsigned> BlockedBy; ///< >=1-latency preds inside Members.
    std::vector<char> InWork;        ///< Guards duplicate appends.
  };

  // --- static problem data -------------------------------------------------
  const Function &F;
  const MachineModel &M;
  DependenceGraph G;
  unsigned N = 0;     ///< Instructions in block 0.
  unsigned K = 0;     ///< Physical registers.
  unsigned Width = 0; ///< Issue width.
  uint64_t FullMask = 0;
  std::vector<unsigned> Height;     ///< Critical-path height per node.
  std::vector<unsigned> UnitOf;     ///< Unit class per node.
  std::vector<char> HasDef;         ///< Node defines a value.
  std::vector<unsigned> NumReaders; ///< Reader-instruction count per value.
  /// Distinct producing values read by each instruction.
  std::vector<std::vector<unsigned>> UseVals;
  /// Producer value per use slot (aligned with uses()).
  std::vector<std::vector<unsigned>> SlotProducer;

  // --- mutable search state (undo-managed) ---------------------------------
  uint64_t Mask = 0;
  std::vector<unsigned> CycleOf;
  std::vector<unsigned> Ready;       ///< Earliest cycle from scheduled preds.
  std::vector<unsigned> PredsLeft;   ///< Unscheduled predecessors.
  std::vector<unsigned> ReadersLeft; ///< Unscheduled readers per value.
  unsigned LiveCount = 0;            ///< Values live after Mask.

  // --- incumbent and pruning ----------------------------------------------
  unsigned Best = Inf; ///< Incumbent makespan.
  std::vector<unsigned> BestCycleOf;
  /// Pareto entries per mask: [makespan-so-far, eff-ready of each
  /// unscheduled node in index order]. Bounded per mask and globally;
  /// skipping an insert only costs pruning power, never soundness.
  std::unordered_map<uint64_t, std::vector<std::vector<unsigned>>> Memo;
  static constexpr size_t MaxMemoEntries = 1u << 20;
  static constexpr size_t MaxParetoPerMask = 8;
  size_t MemoEntries = 0;

  uint64_t Nodes = 0;
  uint64_t NodeBudget = 0;
  bool Exhausted = false;
  bool HitDeadline = false;

  Status prepare(const OracleOptions &Opts);
  void dfs(unsigned Cycle, unsigned MkSoFar);
  void enumerate(Level &L, unsigned Pos, unsigned Cycle, unsigned MkSoFar);
  void commit(const std::vector<unsigned> &S, unsigned Cycle,
              unsigned MkSoFar);
  bool overBudget();
  bool dominated(unsigned Cycle, unsigned MkSoFar);
  bool cycleOrderFeasible(const std::vector<unsigned> &S,
                          std::vector<unsigned> *WitnessOrder) const;
  Status materialize(PipelineResult &Out);
};

Status OracleSearch::prepare(const OracleOptions &Opts) {
  auto outOfScope = [](std::string Msg) {
    ++NumOracleOutOfScope;
    return Status::error(ErrorCode::SearchExhausted, "oracle/scope",
                         std::move(Msg));
  };
  unsigned Cap = std::min(Opts.MaxInstructions, 64u);
  if (F.numBlocks() != 1)
    return outOfScope("oracle handles single-block functions, @" + F.name() +
                      " has " + std::to_string(F.numBlocks()) + " blocks");
  N = F.block(0).size();
  if (N == 0 || N > Cap)
    return outOfScope("block size " + std::to_string(N) +
                      " outside the oracle's envelope [1, " +
                      std::to_string(Cap) + "]");
  Width = M.issueWidth();
  if (std::min(Width, N) > 16)
    return outOfScope("issue width " + std::to_string(Width) +
                      " exceeds the within-cycle subset DP's 16-wide limit");
  for (const DepEdge &E : G.edges())
    if (E.Kind == DepKind::Anti || E.Kind == DepKind::Output)
      return outOfScope("symbolic register reuse in @" + F.name() +
                        " (a renaming allocator could drop the anti/output "
                        "edges the exact search would have to respect)");

  K = M.numPhysRegs();
  FullMask = N == 64 ? ~uint64_t(0) : (uint64_t(1) << N) - 1;
  Height = computeHeights(G);
  NodeBudget = Opts.NodeBudget;

  const BasicBlock &BB = F.block(0);
  UnitOf.resize(N);
  HasDef.resize(N);
  NumReaders.assign(N, 0);
  UseVals.resize(N);
  SlotProducer.resize(N);
  std::vector<unsigned> LastDef(F.numRegs(), Inf);
  for (unsigned I = 0; I != N; ++I) {
    const Instruction &Inst = BB.inst(I);
    UnitOf[I] = static_cast<unsigned>(Inst.unit());
    HasDef[I] = Inst.hasDef() ? 1 : 0;
    SlotProducer[I].reserve(Inst.uses().size());
    for (Reg R : Inst.uses()) {
      if (R >= LastDef.size() || LastDef[R] == Inf)
        return outOfScope("instruction " + std::to_string(I) +
                          " reads a register with no reaching definition");
      unsigned V = LastDef[R];
      SlotProducer[I].push_back(V);
      if (std::find(UseVals[I].begin(), UseVals[I].end(), V) ==
          UseVals[I].end()) {
        UseVals[I].push_back(V);
        ++NumReaders[V];
      }
    }
    if (Inst.hasDef())
      LastDef[Inst.def()] = I;
  }

  // Register-pressure floor: when I executes, its distinct operand values
  // are simultaneously live (every one still has I as a pending reader),
  // and its def needs a register of its own account. No schedule evades
  // this, so exceeding K here is a proof of spill-free infeasibility.
  for (unsigned I = 0; I != N; ++I) {
    unsigned Need = std::max<unsigned>(
        static_cast<unsigned>(UseVals[I].size()), HasDef[I] ? 1u : 0u);
    if (Need > K) {
      ++NumOracleInfeasible;
      return Status::error(
          ErrorCode::AllocFailure, "oracle/pressure-floor",
          "no spill-free schedule exists: instruction " + std::to_string(I) +
              " alone needs " + std::to_string(Need) + " registers, machine " +
              M.name() + " has " + std::to_string(K));
    }
  }

  CycleOf.assign(N, 0);
  Ready.assign(N, 0);
  PredsLeft.resize(N);
  for (unsigned I = 0; I != N; ++I)
    PredsLeft[I] = static_cast<unsigned>(G.predEdges(I).size());
  ReadersLeft = NumReaders;
  return Status();
}

bool OracleSearch::overBudget() {
  if (Exhausted)
    return true;
  if (NodeBudget != 0 && Nodes > NodeBudget) {
    Exhausted = true;
    return true;
  }
  // Cooperative deadline: poll rather than throw, so a watchdog firing
  // mid-search degrades down the ladder (the heuristic rungs are orders
  // of magnitude faster and each gets a fresh deadline) instead of being
  // treated as "would blow again".
  if ((Nodes & 255u) == 0 && deadline::expired()) {
    Exhausted = true;
    HitDeadline = true;
    return true;
  }
  return false;
}

/// Exact register admission for issue set \p S at the current state:
/// true iff some within-cycle order (0-latency edges inside \p S
/// respected) keeps simultaneous liveness at or under K. Occupancy after
/// an executed prefix T is order-independent — values die when their
/// last pending reader lands in T, defs (dead-born ones hold to the end
/// of the cycle) each take one register — so a subset DP over prefixes
/// decides feasibility exactly. \p WitnessOrder, when requested, gets a
/// deterministic admissible order (used by materialization).
bool OracleSearch::cycleOrderFeasible(
    const std::vector<unsigned> &S, std::vector<unsigned> *WitnessOrder) const {
  unsigned Sz = static_cast<unsigned>(S.size());
  if (Sz == 0) {
    if (WitnessOrder)
      WitnessOrder->clear();
    return true;
  }
  assert(Sz <= 16 && "issue set beyond subset-DP range");

  // Dying values: live now, every remaining reader inside S. For each,
  // the mask of S-positions that read it; released once all have run.
  std::vector<unsigned> DyingMask;
  std::vector<unsigned> SeenVals;
  for (unsigned P = 0; P != Sz; ++P)
    for (unsigned V : UseVals[S[P]]) {
      if (ReadersLeft[V] == 0 ||
          std::find(SeenVals.begin(), SeenVals.end(), V) != SeenVals.end())
        continue;
      SeenVals.push_back(V);
      unsigned InSMask = 0, InSCount = 0;
      for (unsigned Q = 0; Q != Sz; ++Q)
        if (std::find(UseVals[S[Q]].begin(), UseVals[S[Q]].end(), V) !=
            UseVals[S[Q]].end()) {
          InSMask |= 1u << Q;
          ++InSCount;
        }
      if (InSCount == ReadersLeft[V])
        DyingMask.push_back(InSMask);
    }

  // Within-cycle precedence: 0-latency graph edges with both ends in S.
  std::vector<unsigned> PredMask(Sz, 0);
  for (unsigned P = 0; P != Sz; ++P)
    for (unsigned EI : G.succEdges(S[P])) {
      const DepEdge &E = G.edges()[EI];
      if (E.Latency != 0)
        continue;
      for (unsigned Q = 0; Q != Sz; ++Q)
        if (S[Q] == E.To)
          PredMask[Q] |= 1u << P;
    }

  unsigned Full = (1u << Sz) - 1u;
  auto occupancy = [&](unsigned T) {
    unsigned Occ = LiveCount;
    for (unsigned DM : DyingMask)
      if ((DM & ~T) == 0)
        --Occ;
    for (unsigned P = 0; P != Sz; ++P)
      if ((T >> P & 1u) && HasDef[S[P]])
        ++Occ;
    return Occ;
  };

  std::vector<char> Feasible(size_t(Full) + 1, 0);
  std::vector<unsigned> Last(size_t(Full) + 1, 0);
  Feasible[0] = LiveCount <= K;
  for (unsigned T = 1; T <= Full; ++T) {
    if (occupancy(T) > K)
      continue;
    for (unsigned P = 0; P != Sz; ++P) {
      if (!(T >> P & 1u))
        continue;
      unsigned Prev = T & ~(1u << P);
      if (Feasible[Prev] && (PredMask[P] & ~Prev) == 0) {
        Feasible[T] = 1;
        Last[T] = P;
        break;
      }
    }
  }
  if (!Feasible[Full])
    return false;
  if (WitnessOrder) {
    WitnessOrder->assign(Sz, 0);
    unsigned T = Full;
    for (unsigned Step = Sz; Step != 0; --Step) {
      unsigned P = Last[T];
      (*WitnessOrder)[Step - 1] = S[P];
      T &= ~(1u << P);
    }
  }
  return true;
}

bool OracleSearch::dominated(unsigned Cycle, unsigned MkSoFar) {
  std::vector<unsigned> Sig;
  Sig.reserve(N + 1);
  Sig.push_back(MkSoFar);
  for (unsigned I = 0; I != N; ++I)
    if (!(Mask >> I & 1))
      Sig.push_back(std::max(Ready[I], Cycle));
  auto &Entries = Memo[Mask];
  for (const std::vector<unsigned> &E : Entries) {
    bool Dominates = true;
    for (size_t J = 0; J != Sig.size(); ++J)
      if (E[J] > Sig[J]) {
        Dominates = false;
        break;
      }
    if (Dominates)
      return true;
  }
  Entries.erase(std::remove_if(Entries.begin(), Entries.end(),
                               [&](const std::vector<unsigned> &E) {
                                 for (size_t J = 0; J != Sig.size(); ++J)
                                   if (Sig[J] > E[J])
                                     return false;
                                 --MemoEntries;
                                 return true;
                               }),
                Entries.end());
  if (Entries.size() < MaxParetoPerMask && MemoEntries < MaxMemoEntries) {
    Entries.push_back(std::move(Sig));
    ++MemoEntries;
  }
  return false;
}

/// Applies issue set \p S at \p Cycle, recurses into the earliest next
/// decision cycle (or records the incumbent on completion), and undoes.
void OracleSearch::commit(const std::vector<unsigned> &S, unsigned Cycle,
                          unsigned MkSoFar) {
  std::vector<std::pair<unsigned, unsigned>> ReadyUndo;
  for (unsigned I : S) {
    Mask |= uint64_t(1) << I;
    CycleOf[I] = Cycle;
    for (unsigned EI : G.succEdges(I)) {
      const DepEdge &E = G.edges()[EI];
      unsigned NewReady = Cycle + E.Latency;
      if (NewReady > Ready[E.To]) {
        ReadyUndo.emplace_back(E.To, Ready[E.To]);
        Ready[E.To] = NewReady;
      }
      --PredsLeft[E.To];
    }
    for (unsigned V : UseVals[I])
      if (--ReadersLeft[V] == 0)
        --LiveCount;
    if (HasDef[I] && NumReaders[I] > 0)
      ++LiveCount;
  }

  unsigned NewMk = std::max(MkSoFar, Cycle + 1);
  if (Mask == FullMask) {
    if (NewMk < Best) {
      Best = NewMk;
      BestCycleOf = CycleOf;
    }
  } else {
    unsigned Next = Inf;
    for (unsigned I = 0; I != N; ++I)
      if (!(Mask >> I & 1) && PredsLeft[I] == 0)
        Next = std::min(Next, std::max(Ready[I], Cycle + 1));
    assert(Next != Inf && "unscheduled DAG must expose a source");
    dfs(Next, NewMk);
  }

  for (size_t J = S.size(); J != 0; --J) {
    unsigned I = S[J - 1];
    if (HasDef[I] && NumReaders[I] > 0)
      --LiveCount;
    for (unsigned V : UseVals[I])
      if (ReadersLeft[V]++ == 0)
        ++LiveCount;
    for (unsigned EI : G.succEdges(I))
      ++PredsLeft[G.edges()[EI].To];
    Mask &= ~(uint64_t(1) << I);
  }
  for (size_t J = ReadyUndo.size(); J != 0; --J)
    Ready[ReadyUndo[J - 1].first] = ReadyUndo[J - 1].second;
}

/// Include/exclude recursion over the issue candidates at \p Cycle.
/// Including an instruction may enable 0-latency successors whose only
/// remaining predecessors are in the set (terminator co-issue); they are
/// appended to the worklist and decided in turn, so every distinct set
/// is produced exactly once.
void OracleSearch::enumerate(Level &L, unsigned Pos, unsigned Cycle,
                             unsigned MkSoFar) {
  if (Exhausted)
    return;
  if (Pos == L.Work.size()) {
    if (L.Members.empty()) {
      // Idle move: legal only toward a pending latency event. When no
      // event is pending, waiting changes nothing (liveness depends
      // only on the scheduled set), so a state admitting no nonempty
      // issue set is a genuine dead end.
      unsigned Next = Inf;
      for (unsigned I = 0; I != N; ++I)
        if (!(Mask >> I & 1) && PredsLeft[I] == 0 && Ready[I] > Cycle)
          Next = std::min(Next, Ready[I]);
      if (Next != Inf)
        dfs(Next, MkSoFar);
      return;
    }
    if (cycleOrderFeasible(L.Members, nullptr))
      commit(L.Members, Cycle, MkSoFar);
    return;
  }
  unsigned I = L.Work[Pos];
  // Include first: with candidates ordered by falling height this dives
  // toward a greedy critical-path solution, handing the bounds a tight
  // incumbent early.
  if (L.Members.size() < Width &&
      L.UnitsUsed[UnitOf[I]] < M.units(static_cast<UnitKind>(UnitOf[I])) &&
      L.PredsLeftDyn[I] == 0 && L.BlockedBy[I] == 0) {
    L.Members.push_back(I);
    ++L.UnitsUsed[UnitOf[I]];
    size_t Appended = 0;
    for (unsigned EI : G.succEdges(I)) {
      const DepEdge &E = G.edges()[EI];
      if (E.Latency == 0) {
        if (--L.PredsLeftDyn[E.To] == 0 && L.BlockedBy[E.To] == 0 &&
            !(Mask >> E.To & 1) && Ready[E.To] <= Cycle && !L.InWork[E.To]) {
          L.Work.push_back(E.To);
          L.InWork[E.To] = 1;
          ++Appended;
        }
      } else {
        ++L.BlockedBy[E.To];
      }
    }
    enumerate(L, Pos + 1, Cycle, MkSoFar);
    for (unsigned EI : G.succEdges(I)) {
      const DepEdge &E = G.edges()[EI];
      if (E.Latency == 0)
        ++L.PredsLeftDyn[E.To];
      else
        --L.BlockedBy[E.To];
    }
    for (size_t J = 0; J != Appended; ++J) {
      L.InWork[L.Work.back()] = 0;
      L.Work.pop_back();
    }
    --L.UnitsUsed[UnitOf[I]];
    L.Members.pop_back();
    if (Exhausted)
      return;
  }
  enumerate(L, Pos + 1, Cycle, MkSoFar);
}

void OracleSearch::dfs(unsigned Cycle, unsigned MkSoFar) {
  ++Nodes;
  ++NumOracleNodes;
  if (overBudget())
    return;

  // Admissible lower bounds against the incumbent. Ready times of nodes
  // with unscheduled predecessors are partial maxima, hence still lower
  // bounds; every term therefore underestimates the true completion.
  unsigned LB = MkSoFar;
  unsigned RemTotal = 0;
  unsigned RemPerUnit[NumUnitKinds] = {};
  for (unsigned I = 0; I != N; ++I) {
    if (Mask >> I & 1)
      continue;
    LB = std::max(LB, std::max(Ready[I], Cycle) + Height[I] + 1);
    ++RemTotal;
    ++RemPerUnit[UnitOf[I]];
  }
  LB = std::max(LB, Cycle + (RemTotal + Width - 1) / Width);
  for (unsigned U = 0; U != NumUnitKinds; ++U)
    if (RemPerUnit[U] != 0)
      LB = std::max(
          LB, Cycle + (RemPerUnit[U] + M.units(static_cast<UnitKind>(U)) - 1) /
                          M.units(static_cast<UnitKind>(U)));
  if (LB >= Best) {
    ++NumOracleBoundPrunes;
    return;
  }
  if (dominated(Cycle, MkSoFar)) {
    ++NumOracleDominancePrunes;
    return;
  }

  Level L;
  for (unsigned I = 0; I != N; ++I)
    if (!(Mask >> I & 1) && PredsLeft[I] == 0 && Ready[I] <= Cycle)
      L.Work.push_back(I);
  std::sort(L.Work.begin(), L.Work.end(), [&](unsigned A, unsigned B) {
    if (Height[A] != Height[B])
      return Height[A] > Height[B];
    return A < B;
  });
  L.PredsLeftDyn = PredsLeft;
  L.BlockedBy.assign(N, 0);
  L.InWork.assign(N, 0);
  for (unsigned I : L.Work)
    L.InWork[I] = 1;
  enumerate(L, 0, Cycle, MkSoFar);
}

/// Rebuilds the winning schedule into code: replays the cycles to
/// recover deterministic witness orders, reorders the block, renames
/// registers with the left-edge greedy along the final positions, and
/// re-checks the result against the allocated code's own schedule graph.
Status OracleSearch::materialize(PipelineResult &Out) {
  // Replay state (the search's undos left the counters pristine).
  ReadersLeft = NumReaders;
  LiveCount = 0;
  unsigned Makespan = Best;
  std::vector<std::vector<unsigned>> Cycles(Makespan);
  for (unsigned I = 0; I != N; ++I)
    Cycles[BestCycleOf[I]].push_back(I);

  std::vector<unsigned> NewOrder;
  NewOrder.reserve(N);
  for (unsigned C = 0; C != Makespan; ++C) {
    std::vector<unsigned> Witness;
    if (!cycleOrderFeasible(Cycles[C], &Witness))
      return Status::error(ErrorCode::Internal, "oracle/materialize",
                           "winning schedule lost register feasibility on "
                           "replay (cycle " +
                               std::to_string(C) + ")");
    for (unsigned I : Witness) {
      NewOrder.push_back(I);
      for (unsigned V : UseVals[I])
        if (--ReadersLeft[V] == 0)
          --LiveCount;
      if (HasDef[I] && NumReaders[I] > 0)
        ++LiveCount;
    }
  }

  // Reordered symbolic twin: allocation stays a pure renaming at fixed
  // positions, exactly what the false-dependence checker requires.
  Function Twin = F;
  {
    std::vector<Instruction> Reordered;
    Reordered.reserve(N);
    for (unsigned I : NewOrder)
      Reordered.push_back(F.block(0).inst(I));
    Twin.block(0).instructions() = std::move(Reordered);
  }

  // Left-edge renaming along the final position order. Dying values free
  // their register at their last reader (usable later the same cycle —
  // the read-before-write handoff); dead-born defs hold theirs to the
  // end of their cycle (output latency 1).
  Function Alloc = Twin;
  std::vector<unsigned> PhysOf(N, Inf);
  std::vector<char> RegBusy(K, 0);
  std::vector<unsigned> FreeAtCycleEnd;
  ReadersLeft = NumReaders;
  unsigned MaxReg = 0;
  bool AnyReg = false;
  unsigned PrevCycle = 0;
  for (unsigned P = 0; P != N; ++P) {
    unsigned I = NewOrder[P];
    unsigned C = BestCycleOf[I];
    if (C != PrevCycle) {
      for (unsigned R : FreeAtCycleEnd)
        RegBusy[R] = 0;
      FreeAtCycleEnd.clear();
      PrevCycle = C;
    }
    Instruction &Inst = Alloc.block(0).inst(P);
    for (size_t Slot = 0; Slot != SlotProducer[I].size(); ++Slot)
      Inst.setUse(static_cast<unsigned>(Slot),
                  PhysOf[SlotProducer[I][Slot]]);
    for (unsigned V : UseVals[I])
      if (--ReadersLeft[V] == 0)
        RegBusy[PhysOf[V]] = 0;
    if (HasDef[I]) {
      unsigned R = 0;
      while (R != K && RegBusy[R])
        ++R;
      if (R == K)
        return Status::error(ErrorCode::Internal, "oracle/materialize",
                             "left-edge renaming ran out of registers on a "
                             "schedule the search admitted");
      RegBusy[R] = 1;
      PhysOf[I] = R;
      Inst.setDef(R);
      MaxReg = std::max(MaxReg, R);
      AnyReg = true;
      if (NumReaders[I] == 0)
        FreeAtCycleEnd.push_back(R);
    }
  }
  unsigned RegsUsed = AnyReg ? MaxReg + 1 : 0;
  Alloc.setNumRegs(RegsUsed);
  Alloc.setAllocated(true);

  // Belt and braces: the allocated code's own schedule graph (with the
  // anti/output edges the renaming introduced) must admit the cycle
  // assignment, and every cycle must fit the machine.
  BlockSchedule BS;
  BS.CycleOf.resize(N);
  for (unsigned P = 0; P != N; ++P)
    BS.CycleOf[P] = BestCycleOf[NewOrder[P]];
  BS.Makespan = Makespan;
  DependenceGraph GA(Alloc, 0, M);
  for (const DepEdge &E : GA.edges())
    if (BS.CycleOf[E.To] < BS.CycleOf[E.From] + E.Latency)
      return Status::error(ErrorCode::Internal, "oracle/materialize",
                           "allocated code rejects the oracle schedule "
                           "(edge " +
                               std::to_string(E.From) + " -> " +
                               std::to_string(E.To) + ")");
  for (unsigned C = 0; C != Makespan; ++C) {
    unsigned Issued = 0;
    unsigned PerUnit[NumUnitKinds] = {};
    for (unsigned P = 0; P != N; ++P)
      if (BS.CycleOf[P] == C) {
        ++Issued;
        ++PerUnit[UnitOf[NewOrder[P]]];
      }
    if (Issued > Width)
      return Status::error(ErrorCode::Internal, "oracle/materialize",
                           "oracle schedule overfills issue width at cycle " +
                               std::to_string(C));
    for (unsigned U = 0; U != NumUnitKinds; ++U)
      if (PerUnit[U] > M.units(static_cast<UnitKind>(U)))
        return Status::error(ErrorCode::Internal, "oracle/materialize",
                             "oracle schedule overfills a unit class at "
                             "cycle " +
                                 std::to_string(C));
  }

  Out.Final = std::move(Alloc);
  Out.SymbolicTwin = std::move(Twin);
  Out.Sched.Blocks.assign(1, BS);
  Out.RegistersUsed = RegsUsed;
  Out.SpilledWebs = 0;
  Out.SpillInstructions = 0;
  Out.StaticCycles = Makespan;
  return Status();
}

Status OracleSearch::run(const OracleOptions &Opts, PipelineResult &Out) {
  if (Status S = prepare(Opts); !S.ok())
    return S;
  {
    telemetry::HistTimer T(OracleSearchNs);
    dfs(/*Cycle=*/0, /*MkSoFar=*/0);
  }
  if (Exhausted) {
    ++NumOracleExhausted;
    return Status::error(
        ErrorCode::SearchExhausted, "oracle/search",
        HitDeadline ? "deadline expired after " + std::to_string(Nodes) +
                          " search nodes; the optimum is unproven"
                    : "node budget (" + std::to_string(NodeBudget) +
                          ") exhausted; the optimum is unproven");
  }
  if (Best == Inf) {
    ++NumOracleInfeasible;
    return Status::error(ErrorCode::AllocFailure, "oracle/search",
                         "exhaustive search proves no spill-free schedule "
                         "of @" +
                             F.name() + " fits in " + std::to_string(K) +
                             " registers on " + M.name());
  }
  ++NumOracleSolved;
  return materialize(Out);
}

} // namespace

Status pira::oracleCompile(const Function &Input, const MachineModel &Machine,
                           const OracleOptions &Opts, PipelineResult &Out) {
  ++NumOracleRuns;
  OracleSearch Search(Input, Machine);
  return Search.run(Opts, Out);
}
