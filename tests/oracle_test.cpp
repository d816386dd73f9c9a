//===- tests/oracle_test.cpp - Exact-oracle and tournament tests ----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The oracle's optimality claim is the ground truth of the heuristic-gap
// tournament, so it gets the strongest checks in the repository:
//
//   * an INDEPENDENT brute-force enumerator (permutations x cycle
//     partitions, none of the oracle's pruning machinery) must agree
//     with the oracle's makespan — and with its infeasibility proofs —
//     on every block small enough to enumerate;
//   * no heuristic may ever beat the oracle on a 200-function corpus
//     (a spill-free heuristic result is a point of the oracle's own
//     search space, so "beaten" means a soundness bug somewhere);
//   * the tournament report is byte-identical across worker counts;
//   * an over-budget oracle degrades down the ladder with a structured
//     search-exhausted diagnostic — in process and out of process —
//     instead of hanging or poisoning the batch.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Oracle.h"
#include "pipeline/Strategies.h"
#include "pipeline/Tournament.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

using namespace pira;

namespace {

constexpr unsigned Inf = std::numeric_limits<unsigned>::max();

//===----------------------------------------------------------------------===//
// Independent brute-force enumerator
//===----------------------------------------------------------------------===//

/// Minimum spill-free makespan of a single-block function by exhaustive
/// enumeration: every topological permutation of the block crossed with
/// every partition of it into consecutive cycles. Deliberately shares no
/// code with the oracle — same cost model (values die at their last
/// reader, dead-born definitions hold their register to the end of their
/// cycle), completely different search. Infeasible -> Inf.
///
/// Completeness: any spill-free schedule, read off in execution order,
/// is one (permutation, partition) pair, and for a fixed pair the
/// earliest-cycle placement computed here is minimal. So the minimum
/// over all pairs is the true optimum.
unsigned bruteForceOptimum(const Function &F, const MachineModel &M) {
  EXPECT_EQ(F.numBlocks(), 1u);
  const BasicBlock &BB = F.block(0);
  const unsigned N = BB.size();
  const unsigned K = M.numPhysRegs();
  const unsigned W = M.issueWidth();
  DependenceGraph G(F, 0, M);

  // Reaching-definition value analysis: a "value" is its defining
  // instruction's index.
  std::vector<std::vector<unsigned>> UseVals(N);
  std::vector<unsigned> NumReaders(N, 0);
  std::vector<char> HasDef(N, 0);
  std::vector<unsigned> UnitOf(N);
  {
    std::vector<unsigned> LastDef(F.numRegs(), Inf);
    for (unsigned I = 0; I != N; ++I) {
      const Instruction &Inst = BB.inst(I);
      UnitOf[I] = static_cast<unsigned>(Inst.unit());
      HasDef[I] = Inst.hasDef();
      for (Reg R : Inst.uses()) {
        EXPECT_NE(LastDef[R], Inf) << "brute force needs defined reads";
        unsigned V = LastDef[R];
        if (std::find(UseVals[I].begin(), UseVals[I].end(), V) ==
            UseVals[I].end()) {
          UseVals[I].push_back(V);
          ++NumReaders[V];
        }
      }
      if (Inst.hasDef())
        LastDef[Inst.def()] = I;
    }
  }

  std::vector<unsigned> Perm(N);
  std::iota(Perm.begin(), Perm.end(), 0);
  std::vector<unsigned> Pos(N), GroupOf(N), CycleOfGroup(N), ReadersLeft(N);
  unsigned BestMk = Inf;
  do {
    for (unsigned P = 0; P != N; ++P)
      Pos[Perm[P]] = P;
    bool Topo = true;
    for (const DepEdge &E : G.edges())
      if (Pos[E.From] > Pos[E.To]) {
        Topo = false;
        break;
      }
    if (!Topo)
      continue;

    // Breaks bit p set = a cycle boundary after position p.
    for (uint32_t Breaks = 0; Breaks < (1u << (N - 1)); ++Breaks) {
      unsigned Gp = 0;
      for (unsigned P = 0; P != N; ++P) {
        GroupOf[P] = Gp;
        if (P + 1 < N && (Breaks >> P & 1))
          ++Gp;
      }
      const unsigned NumGroups = Gp + 1;

      // Machine capacity per cycle.
      bool Feasible = true;
      for (unsigned Gs = 0; Gs != NumGroups && Feasible; ++Gs) {
        unsigned Issued = 0, PerUnit[NumUnitKinds] = {};
        for (unsigned P = 0; P != N; ++P)
          if (GroupOf[P] == Gs) {
            ++Issued;
            ++PerUnit[UnitOf[Perm[P]]];
          }
        if (Issued > W)
          Feasible = false;
        for (unsigned U = 0; U != NumUnitKinds && Feasible; ++U)
          if (PerUnit[U] > M.units(static_cast<UnitKind>(U)))
            Feasible = false;
      }
      if (!Feasible)
        continue;

      // Latency >= 1 edges must cross a cycle boundary.
      for (const DepEdge &E : G.edges())
        if (E.Latency >= 1 && GroupOf[Pos[E.From]] == GroupOf[Pos[E.To]]) {
          Feasible = false;
          break;
        }
      if (!Feasible)
        continue;

      // Earliest cycle per group under the latency constraints.
      for (unsigned Gs = 0; Gs != NumGroups; ++Gs)
        CycleOfGroup[Gs] = Gs == 0 ? 0 : CycleOfGroup[Gs - 1] + 1;
      for (unsigned Gs = 1; Gs != NumGroups; ++Gs) {
        unsigned C = CycleOfGroup[Gs - 1] + 1;
        for (const DepEdge &E : G.edges())
          if (GroupOf[Pos[E.To]] == Gs)
            C = std::max(C, CycleOfGroup[GroupOf[Pos[E.From]]] + E.Latency);
        CycleOfGroup[Gs] = C;
      }
      unsigned Mk = CycleOfGroup[NumGroups - 1] + 1;
      if (Mk >= BestMk)
        continue;

      // Register occupancy along the execution order: a use releases its
      // value at the last remaining reader (reusable later the same
      // cycle), a def takes a register, dead-born defs release at the
      // end of their cycle.
      ReadersLeft = NumReaders;
      unsigned Occ = 0, DeadBornHeld = 0;
      bool RegsOk = true;
      for (unsigned P = 0; P != N && RegsOk; ++P) {
        unsigned I = Perm[P];
        for (unsigned V : UseVals[I])
          if (--ReadersLeft[V] == 0)
            --Occ;
        if (HasDef[I]) {
          ++Occ;
          if (NumReaders[I] == 0)
            ++DeadBornHeld;
          if (Occ > K)
            RegsOk = false;
        }
        bool GroupEnds = P + 1 == N || GroupOf[P + 1] != GroupOf[P];
        if (GroupEnds) {
          Occ -= DeadBornHeld;
          DeadBornHeld = 0;
        }
      }
      if (RegsOk)
        BestMk = Mk;
    }
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return BestMk;
}

/// Small deterministic corpus through the tournament generator.
std::vector<BatchItem> smallCorpus(unsigned Count, unsigned Insts,
                                   uint64_t Seed) {
  TournamentOptions Ignored;
  return makeTournamentCorpus(Count, Insts, Seed, Ignored);
}

/// Fingerprint of an oracle result: body, twin, and cycle assignment.
std::string oracleFingerprint(const PipelineResult &R) {
  std::ostringstream OS;
  printFunction(R.Final, OS);
  printFunction(R.SymbolicTwin, OS);
  for (const BlockSchedule &B : R.Sched.Blocks) {
    OS << B.Makespan << ':';
    for (unsigned C : B.CycleOf)
      OS << ' ' << C;
  }
  return OS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Oracle vs. brute force
//===----------------------------------------------------------------------===//

TEST(OracleBruteForce, MatchesExhaustiveEnumerationOnTinyBlocks) {
  MachineModel Roomy = MachineModel::paperTwoUnit(8);
  // Two registers starve any function that ever holds three values live
  // (three roots, an fma): the corpus must exercise both verdicts.
  MachineModel Tight = MachineModel::paperTwoUnit(2);
  unsigned Solved = 0, Infeasible = 0;
  for (unsigned Insts : {5u, 6u, 7u}) {
    std::vector<BatchItem> Corpus = smallCorpus(8, Insts, 1000 + Insts);
    for (const BatchItem &Item : Corpus)
      for (const MachineModel *M : {&Roomy, &Tight}) {
        unsigned Brute = bruteForceOptimum(Item.Input, *M);
        PipelineResult R =
            runStrategy(StrategyKind::Oracle, Item.Input, *M);
        if (R.Success) {
          ++Solved;
          EXPECT_EQ(R.StaticCycles, Brute)
              << Item.Name << " on " << M->name()
              << ": oracle disagrees with brute force";
        } else {
          ASSERT_EQ(R.Diag.code(), ErrorCode::AllocFailure)
              << Item.Name << " on " << M->name() << ": " << R.Diag.toString();
          ++Infeasible;
          EXPECT_EQ(Brute, Inf)
              << Item.Name << " on " << M->name()
              << ": oracle claims infeasible, brute force found a schedule";
        }
      }
  }
  // The split must exercise both verdicts or the test proves less than
  // it claims.
  EXPECT_GT(Solved, 0u);
  EXPECT_GT(Infeasible, 0u);
}

TEST(OracleBruteForce, MatchesExhaustiveEnumerationAtEightInstructions) {
  MachineModel M = MachineModel::paperTwoUnit(4);
  std::vector<BatchItem> Corpus = smallCorpus(2, 8, 42);
  for (const BatchItem &Item : Corpus) {
    unsigned Brute = bruteForceOptimum(Item.Input, M);
    PipelineResult R = runStrategy(StrategyKind::Oracle, Item.Input, M);
    if (R.Success)
      EXPECT_EQ(R.StaticCycles, Brute) << Item.Name;
    else
      EXPECT_EQ(Brute, Inf) << Item.Name << ": " << R.Diag.toString();
  }
}

TEST(OracleTest, SolvesAndVerifiesASimpleChain) {
  Function F("chain");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.loadImm(1);
  Reg C = B.loadImm(2);
  Reg D = B.binary(Opcode::Add, A, C);
  Reg E = B.binary(Opcode::FMul, A, D);
  B.ret(E);
  PipelineResult R =
      runAndMeasure(StrategyKind::Oracle, F, MachineModel::paperTwoUnit(8));
  ASSERT_TRUE(R.Success) << R.Diag.toString();
  EXPECT_TRUE(R.SemanticsPreserved);
  EXPECT_EQ(R.SpilledWebs, 0u);
  EXPECT_EQ(R.SpillInstructions, 0u);
  // Two loads co-issue, then add -> fmul -> ret serialize on flow
  // latency: 4 cycles is the critical path, and the oracle must find it.
  EXPECT_EQ(R.StaticCycles, 4u);
  // The two live values fit in two registers.
  EXPECT_EQ(R.RegistersUsed, 2u);
}

TEST(OracleTest, ProvesPressureFloorInfeasibility) {
  // One fma reads three simultaneously-live values: with two registers
  // no spill-free schedule exists, whatever the order.
  Function F("floor");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.loadImm(1);
  Reg C = B.loadImm(2);
  Reg D = B.loadImm(3);
  Reg E = B.fma(A, C, D);
  B.ret(E);
  PipelineResult R =
      runStrategy(StrategyKind::Oracle, F, MachineModel::paperTwoUnit(2));
  ASSERT_FALSE(R.Success);
  EXPECT_EQ(R.Diag.code(), ErrorCode::AllocFailure);
  EXPECT_EQ(bruteForceOptimum(F, MachineModel::paperTwoUnit(2)), Inf);
}

TEST(OracleTest, RejectsSymbolicReuseAsOutOfScope) {
  // %s0 is redefined: a renaming allocator could split the webs apart
  // and legally drop the output/anti edges, so the oracle must refuse
  // the optimality claim rather than risk being "beaten".
  Function F("reuse");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.loadImm(1);
  Reg C = B.loadImm(2);
  Reg D = B.binary(Opcode::Add, A, C);
  // Cross-instruction redefinition of %A: the add above must read the
  // old value first (anti edge) and the two defs order (output edge).
  B.binaryInto(A, Opcode::Add, C, C);
  B.ret(D);
  PipelineResult R =
      runStrategy(StrategyKind::Oracle, F, MachineModel::paperTwoUnit(8));
  ASSERT_FALSE(R.Success);
  EXPECT_EQ(R.Diag.code(), ErrorCode::SearchExhausted);
  EXPECT_NE(R.Diag.message().find("reuse"), std::string::npos);
}

TEST(OracleTest, RejectsMultiBlockFunctions) {
  Function F("twoblocks");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.loadImm(1);
  B.br(1);
  B.startBlock("exit");
  B.ret(A);
  PipelineResult R =
      runStrategy(StrategyKind::Oracle, F, MachineModel::paperTwoUnit(8));
  ASSERT_FALSE(R.Success);
  EXPECT_EQ(R.Diag.code(), ErrorCode::SearchExhausted);
}

TEST(OracleTest, DeterministicAcrossRepeatedRuns) {
  MachineModel M = MachineModel::paperTwoUnit(6);
  for (const BatchItem &Item : smallCorpus(5, 12, 7)) {
    PipelineResult First = runStrategy(StrategyKind::Oracle, Item.Input, M);
    PipelineResult Second = runStrategy(StrategyKind::Oracle, Item.Input, M);
    ASSERT_TRUE(First.Success) << Item.Name << ": " << First.Diag.toString();
    ASSERT_TRUE(Second.Success);
    EXPECT_EQ(oracleFingerprint(First), oracleFingerprint(Second))
        << Item.Name;
  }
}

//===----------------------------------------------------------------------===//
// Tournament: optimality over a real corpus, report determinism
//===----------------------------------------------------------------------===//

TEST(TournamentTest, NoHeuristicEverBeatsTheOracle) {
  TournamentOptions Opts;
  std::vector<BatchItem> Corpus = makeTournamentCorpus(200, 12, 7, Opts);
  ASSERT_EQ(Corpus.size(), 200u);
  MachineModel M = MachineModel::paperTwoUnit(8);
  json::Value Report = runTournament(Corpus, M, Opts);

  // The whole generated corpus is inside the oracle's envelope.
  const json::Value *Oracle = Report.find("oracle");
  ASSERT_NE(Oracle, nullptr);
  EXPECT_EQ(Oracle->find("solved")->asInt(), 200);

  // Aggregate tallies: nobody beats the baseline.
  const json::Value *Aggregate = Report.find("aggregate");
  ASSERT_NE(Aggregate, nullptr);
  ASSERT_TRUE(Aggregate->isArray());
  EXPECT_EQ(Aggregate->size(), allStrategies().size() - 1);
  for (const json::Value &Row : Aggregate->elements()) {
    const std::string Name = Row.find("strategy")->asString();
    EXPECT_EQ(Row.find("beats_oracle")->asInt(), 0) << Name;
    EXPECT_GE(Row.find("cycle_gap")->asInt(), 0) << Name;
    EXPECT_GE(Row.find("spill_gap")->asInt(), 0) << Name;
    EXPECT_EQ(Row.find("failures")->asInt(), 0) << Name;
  }

  // Re-derive the invariant from the per-function records rather than
  // trusting the aggregates: every successful spill-free heuristic
  // result costs at least the oracle's proven optimum.
  const json::Value *Functions = Report.find("functions");
  ASSERT_NE(Functions, nullptr);
  ASSERT_EQ(Functions->size(), 200u);
  unsigned CellsChecked = 0;
  for (const json::Value &FJ : Functions->elements()) {
    const json::Value *OJ = FJ.find("oracle");
    ASSERT_EQ(OJ->find("status")->asString(), "optimal");
    int64_t OracleCycles = OJ->find("cycles")->asInt();
    for (const json::Value &RJ : FJ.find("results")->elements()) {
      const json::Value *Spills = RJ.find("spills");
      if (Spills == nullptr || Spills->asInt() != 0)
        continue;
      EXPECT_GE(RJ.find("cycles")->asInt(), OracleCycles)
          << FJ.find("name")->asString() << " / "
          << RJ.find("strategy")->asString();
      EXPECT_EQ(RJ.find("cycle_gap")->asInt(),
                RJ.find("cycles")->asInt() - OracleCycles);
      ++CellsChecked;
    }
  }
  EXPECT_GT(CellsChecked, 600u) << "corpus produced too few comparable cells";
}

TEST(TournamentTest, ReportIsByteIdenticalAcrossWorkerCounts) {
  MachineModel M = MachineModel::paperTwoUnit(8);
  auto reportAt = [&M](unsigned Jobs) {
    telemetry::reset();
    TournamentOptions Opts;
    std::vector<BatchItem> Corpus = makeTournamentCorpus(60, 10, 11, Opts);
    Opts.Jobs = Jobs;
    return runTournament(Corpus, M, Opts).toString(0);
  };
  std::string Serial = reportAt(1);
  std::string Two = reportAt(2);
  std::string Eight = reportAt(8);
  telemetry::reset();
  EXPECT_EQ(Serial, Two) << "2 workers diverged from the serial reference";
  EXPECT_EQ(Serial, Eight) << "8 workers diverged from the serial reference";
}

TEST(TournamentTest, ReportCarriesSchemaAndCorpusEcho) {
  TournamentOptions Opts;
  std::vector<BatchItem> Corpus = makeTournamentCorpus(5, 8, 3, Opts);
  json::Value Report =
      runTournament(Corpus, MachineModel::paperTwoUnit(8), Opts);
  EXPECT_EQ(Report.find("schema")->asString(), TournamentSchemaName);
  EXPECT_EQ(Report.find("version")->asInt(), TournamentSchemaVersion);
  const json::Value *CorpusJ = Report.find("corpus");
  ASSERT_NE(CorpusJ, nullptr);
  EXPECT_EQ(CorpusJ->find("functions")->asInt(), 5);
  EXPECT_EQ(CorpusJ->find("instructions_per_block")->asInt(), 8);
  EXPECT_EQ(CorpusJ->find("seed")->asInt(), 3);
  EXPECT_EQ(CorpusJ->find("source")->asString(), "generated");
  const json::Value *Names = Report.find("strategies");
  ASSERT_NE(Names, nullptr);
  EXPECT_EQ(Names->size(), allStrategies().size());
  EXPECT_EQ(Names->elements().front().asString(), "oracle");
}

namespace {

/// One strategy's row of the tournament summary, as `pirac --tournament`
/// prints it: optimal, suboptimal, spilled (functions), cycle+, spill+
/// (spilled webs) and fdep+.
struct AggregateRow {
  const char *Strategy;
  int64_t Optimal, Suboptimal, Spilled, CycleGap, SpillGap, FalseDepGap;
};

/// Runs the generated tournament corpus of \p Insts instructions per
/// block (200 functions, seed 7, pirac's defaults) on \p M and requires
/// its aggregate rows to equal \p Expected, in order.
void expectAggregateRows(const MachineModel &M, unsigned Insts,
                         const std::vector<AggregateRow> &Expected) {
  TournamentOptions Opts;
  std::vector<BatchItem> Corpus = makeTournamentCorpus(200, Insts, 7, Opts);
  json::Value Report = runTournament(Corpus, M, Opts);
  EXPECT_EQ(Report.find("oracle")->find("solved")->asInt(), 200);
  const json::Value *Aggregate = Report.find("aggregate");
  ASSERT_NE(Aggregate, nullptr);
  ASSERT_EQ(Aggregate->size(), Expected.size());
  for (size_t I = 0; I != Expected.size(); ++I) {
    const json::Value &Row = Aggregate->elements()[I];
    const AggregateRow &E = Expected[I];
    ASSERT_EQ(Row.find("strategy")->asString(), E.Strategy);
    EXPECT_EQ(Row.find("compared")->asInt(), 200) << E.Strategy;
    EXPECT_EQ(Row.find("optimal")->asInt(), E.Optimal) << E.Strategy;
    EXPECT_EQ(Row.find("suboptimal")->asInt(), E.Suboptimal) << E.Strategy;
    EXPECT_EQ(Row.find("spilled")->asInt(), E.Spilled) << E.Strategy;
    EXPECT_EQ(Row.find("beats_oracle")->asInt(), 0) << E.Strategy;
    EXPECT_EQ(Row.find("cycle_gap")->asInt(), E.CycleGap) << E.Strategy;
    EXPECT_EQ(Row.find("spill_gap")->asInt(), E.SpillGap) << E.Strategy;
    EXPECT_EQ(Row.find("false_dep_gap")->asInt(), E.FalseDepGap)
        << E.Strategy;
  }
}

} // namespace

// EXPERIMENTS.md S5's two tables. Each runs `combined` on 200 functions,
// so they also pin the Section 4 allocator's decisions end to end.
TEST(TournamentTest, PaperTwoUnitTableReproduces) {
  expectAggregateRows(MachineModel::paperTwoUnit(), 12,
                      {{"combined", 191, 9, 0, 9, 0, -192},
                       {"goodman-hsu-ips", 114, 86, 0, 100, 0, 205},
                       {"sched-first", 112, 88, 0, 102, 0, 206},
                       {"alloc-first", 44, 156, 0, 260, 0, 205},
                       {"spill-all", 0, 200, 200, 0, 2091, 0}});
}

TEST(TournamentTest, Rs6000TableReproduces) {
  expectAggregateRows(MachineModel::rs6000(), 14,
                      {{"combined", 190, 10, 0, 10, 0, -254},
                       {"goodman-hsu-ips", 104, 96, 0, 120, 0, 249},
                       {"sched-first", 104, 96, 0, 120, 0, 249},
                       {"alloc-first", 26, 174, 0, 386, 0, 274},
                       {"spill-all", 0, 200, 200, 0, 2466, 0}});
}

//===----------------------------------------------------------------------===//
// Negative paths: blowups degrade down the ladder
//===----------------------------------------------------------------------===//

namespace {

/// A wide, very parallel block the oracle cannot finish within a
/// one-node budget (but any heuristic compiles instantly).
Function wideBlock(unsigned Pairs = 8) {
  Function F("wide");
  IRBuilder B(F);
  B.startBlock("entry");
  std::vector<Reg> Vals;
  for (unsigned I = 0; I != Pairs; ++I)
    Vals.push_back(B.loadImm(static_cast<int64_t>(I)));
  Reg Acc = Vals[0];
  for (unsigned I = 1; I != Pairs; ++I)
    Acc = B.binary(Opcode::Add, Acc, Vals[I]);
  B.ret(Acc);
  return F;
}

/// Five independent mixed-unit chains joined by a combine tree, exactly
/// 30 instructions: ~200k search nodes (>100 ms) on the paper machine,
/// so a short real deadline reliably fires the oracle's every-256-nodes
/// poll long before the search completes.
Function hardBlock() {
  Function F("hard");
  IRBuilder B(F);
  B.startBlock("entry");
  std::vector<Reg> Heads;
  for (unsigned C = 0; C != 5; ++C) {
    Reg A = B.loadImm(static_cast<int64_t>(C + 1));
    Reg K = B.loadImm(static_cast<int64_t>(C + 7));
    Reg Cur = B.binary(Opcode::Add, A, K);
    for (unsigned I = 0; I != 2; ++I)
      Cur = B.binary((C + I) % 2 == 0 ? Opcode::FMul : Opcode::Add, Cur, K);
    Heads.push_back(Cur);
  }
  Reg Acc = Heads[0];
  for (unsigned C = 1; C != 5; ++C)
    Acc = B.binary(Opcode::Add, Acc, Heads[C]);
  B.ret(Acc);
  return F;
}

class OracleFaultTest : public testing::Test {
protected:
  void TearDown() override { faultinject::reset(); }
  static void arm(const std::string &Spec) {
    std::string Error;
    ASSERT_TRUE(faultinject::configure(Spec, Error)) << Error;
  }
};

} // namespace

TEST(OracleLadderTest, NodeBudgetExhaustionDegradesToAHeuristic) {
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Oracle;
  Opts.Oracle.NodeBudget = 1;
  GuardedResult G =
      compileFunctionGuarded(wideBlock(), MachineModel::paperTwoUnit(16), Opts);
  ASSERT_TRUE(G.Result.Success) << G.Result.Diag.toString();
  EXPECT_TRUE(G.Outcome.Degraded);
  EXPECT_EQ(G.Outcome.Requested, "oracle");
  EXPECT_EQ(G.Outcome.Used, "alloc-first");
  EXPECT_EQ(G.Outcome.Rung, 1u);
  ASSERT_EQ(G.Outcome.FailedAttempts.size(), 1u);
  EXPECT_EQ(G.Outcome.FailedAttempts[0].Rung, "oracle");
  EXPECT_EQ(G.Outcome.FailedAttempts[0].Diag.code(),
            ErrorCode::SearchExhausted);
  EXPECT_NE(G.Outcome.FailedAttempts[0].Diag.message().find("node budget"),
            std::string::npos);
}

TEST(OracleLadderTest, WithoutDegradationTheFailureIsStructured) {
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Oracle;
  Opts.Oracle.NodeBudget = 1;
  Opts.Degrade = false;
  GuardedResult G =
      compileFunctionGuarded(wideBlock(), MachineModel::paperTwoUnit(16), Opts);
  ASSERT_FALSE(G.Result.Success);
  EXPECT_EQ(G.Result.Diag.code(), ErrorCode::SearchExhausted);
  EXPECT_FALSE(G.Outcome.Degraded);
}

TEST(OracleLadderTest, RealDeadlineMidSearchDegradesToAHeuristic) {
  // A genuinely expiring watchdog, not an injected one: the oracle's
  // cooperative poll must convert the mid-search overrun into the
  // degradable SearchExhausted (the next rung gets a fresh deadline and
  // is orders of magnitude faster), never the ladder-fatal
  // DeadlineExceeded. hardBlock needs >100 ms of search on the machine
  // this was tuned on; the 10 ms budget leaves a >10x margin each way.
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Oracle;
  Opts.Oracle.NodeBudget = 0; // Only the deadline may stop this search.
  Opts.Budget.DeadlineMs = 10;
  GuardedResult G =
      compileFunctionGuarded(hardBlock(), MachineModel::paperTwoUnit(16), Opts);
  ASSERT_TRUE(G.Result.Success) << G.Result.Diag.toString();
  EXPECT_TRUE(G.Outcome.Degraded);
  EXPECT_EQ(G.Outcome.Used, "alloc-first");
  ASSERT_EQ(G.Outcome.FailedAttempts.size(), 1u);
  EXPECT_EQ(G.Outcome.FailedAttempts[0].Rung, "oracle");
  EXPECT_EQ(G.Outcome.FailedAttempts[0].Diag.code(),
            ErrorCode::SearchExhausted);
  EXPECT_NE(G.Outcome.FailedAttempts[0].Diag.message().find("deadline"),
            std::string::npos);
}

TEST_F(OracleFaultTest, InjectedDeadlineFailsFastBeforeTheSearch) {
  // budget.deadline makes deadline::expired() report an overrun at
  // every call, so the strategy prologue's checkpoint fires before the
  // search even starts: an already-blown deadline must fail fast with
  // the ladder-fatal DeadlineExceeded (a retry from the same input
  // would blow it again) — one attempt, no hang, no assert.
  arm("budget.deadline:1");
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Oracle;
  GuardedResult G =
      compileFunctionGuarded(hardBlock(), MachineModel::paperTwoUnit(16), Opts);
  EXPECT_FALSE(G.Result.Success);
  EXPECT_EQ(G.Result.Diag.code(), ErrorCode::DeadlineExceeded);
  ASSERT_EQ(G.Outcome.FailedAttempts.size(), 1u);
  EXPECT_EQ(G.Outcome.FailedAttempts[0].Rung, "oracle");
  EXPECT_EQ(G.Outcome.FailedAttempts[0].Diag.code(),
            ErrorCode::DeadlineExceeded);
}

#ifdef PIRAC_PATH
TEST(OracleIsolationTest, NodeBudgetDegradesUnderProcessIsolation) {
  // Same ladder walk, but every rung runs in a sandboxed pirac child
  // with the wall-clock watchdog armed (far above anything this compile
  // needs, so the path is exercised without timing sensitivity). The
  // search-exhausted diagnostic must survive the wire.
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Oracle;
  Opts.Oracle.NodeBudget = 1;
  Opts.Jobs = 1;
  Opts.Isolate = true;
  Opts.WorkerExe = PIRAC_PATH;
  Opts.RetryBackoffMs = 1;
  Opts.ChildTimeoutMs = 60000;
  std::vector<BatchItem> Batch;
  Batch.push_back({"wide.pir", wideBlock()});
  BatchResult BR =
      compileBatch(Batch, MachineModel::paperTwoUnit(16), Opts);
  ASSERT_EQ(BR.Results.size(), 1u);
  ASSERT_TRUE(BR.Results[0].Success) << BR.Results[0].Diag.toString();
  EXPECT_EQ(BR.Isolated, 1u);
  EXPECT_EQ(BR.Degraded, 1u);
  EXPECT_EQ(BR.Timeouts, 0u);
  EXPECT_EQ(BR.Crashes, 0u);
  const CompileOutcome &O = BR.Outcomes[0];
  EXPECT_TRUE(O.Degraded);
  EXPECT_EQ(O.Used, "alloc-first");
  EXPECT_TRUE(O.Isolation.Isolated);
  // One child per attempted rung: the exhausted oracle, the rescuer.
  EXPECT_GE(O.Isolation.Spawns, 2u);
  ASSERT_EQ(O.FailedAttempts.size(), 1u);
  EXPECT_EQ(O.FailedAttempts[0].Rung, "oracle");
  EXPECT_EQ(O.FailedAttempts[0].Diag.code(), ErrorCode::SearchExhausted);
}
#endif // PIRAC_PATH

//===----------------------------------------------------------------------===//
// Strategy-name table (the list the CLI error message shows)
//===----------------------------------------------------------------------===//

TEST(StrategyNameTest, EveryStrategyRoundTripsThroughItsName) {
  for (StrategyKind Kind : allStrategies()) {
    Expected<StrategyKind> Back = strategyFromName(strategyName(Kind));
    ASSERT_TRUE(Back) << strategyName(Kind);
    EXPECT_EQ(*Back, Kind);
  }
  Expected<StrategyKind> Alias = strategyFromName("ips");
  ASSERT_TRUE(Alias);
  EXPECT_EQ(*Alias, StrategyKind::IntegratedPrepass);
}

TEST(StrategyNameTest, UnknownNameErrorListsEveryStrategy) {
  Expected<StrategyKind> E = strategyFromName("no-such-strategy");
  ASSERT_FALSE(E);
  EXPECT_EQ(E.status().code(), ErrorCode::InvalidArgument);
  const std::string Message = E.status().message();
  // Generated from the same table strategyName reads: every strategy —
  // "spill-all" was historically missing — and the alias must appear.
  for (StrategyKind Kind : allStrategies())
    EXPECT_NE(Message.find(strategyName(Kind)), std::string::npos)
        << "error message omits " << strategyName(Kind) << ": " << Message;
  EXPECT_NE(Message.find("spill-all"), std::string::npos) << Message;
  EXPECT_NE(Message.find("ips"), std::string::npos) << Message;
}
