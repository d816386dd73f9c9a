//===- pipeline/Tournament.cpp - Heuristic-gap tournament -----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Tournament.h"

#include "ir/IRBuilder.h"
#include "machine/MachineModel.h"
#include "pipeline/Report.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

using namespace pira;

PIRA_STAT(NumTournamentRuns, "Tournament harness invocations");
PIRA_STAT(NumTournamentCells,
          "Tournament compiles (corpus functions x strategies)");
PIRA_STAT(NumTournamentOracleSolved,
          "Tournament functions where the oracle proved an optimum");
PIRA_STAT(NumTournamentBeatsOracle,
          "Tournament cells where a heuristic beat the oracle (must stay 0)");

namespace {

/// Everything of one (function, strategy) cell the report needs. Plain
/// data so cells can be filled concurrently into pre-sized slots.
struct CellResult {
  bool Success = false;
  std::string FailCode;    ///< errorCodeName of the diagnostic.
  std::string FailMessage; ///< First line of context for the report.
  unsigned Registers = 0;
  unsigned Spills = 0;
  unsigned SpillInstructions = 0;
  unsigned FalseDeps = 0;
  unsigned StaticCycles = 0;
  uint64_t DynCycles = 0;
  bool SemanticsPreserved = false;
};

CellResult summarizeCell(const GuardedResult &G) {
  CellResult C;
  const PipelineResult &R = G.Result;
  C.Success = R.Success;
  if (!R.Success) {
    C.FailCode = errorCodeName(R.Diag.code());
    C.FailMessage = R.Diag.message();
  } else {
    C.Registers = R.RegistersUsed;
    C.Spills = R.SpilledWebs;
    C.SpillInstructions = R.SpillInstructions;
    C.FalseDeps = R.FalseDeps;
    C.StaticCycles = R.StaticCycles;
    C.DynCycles = R.DynCycles;
    C.SemanticsPreserved = R.SemanticsPreserved;
  }
  return C;
}

/// Splitmix-style per-function seed derivation so neighbouring corpus
/// indices land in unrelated xorshift streams.
uint64_t mixSeed(uint64_t Seed, uint64_t Index) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Index + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// Per-strategy running tallies while walking the result grid.
struct Tally {
  uint64_t Compared = 0;    ///< Cells with an oracle optimum to compare to.
  uint64_t Optimal = 0;     ///< Ties the oracle (0 spills, equal cycles).
  uint64_t Suboptimal = 0;  ///< Lexicographically worse than the oracle.
  uint64_t BeatsOracle = 0; ///< Lexicographically better — must stay 0.
  uint64_t Spilled = 0;     ///< Subset of Suboptimal that spilled.
  uint64_t Failures = 0;    ///< Failed cells over the whole corpus.
  uint64_t CycleGap = 0;    ///< Sum of cycle excess over spill-free cells.
  uint64_t MaxCycleGap = 0;
  uint64_t SpillGap = 0;    ///< Spilled webs over compared cells.
  int64_t FalseDepGap = 0;  ///< Signed: heuristics may beat the oracle here.
  uint64_t SpillFree = 0;   ///< Cells entering the cycle/false-dep sums.
};

} // namespace

std::vector<BatchItem> pira::makeTournamentCorpus(unsigned Count,
                                                  unsigned Insts,
                                                  uint64_t Seed,
                                                  TournamentOptions &Opts) {
  Opts.CorpusCount = Count;
  Opts.CorpusInsts = Insts;
  Opts.CorpusSeed = Seed;
  Opts.CorpusSource = "generated";

  std::vector<BatchItem> Corpus;
  Corpus.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    Rng R(mixSeed(Seed, I));
    BatchItem Item;
    Item.Name = "t" + std::to_string(I);
    Item.Input = Function(Item.Name);
    IRBuilder B(Item.Input);
    B.startBlock("entry");

    // Every value gets a fresh symbolic register — the paper's
    // one-register-per-value discipline and, deliberately, the oracle's
    // scope: no symbolic reuse means no anti/output edges, so every
    // corpus function admits an exact baseline.
    std::vector<Reg> Defined;
    unsigned Budget = std::max(3u, Insts); // roots + >=1 body op + ret
    unsigned Roots =
        std::min(Budget - 2, 2 + static_cast<unsigned>(R.nextBelow(3)));
    for (unsigned J = 0; J < Roots; ++J)
      Defined.push_back(B.loadImm(R.nextInRange(-8, 64)));

    static const Opcode IntOps[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                    Opcode::And, Opcode::Or,  Opcode::Xor};
    static const Opcode FpOps[] = {Opcode::FAdd, Opcode::FSub, Opcode::FMul};
    auto pick = [&R, &Defined] {
      return Defined[R.nextBelow(Defined.size())];
    };
    for (unsigned Emitted = Roots; Emitted + 1 < Budget; ++Emitted) {
      unsigned Roll = static_cast<unsigned>(R.nextBelow(100));
      if (Roll < 45) {
        Defined.push_back(
            B.binary(IntOps[R.nextBelow(std::size(IntOps))], pick(), pick()));
      } else if (Roll < 65) {
        Defined.push_back(
            B.binary(FpOps[R.nextBelow(std::size(FpOps))], pick(), pick()));
      } else if (Roll < 75) {
        Defined.push_back(
            B.unary(R.chancePercent(50) ? Opcode::Neg : Opcode::FNeg, pick()));
      } else if (Roll < 83) {
        Defined.push_back(B.fma(pick(), pick(), pick()));
      } else if (Roll < 93) {
        Defined.push_back(B.load("m", NoReg, R.nextInRange(0, 31)));
      } else {
        B.store("m", pick(), NoReg, R.nextInRange(32, 63));
      }
    }
    B.ret(pick());
    Corpus.push_back(std::move(Item));
  }
  return Corpus;
}

json::Value pira::runTournament(const std::vector<BatchItem> &Corpus,
                                const MachineModel &Machine,
                                const TournamentOptions &Opts) {
  PIRA_TIME_SCOPE("tournament/run");
  ++NumTournamentRuns;

  const std::vector<StrategyKind> &Strategies = allStrategies();
  const unsigned K = static_cast<unsigned>(Strategies.size());
  const unsigned N = static_cast<unsigned>(Corpus.size());
  unsigned OracleSlot = 0;
  for (unsigned S = 0; S < K; ++S)
    if (Strategies[S] == StrategyKind::Oracle)
      OracleSlot = S;

  // One guarded compile per (function, strategy), fanned out flat into
  // pre-sized slots — input-order merge, so the grid (and the report
  // built from it) is byte-identical for any Jobs value.
  std::vector<CellResult> Grid(static_cast<size_t>(N) * K);
  parallelFor(N * K, Opts.Jobs, [&](unsigned Flat) {
    unsigned F = Flat / K, S = Flat % K;
    BatchOptions BO;
    BO.Strategy = Strategies[S];
    BO.Oracle = Opts.Oracle;
    BO.Budget = Opts.Budget;
    BO.Seed = Opts.Seed;
    BO.Degrade = false; // a degraded rung would corrupt the comparison
    Grid[Flat] = summarizeCell(
        compileFunctionGuarded(Corpus[F].Input, Machine, BO));
    ++NumTournamentCells;
  });

  // Walk the grid once, building the per-function records and the
  // per-strategy tallies together.
  std::vector<Tally> Tallies(K);
  uint64_t OracleSolved = 0, OracleExhausted = 0, OracleInfeasible = 0,
           OracleFailed = 0;
  json::Value Functions = json::Value::array();
  for (unsigned F = 0; F < N; ++F) {
    const CellResult &O = Grid[static_cast<size_t>(F) * K + OracleSlot];
    const char *OracleStatus;
    if (O.Success) {
      OracleStatus = "optimal";
      ++OracleSolved;
      ++NumTournamentOracleSolved;
    } else if (O.FailCode == errorCodeName(ErrorCode::SearchExhausted)) {
      OracleStatus = "exhausted";
      ++OracleExhausted;
    } else if (O.FailCode == errorCodeName(ErrorCode::AllocFailure)) {
      OracleStatus = "infeasible";
      ++OracleInfeasible;
    } else {
      OracleStatus = "failed";
      ++OracleFailed;
    }

    json::Value FJ = json::Value::object();
    FJ.set("name", Corpus[F].Name);
    unsigned Insts = 0;
    for (unsigned BI = 0; BI < Corpus[F].Input.numBlocks(); ++BI)
      Insts += static_cast<unsigned>(
          Corpus[F].Input.block(BI).instructions().size());
    FJ.set("instructions", Insts);
    json::Value OJ = json::Value::object();
    OJ.set("status", OracleStatus);
    if (O.Success) {
      OJ.set("cycles", O.StaticCycles);
      OJ.set("registers", O.Registers);
      OJ.set("false_deps", O.FalseDeps);
      OJ.set("dyn_cycles", O.DynCycles);
    } else {
      OJ.set("code", O.FailCode);
    }
    FJ.set("oracle", std::move(OJ));

    json::Value Results = json::Value::array();
    for (unsigned S = 0; S < K; ++S) {
      if (S == OracleSlot)
        continue;
      const CellResult &C = Grid[static_cast<size_t>(F) * K + S];
      Tally &T = Tallies[S];
      json::Value RJ = json::Value::object();
      RJ.set("strategy", strategyName(Strategies[S]));
      const char *Verdict;
      if (!C.Success) {
        Verdict = "failed";
        ++T.Failures;
        RJ.set("code", C.FailCode);
      } else {
        RJ.set("registers", C.Registers);
        RJ.set("spills", C.Spills);
        RJ.set("false_deps", C.FalseDeps);
        RJ.set("cycles", C.StaticCycles);
        RJ.set("dyn_cycles", C.DynCycles);
        if (!O.Success) {
          Verdict = "no_baseline";
        } else {
          ++T.Compared;
          // Lexicographic (spills, static cycles): the oracle spills
          // nothing, so any spill is a loss; among spill-free results
          // cycles decide, and the oracle's optimality proof says the
          // heuristic can never come out ahead.
          if (C.Spills > 0) {
            Verdict = "spilled";
            ++T.Suboptimal;
            ++T.Spilled;
            T.SpillGap += C.Spills;
          } else {
            ++T.SpillFree;
            int64_t Gap = static_cast<int64_t>(C.StaticCycles) -
                          static_cast<int64_t>(O.StaticCycles);
            T.FalseDepGap += static_cast<int64_t>(C.FalseDeps) -
                             static_cast<int64_t>(O.FalseDeps);
            if (Gap < 0) {
              Verdict = "beats_oracle";
              ++T.BeatsOracle;
              ++NumTournamentBeatsOracle;
            } else if (Gap == 0) {
              Verdict = "optimal";
              ++T.Optimal;
            } else {
              Verdict = "suboptimal";
              ++T.Suboptimal;
              T.CycleGap += static_cast<uint64_t>(Gap);
              T.MaxCycleGap =
                  std::max(T.MaxCycleGap, static_cast<uint64_t>(Gap));
            }
            RJ.set("cycle_gap", Gap);
          }
        }
      }
      RJ.set("verdict", Verdict);
      Results.push(std::move(RJ));
    }
    FJ.set("results", std::move(Results));
    Functions.push(std::move(FJ));
  }

  json::Value Root = json::Value::object();
  Root.set("schema", TournamentSchemaName);
  Root.set("version", TournamentSchemaVersion);
  Root.set("provenance", buildProvenanceToJson());
  Root.set("machine", machineToJson(Machine));
  json::Value CorpusJ = json::Value::object();
  CorpusJ.set("functions", N);
  CorpusJ.set("instructions_per_block", Opts.CorpusInsts);
  CorpusJ.set("seed", Opts.CorpusSeed);
  CorpusJ.set("source", Opts.CorpusSource);
  Root.set("corpus", std::move(CorpusJ));
  json::Value Names = json::Value::array();
  for (StrategyKind S : Strategies)
    Names.push(json::Value(strategyName(S)));
  Root.set("strategies", std::move(Names));
  json::Value OracleJ = json::Value::object();
  OracleJ.set("solved", OracleSolved);
  OracleJ.set("exhausted", OracleExhausted);
  OracleJ.set("infeasible", OracleInfeasible);
  OracleJ.set("failed", OracleFailed);
  Root.set("oracle", std::move(OracleJ));
  json::Value Aggregate = json::Value::array();
  for (unsigned S = 0; S < K; ++S) {
    if (S == OracleSlot)
      continue;
    const Tally &T = Tallies[S];
    json::Value AJ = json::Value::object();
    AJ.set("strategy", strategyName(Strategies[S]));
    AJ.set("compared", T.Compared);
    AJ.set("optimal", T.Optimal);
    AJ.set("suboptimal", T.Suboptimal);
    AJ.set("beats_oracle", T.BeatsOracle);
    AJ.set("spilled", T.Spilled);
    AJ.set("failures", T.Failures);
    AJ.set("spill_free", T.SpillFree);
    AJ.set("cycle_gap", T.CycleGap);
    AJ.set("max_cycle_gap", T.MaxCycleGap);
    AJ.set("spill_gap", T.SpillGap);
    AJ.set("false_dep_gap", T.FalseDepGap);
    Aggregate.push(std::move(AJ));
  }
  Root.set("aggregate", std::move(Aggregate));
  Root.set("functions", std::move(Functions));
  return Root;
}

void pira::printTournamentSummary(const json::Value &Report,
                                  std::ostream &OS) {
  const json::Value *OracleJ = Report.find("oracle");
  const json::Value *CorpusJ = Report.find("corpus");
  const json::Value *Aggregate = Report.find("aggregate");
  if (OracleJ == nullptr || CorpusJ == nullptr || Aggregate == nullptr ||
      !Aggregate->isArray())
    return;
  auto countOf = [](const json::Value *Obj, const char *Key) -> int64_t {
    const json::Value *V = Obj == nullptr ? nullptr : Obj->find(Key);
    return V != nullptr && V->isInt() ? V->asInt() : 0;
  };
  OS << "tournament: " << countOf(CorpusJ, "functions")
     << " functions; oracle solved " << countOf(OracleJ, "solved")
     << ", exhausted " << countOf(OracleJ, "exhausted") << ", infeasible "
     << countOf(OracleJ, "infeasible") << ", failed "
     << countOf(OracleJ, "failed") << "\n";
  OS << std::left << std::setw(18) << "strategy" << std::right
     << std::setw(9) << "compared" << std::setw(9) << "optimal"
     << std::setw(11) << "suboptimal" << std::setw(9) << "spilled"
     << std::setw(9) << "beats" << std::setw(10) << "cycle+"
     << std::setw(8) << "spill+" << std::setw(9) << "fdep+" << "\n";
  for (const json::Value &Row : Aggregate->elements()) {
    const json::Value *Name = Row.find("strategy");
    OS << std::left << std::setw(18)
       << (Name != nullptr && Name->isString() ? Name->asString() : "?")
       << std::right << std::setw(9) << countOf(&Row, "compared")
       << std::setw(9) << countOf(&Row, "optimal") << std::setw(11)
       << countOf(&Row, "suboptimal") << std::setw(9)
       << countOf(&Row, "spilled") << std::setw(9)
       << countOf(&Row, "beats_oracle") << std::setw(10)
       << countOf(&Row, "cycle_gap") << std::setw(8)
       << countOf(&Row, "spill_gap") << std::setw(9)
       << countOf(&Row, "false_dep_gap") << "\n";
  }
}
