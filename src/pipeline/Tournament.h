//===- pipeline/Tournament.h - Heuristic-gap tournament ---------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heuristic-gap tournament: every strategy compiles every function
/// of a corpus, and a `pira.tournament` v1 JSON report quantifies how
/// far each Section-4 heuristic sits from the exact oracle's joint
/// optimum (ROADMAP item 3; the combinatorial line of arXiv:1804.02452).
///
/// Report semantics — all comparisons are restricted to functions where
/// the oracle *proved* an optimum:
///
///   * spill_gap: total spilled webs of the strategy over those
///     functions (the oracle spills none, so this is the strategy's raw
///     spill count and is trivially >= 0).
///   * cycle_gap: sum of (strategy static cycles - oracle static
///     cycles), counted only where the strategy also spilled nothing —
///     spill code changes the instruction count, making cycle totals
///     incomparable. Each term is provably >= 0: a spill-free heuristic
///     result is itself a point of the oracle's search space.
///   * false_dep_gap: same restriction, signed — the oracle minimizes
///     makespan, not false dependences, so a heuristic may legitimately
///     come out ahead here.
///   * optimal / suboptimal / beats_oracle tallies compare
///     (spills, static cycles) lexicographically; beats_oracle must be
///     0 on every corpus — the differential tests and the CI smoke job
///     assert exactly that.
///
/// Determinism: runs fan out over one parallelFor into pre-sized slots
/// and the report carries no clocks or counters, so it is byte-identical
/// across --jobs widths (pinned by tests/oracle_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PIPELINE_TOURNAMENT_H
#define PIRA_PIPELINE_TOURNAMENT_H

#include "pipeline/Batch.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace pira {

/// Schema constants of the tournament report.
inline constexpr const char *TournamentSchemaName = "pira.tournament";
inline constexpr int TournamentSchemaVersion = 1;

/// Tournament knobs.
struct TournamentOptions {
  /// Job count, as BatchOptions::Jobs: 0 means defaultJobCount(), 1 runs
  /// inline.
  unsigned Jobs = 0;
  /// Seed of the simulation every result runs against the sequential
  /// reference (dynamic cycles + semantics).
  uint64_t Seed = 42;
  OracleOptions Oracle;  ///< The exact strategy's envelope.
  ResourceBudget Budget; ///< Per-run guard budget (deadline included).
  /// Corpus echo for the report (filled by makeTournamentCorpus; callers
  /// supplying their own corpus may leave these 0 / "files").
  unsigned CorpusCount = 0;
  unsigned CorpusInsts = 0;
  uint64_t CorpusSeed = 0;
  std::string CorpusSource = "files";
};

/// Builds the standard tournament corpus: \p Count deterministic
/// single-block functions of roughly \p Insts instructions each, fresh
/// symbolic register per value (so every one is inside the oracle's
/// scope), drawn from \p Seed. Also stamps the corpus echo fields of
/// \p Opts.
std::vector<BatchItem> makeTournamentCorpus(unsigned Count, unsigned Insts,
                                            uint64_t Seed,
                                            TournamentOptions &Opts);

/// Runs every strategy (allStrategies()) on every corpus item, in
/// parallel, and returns the `pira.tournament` v1 report. Individual
/// compile failures (including oracle blowups) become per-function
/// records, never exceptions.
json::Value runTournament(const std::vector<BatchItem> &Corpus,
                          const MachineModel &Machine,
                          const TournamentOptions &Opts);

/// Prints the human-readable aggregate table of \p Report to \p OS.
void printTournamentSummary(const json::Value &Report, std::ostream &OS);

} // namespace pira

#endif // PIRA_PIPELINE_TOURNAMENT_H
