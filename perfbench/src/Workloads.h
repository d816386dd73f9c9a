//===- perfbench/src/Workloads.h - Benchmark workloads ----------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads. A workload is a list of passes; pass N is a
/// pure function of (workload, seed, N), so the same seed always yields
/// the same inputs. A cell is one (function, machine, strategy) compile.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PERFBENCH_WORKLOADS_H
#define PIRA_PERFBENCH_WORKLOADS_H

#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pira {
namespace perfbench {

/// One compile of the closed loop.
struct Cell {
  std::string Program;          ///< Label of the input function.
  std::string Name;             ///< Program/machine/strategy; in the digest.
  const Function *Input = nullptr;
  const MachineModel *Machine = nullptr;
  StrategyKind Strategy = StrategyKind::Combined;
  uint64_t SimSeed = 0;         ///< Initial array contents for measuring.
};

/// One pass over a workload. Owns its input functions; cells point into
/// them and into the workload's machines.
struct Pass {
  std::vector<std::unique_ptr<Function>> Programs;
  std::vector<Cell> Cells;
};

/// A workload with its machines built (the machines are part of
/// set-up, so each Workload instance builds its own).
class Workload {
public:
  /// Returns nullptr for an unknown name. \p Smoke shrinks every input to
  /// a few instructions.
  static std::unique_ptr<Workload> create(const std::string &Name,
                                          uint64_t Seed, bool Smoke);

  /// Names accepted by create(), in documentation order.
  static const std::vector<std::string> &names();

  /// Passes whose outputs feed the quality metrics and the digest. Every
  /// run completes at least this many.
  unsigned qualityPasses() const { return QualityPasses; }

  /// Builds pass \p Index.
  Pass makePass(unsigned Index) const;

  /// A few small cells covering every (machine, strategy) pair the
  /// workload uses, compiled before timing starts.
  Pass makeWarmup() const;

  /// True for the kernel suite, whose first pass must reproduce the
  /// EXPERIMENTS S1 geomean ratios.
  bool checksS1() const { return Ladder.empty(); }

private:
  Workload() = default;
  void addCell(Pass &P, unsigned Index, const std::string &Label,
               const Function &F, const MachineModel &M, StrategyKind S) const;

  uint64_t Seed = 0;
  unsigned QualityPasses = 1;
  std::vector<MachineModel> Machines;
  std::vector<StrategyKind> Strategies;
  /// InstructionsPerBlock of each random program in a pass; empty selects
  /// the standard kernel suite.
  std::vector<unsigned> Ladder;
  std::vector<std::pair<std::string, Function>> Kernels;
};

} // namespace perfbench
} // namespace pira

#endif // PIRA_PERFBENCH_WORKLOADS_H
