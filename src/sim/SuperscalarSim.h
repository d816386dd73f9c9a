//===- sim/SuperscalarSim.h - Cycle-accurate issue simulator ----*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-order superscalar simulator: it replays a FunctionSchedule cycle
/// by cycle on the MachineModel, enforcing every structural and timing
/// rule — issue width, per-class unit counts, operand latencies (register
/// and memory) — and executing the instruction semantics shared with the
/// sequential interpreter. It is both the measurement device for the
/// benchmarks (dynamic cycles, utilization) and an end-to-end checker:
/// any scheduler or allocator bug surfaces as a resource/latency
/// violation or as final state diverging from the interpreter's.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SIM_SUPERSCALARSIM_H
#define PIRA_SIM_SUPERSCALARSIM_H

#include "ir/Interpreter.h"
#include "ir/Opcode.h"

#include <array>
#include <cstdint>
#include <string>

namespace pira {

class Function;
class MachineModel;
struct FunctionSchedule;

/// Outcome of a simulated run.
struct SimResult {
  bool Completed = false;      ///< Reached Ret within the cycle budget.
  bool HasReturnValue = false;
  int64_t ReturnValue = 0;
  uint64_t Cycles = 0;         ///< Machine cycles consumed.
  uint64_t Instructions = 0;   ///< Instructions retired.
  uint64_t BoundaryStalls = 0; ///< Cycles lost draining latencies at
                               ///< block boundaries.
  std::string Error;           ///< First violation or abnormal stop.
  ExecState Final;             ///< Architectural state at the end.

  /// Instructions issued per functional-unit class (utilization).
  std::array<uint64_t, NumUnitKinds> UnitIssues{};

  /// Instructions per cycle over the whole run.
  double ipc() const {
    return Cycles == 0 ? 0.0
                       : static_cast<double>(Instructions) /
                             static_cast<double>(Cycles);
  }
};

/// Runs \p F under \p Sched on \p Machine starting from \p Initial.
///
/// Every block entry replays that block's cycle groups, laid out once at
/// its first entry. Violations (per-cycle unit/width overflow, operand
/// read before the producer's latency elapsed, memory read before an
/// in-flight store completes, a schedule cycle past the block's
/// makespan) abort the run with a diagnostic in SimResult::Error.
/// Loads and stores address memory by the interpreter's rule
/// (resolveAddress: wrap modulo the array size; an absent or empty
/// array reads zero and drops stores), so a divergence from
/// interpret() is a scheduling or allocation bug, not an addressing
/// one. Polls the armed deadline every 256 block entries and throws
/// deadline::DeadlineExceededError once it has passed.
SimResult simulate(const Function &F, const FunctionSchedule &Sched,
                   const MachineModel &Machine, ExecState Initial,
                   uint64_t MaxCycles = 1u << 22);

} // namespace pira

#endif // PIRA_SIM_SUPERSCALARSIM_H
