//===- ir/Interpreter.h - Sequential reference executor ---------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a function sequentially, one instruction at a time, in program
/// order. This is the semantic ground truth: every allocation and
/// scheduling transformation must leave a program whose execution (arrays
/// and return value) matches the interpreter's result on the original
/// symbolic-register code. The superscalar simulator cross-checks against
/// this.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_IR_INTERPRETER_H
#define PIRA_IR_INTERPRETER_H

#include "ir/Instruction.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pira {

class Function;

/// Architectural state: register file plus named array memory.
struct ExecState {
  std::vector<int64_t> Regs;
  std::map<std::string, std::vector<int64_t>> Arrays;
};

/// Outcome of an interpretation run.
struct ExecResult {
  bool Completed = false;      ///< Reached Ret within the step budget.
  bool HasReturnValue = false; ///< Ret carried a register.
  int64_t ReturnValue = 0;
  uint64_t Steps = 0;          ///< Instructions executed.
  std::string Error;           ///< Non-empty on abnormal stop.
  ExecState Final;             ///< State at the stopping point.
};

/// Builds an initial state for \p F: registers zeroed, every declared
/// array filled with deterministic pseudo-random values from \p Seed.
ExecState makeInitialState(const Function &F, uint64_t Seed);

/// Runs \p F from block 0 on \p Initial for at most \p MaxSteps executed
/// instructions. Addresses wrap modulo the array size so that execution is
/// total (documented behaviour relied on by randomized property tests; see
/// resolveAddress). Integer arithmetic, address arithmetic included, wraps
/// in two's complement; division by zero yields zero, and INT64_MIN / -1
/// yields INT64_MIN. Polls the armed deadline every 4,096 steps and throws
/// deadline::DeadlineExceededError once it has passed.
ExecResult interpret(const Function &F, ExecState Initial,
                     uint64_t MaxSteps = 1u << 20);

/// Applies \p I's semantics to \p Regs (non-control opcodes only). For a
/// load or store, \p Slot is the element resolveAddress found, or null
/// when the array is absent or empty: the load then reads zero and the
/// store is dropped. Exposed so the cycle-accurate simulator shares one
/// semantics definition with the interpreter.
void executeInstruction(const Instruction &I, std::vector<int64_t> &Regs,
                        int64_t *Slot);

/// The address rule both executors share: memory instruction \p I
/// addresses element (imm + index register) of \p Array, reduced modulo
/// its size into [0, size), with the index register read from \p Regs.
/// \returns null when \p Array is null (absent or empty; see ArrayTable).
int64_t *resolveAddress(const Instruction &I, const std::vector<int64_t> &Regs,
                        std::vector<int64_t> *Array);

/// The arrays of one run's state, looked up by interned name. Each name
/// is resolved against ExecState::Arrays once, on first use; later
/// lookups compare symbols by pointer. The state must not gain or lose
/// arrays while the table is in use.
class ArrayTable {
public:
  explicit ArrayTable(ExecState &State) : State(State) {}

  /// Returns the storage of array \p Name, or null when the state has no
  /// such array or it has no elements.
  std::vector<int64_t> *lookup(Symbol Name);

private:
  ExecState &State;
  std::vector<std::pair<Symbol, std::vector<int64_t> *>> Resolved;
};

/// Returns true when two states agree on every array. Register files are
/// deliberately ignored: allocation renames registers, so only memory and
/// the returned value are observable outputs of a function.
bool statesEquivalent(const ExecState &A, const ExecState &B);

} // namespace pira

#endif // PIRA_IR_INTERPRETER_H
