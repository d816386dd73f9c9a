//===- ir/Instruction.h - Register-based IR instruction ---------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One three-address instruction over symbolic or physical registers. The
/// same representation is used before allocation (symbolic registers, one
/// per value) and after (physical registers), matching the paper's setup in
/// which allocation is a renaming of register operands.
///
/// The layout is data-oriented: operand lists use inline small-vector
/// storage (no instruction in the shipped workloads exceeds three uses or
/// two branch targets, so the common case never touches the heap) and the
/// array name of a memory operand is an interned Symbol — one word, pointer
/// comparison for equality. A block's instruction vector is therefore one
/// flat contiguous buffer, which is what the per-block dependence and
/// closure passes iterate over.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_IR_INSTRUCTION_H
#define PIRA_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "support/SmallVector.h"
#include "support/StringInterner.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace pira {

/// Register number. Whether it denotes a symbolic or a physical register is
/// a property of the enclosing Function.
using Reg = unsigned;

/// Sentinel meaning "no register".
inline constexpr Reg NoReg = ~0u;

/// Inline-capacity operand list: covers every opcode's maximum use count.
using UseList = SmallVector<Reg, 3>;

/// Inline-capacity branch-target list: covers conditional branches.
using TargetList = SmallVector<unsigned, 2>;

/// One IR instruction.
///
/// Memory operands address a named array with an optional index register
/// plus a constant offset: `load %d, A[%i + 4]`. A branch stores its target
/// block indices in Targets.
class Instruction {
public:
  Instruction() = default;

  /// Builds an instruction from parts; prefer the IRBuilder helpers.
  Instruction(Opcode Op, Reg Def, UseList Uses, int64_t Imm = 0)
      : Op(Op), Def(Def), Uses(std::move(Uses)), Imm(Imm) {}

  /// Returns the opcode.
  Opcode opcode() const { return Op; }

  /// Returns static metadata for the opcode.
  const OpcodeInfo &info() const { return opcodeInfo(Op); }

  /// Returns the defined register, or NoReg when the opcode defines none.
  Reg def() const { return Def; }

  /// Replaces the defined register.
  void setDef(Reg R) {
    assert(info().HasDef && "opcode has no def");
    Def = R;
  }

  /// Returns the register operands read by the instruction. For Load this
  /// is the optional index register; for Store, the stored value first and
  /// then the optional index register.
  const UseList &uses() const { return Uses; }

  /// Replaces use operand \p Idx.
  void setUse(unsigned Idx, Reg R) {
    assert(Idx < Uses.size() && "use index out of range");
    Uses[Idx] = R;
  }

  /// Returns the immediate (constant for LoadImm, address offset for
  /// memory ops, zero otherwise).
  int64_t imm() const { return Imm; }

  /// Sets the immediate.
  void setImm(int64_t V) { Imm = V; }

  /// Returns the addressed array name (memory ops only).
  const std::string &arraySymbol() const {
    assert(info().IsMemory && "not a memory instruction");
    return *Array;
  }

  /// Returns the interned array name for pointer-equality comparison.
  /// Equal symbols are the same pointer.
  Symbol arraySymbolId() const {
    assert(info().IsMemory && "not a memory instruction");
    return Array;
  }

  /// Sets the addressed array name (interned).
  void setArraySymbol(const std::string &Name) { Array = internString(Name); }

  /// Returns branch target block indices (terminators only).
  const TargetList &targets() const { return Targets; }

  /// Sets branch target block indices.
  void setTargets(TargetList Blocks) { Targets = std::move(Blocks); }

  /// Returns true if this instruction ends a basic block.
  bool isTerminator() const { return info().IsTerminator; }

  /// Returns true for loads and stores.
  bool isMemory() const { return info().IsMemory; }

  /// Returns true if the instruction writes a register.
  bool hasDef() const { return info().HasDef; }

  /// Returns the functional-unit class executing this instruction.
  UnitKind unit() const { return info().Unit; }

private:
  Opcode Op = Opcode::Ret;
  Reg Def = NoReg;
  UseList Uses;
  int64_t Imm = 0;
  Symbol Array = emptySymbol();
  TargetList Targets;
};

} // namespace pira

#endif // PIRA_IR_INSTRUCTION_H
