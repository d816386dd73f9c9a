//===- ir/IRBuilder.h - Convenience construction API ------------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A builder that appends instructions to a chosen block of a Function,
/// allocating fresh symbolic registers for results. All workload kernels,
/// examples, and most tests construct programs through this interface.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_IR_IRBUILDER_H
#define PIRA_IR_IRBUILDER_H

#include "ir/Function.h"

#include <cassert>
#include <string>
#include <vector>

namespace pira {

/// Appends instructions to a Function block by block. Value-producing
/// helpers return the fresh symbolic register holding the result.
class IRBuilder {
public:
  /// Builds into \p F. The function starts with no blocks; call startBlock.
  explicit IRBuilder(Function &F) : F(F) {}

  /// Creates a new block named \p Label, makes it current, returns its
  /// index.
  unsigned startBlock(const std::string &Label) {
    Cur = F.addBlock(Label);
    return Cur;
  }

  /// Emits `def = li Imm`.
  Reg loadImm(int64_t Imm) {
    Reg D = F.makeReg();
    append(Instruction(Opcode::LoadImm, D, {}, Imm));
    return D;
  }

  /// Emits `def = copy Src`.
  Reg copy(Reg Src) {
    Reg D = F.makeReg();
    append(Instruction(Opcode::Copy, D, {Src}));
    return D;
  }

  /// Emits a two-operand arithmetic instruction and returns its result.
  Reg binary(Opcode Op, Reg A, Reg B) {
    assert(opcodeInfo(Op).NumUses == 2 && opcodeInfo(Op).HasDef &&
           "not a binary value opcode");
    Reg D = F.makeReg();
    append(Instruction(Op, D, {A, B}));
    return D;
  }

  /// Emits a one-operand arithmetic instruction and returns its result.
  Reg unary(Opcode Op, Reg A) {
    assert(opcodeInfo(Op).NumUses == 1 && opcodeInfo(Op).HasDef &&
           "not a unary value opcode");
    Reg D = F.makeReg();
    append(Instruction(Op, D, {A}));
    return D;
  }

  /// Emits `def = fma A, B, C` (A * B + C).
  Reg fma(Reg A, Reg B, Reg C) {
    Reg D = F.makeReg();
    append(Instruction(Opcode::FMA, D, {A, B, C}));
    return D;
  }

  /// Emits a binary op that redefines an existing register (`Dst = Op A,
  /// B`). This is the paper's sanctioned deviation from one-register-per-
  /// value: loop-carried updates such as induction-variable increments
  /// reuse their register, ideally within the very instruction that last
  /// reads the old value.
  void binaryInto(Reg Dst, Opcode Op, Reg A, Reg B) {
    assert(opcodeInfo(Op).NumUses == 2 && opcodeInfo(Op).HasDef &&
           "not a binary value opcode");
    append(Instruction(Op, Dst, {A, B}));
  }

  /// Emits `Dst = li Imm` into an existing register.
  void loadImmInto(Reg Dst, int64_t Imm) {
    append(Instruction(Opcode::LoadImm, Dst, {}, Imm));
  }

  /// Emits `def = load Array[Index + Offset]`; pass NoReg for a direct
  /// (scalar) address. Declares the array when previously unseen.
  Reg load(const std::string &Array, Reg Index = NoReg, int64_t Offset = 0) {
    Reg D = F.makeReg();
    Instruction I(Opcode::Load, D,
                  Index == NoReg ? std::vector<Reg>{}
                                 : std::vector<Reg>{Index},
                  Offset);
    I.setArraySymbol(Array);
    F.declareArray(Array, defaultArraySize);
    append(std::move(I));
    return D;
  }

  /// Emits `store Array[Index + Offset], Value`.
  void store(const std::string &Array, Reg Value, Reg Index = NoReg,
             int64_t Offset = 0) {
    Instruction I(Opcode::Store, NoReg,
                  Index == NoReg ? std::vector<Reg>{Value}
                                 : std::vector<Reg>{Value, Index},
                  Offset);
    I.setArraySymbol(Array);
    F.declareArray(Array, defaultArraySize);
    append(std::move(I));
  }

  /// Emits `br Target`.
  void br(unsigned Target) {
    Instruction I(Opcode::Br, NoReg, {});
    I.setTargets({Target});
    append(std::move(I));
  }

  /// Emits `cbr Cond, TrueTarget, FalseTarget`.
  void condBr(Reg Cond, unsigned TrueTarget, unsigned FalseTarget) {
    Instruction I(Opcode::CondBr, NoReg, {Cond});
    I.setTargets({TrueTarget, FalseTarget});
    append(std::move(I));
  }

  /// Emits `ret Value` (or a value-less return with NoReg).
  void ret(Reg Value = NoReg) {
    Instruction I(Opcode::Ret, NoReg,
                  Value == NoReg ? std::vector<Reg>{}
                                 : std::vector<Reg>{Value});
    append(std::move(I));
  }

  /// Default element count given to arrays first referenced through the
  /// builder; callers can re-declare for a specific size.
  static constexpr unsigned defaultArraySize = 64;

private:
  void append(Instruction I) {
    assert(Cur != ~0u && "no current block; call startBlock first");
    assert(!F.block(Cur).hasTerminator() &&
           "appending past a block terminator");
    F.block(Cur).append(std::move(I));
  }

  Function &F;
  unsigned Cur = ~0u;
};

} // namespace pira

#endif // PIRA_IR_IRBUILDER_H
