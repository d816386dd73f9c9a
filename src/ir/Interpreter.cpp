//===- ir/Interpreter.cpp - Sequential reference executor -----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"

#include "ir/Function.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <cassert>

using namespace pira;

// Integer arithmetic wraps in two's complement: it is computed on the
// unsigned representation, where overflow is defined, and converted back.
static int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
static int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
static int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
/// Division by zero yields 0, and INT64_MIN / -1 (whose quotient does not
/// fit) wraps to INT64_MIN.
static int64_t wrapDiv(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  if (B == -1)
    return wrapSub(0, A);
  return A / B;
}

ExecState pira::makeInitialState(const Function &F, uint64_t Seed) {
  ExecState State;
  State.Regs.assign(F.numRegs(), 0);
  Rng R(Seed);
  for (const ArrayDecl &A : F.arrays()) {
    std::vector<int64_t> Data(A.Size);
    for (int64_t &V : Data)
      V = R.nextInRange(-1000, 1000);
    State.Arrays[A.Name] = std::move(Data);
  }
  return State;
}

std::vector<int64_t> *ArrayTable::lookup(Symbol Name) {
  for (const auto &[Known, Data] : Resolved)
    if (Known == Name)
      return Data;
  auto It = State.Arrays.find(*Name);
  std::vector<int64_t> *Data =
      It == State.Arrays.end() || It->second.empty() ? nullptr : &It->second;
  Resolved.emplace_back(Name, Data);
  return Data;
}

int64_t *pira::resolveAddress(const Instruction &I,
                              const std::vector<int64_t> &Regs,
                              std::vector<int64_t> *Array) {
  assert(I.isMemory() && "not a memory instruction");
  if (Array == nullptr)
    return nullptr;
  Reg Index = NoReg;
  if (I.opcode() == Opcode::Load)
    Index = I.uses().empty() ? NoReg : I.uses()[0];
  else
    Index = I.uses().size() > 1 ? I.uses()[1] : NoReg;
  int64_t Addr = I.imm();
  if (Index != NoReg)
    Addr = wrapAdd(Addr, Regs[Index]);
  int64_t Size = static_cast<int64_t>(Array->size());
  // An in-range address is its own residue; skip the division.
  if (static_cast<uint64_t>(Addr) >= static_cast<uint64_t>(Size)) {
    Addr %= Size;
    if (Addr < 0)
      Addr += Size;
  }
  return &(*Array)[static_cast<size_t>(Addr)];
}

void pira::executeInstruction(const Instruction &I, std::vector<int64_t> &Regs,
                              int64_t *Slot) {
  auto U = [&](unsigned Idx) -> int64_t {
    assert(Idx < I.uses().size() && "operand index out of range");
    return Regs[I.uses()[Idx]];
  };
  auto SetDef = [&](int64_t V) { Regs[I.def()] = V; };

  switch (I.opcode()) {
  case Opcode::LoadImm:
    SetDef(I.imm());
    break;
  case Opcode::Copy:
    SetDef(U(0));
    break;
  case Opcode::Add:
  case Opcode::FAdd:
    SetDef(wrapAdd(U(0), U(1)));
    break;
  case Opcode::Sub:
  case Opcode::FSub:
    SetDef(wrapSub(U(0), U(1)));
    break;
  case Opcode::Mul:
  case Opcode::FMul:
    SetDef(wrapMul(U(0), U(1)));
    break;
  case Opcode::Div:
  case Opcode::FDiv:
    SetDef(wrapDiv(U(0), U(1)));
    break;
  case Opcode::Neg:
  case Opcode::FNeg:
    SetDef(wrapSub(0, U(0)));
    break;
  case Opcode::And:
    SetDef(U(0) & U(1));
    break;
  case Opcode::Or:
    SetDef(U(0) | U(1));
    break;
  case Opcode::Xor:
    SetDef(U(0) ^ U(1));
    break;
  case Opcode::Shl:
    SetDef(static_cast<int64_t>(static_cast<uint64_t>(U(0)) << (U(1) & 63)));
    break;
  case Opcode::Shr:
    SetDef(U(0) >> (U(1) & 63));
    break;
  case Opcode::CmpEq:
    SetDef(U(0) == U(1) ? 1 : 0);
    break;
  case Opcode::CmpLt:
    SetDef(U(0) < U(1) ? 1 : 0);
    break;
  case Opcode::CmpLe:
    SetDef(U(0) <= U(1) ? 1 : 0);
    break;
  case Opcode::FMA:
    SetDef(wrapAdd(wrapMul(U(0), U(1)), U(2)));
    break;
  case Opcode::Load:
    SetDef(Slot != nullptr ? *Slot : 0);
    break;
  case Opcode::Store:
    if (Slot != nullptr)
      *Slot = U(0);
    break;
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    assert(false && "control opcodes are handled by the interpreter loop");
    break;
  }
}

ExecResult pira::interpret(const Function &F, ExecState Initial,
                           uint64_t MaxSteps) {
  ExecResult Result;
  Result.Final = std::move(Initial);
  ExecState &State = Result.Final;
  if (State.Regs.size() < F.numRegs())
    State.Regs.resize(F.numRegs(), 0);

  if (F.numBlocks() == 0) {
    Result.Error = "function has no blocks";
    return Result;
  }

  ArrayTable Arrays(State);
  unsigned Block = 0;
  unsigned Idx = 0;
  while (Result.Steps < MaxSteps) {
    const BasicBlock &BB = F.block(Block);
    if (Idx >= BB.size()) {
      Result.Error = "fell off the end of block " + BB.name();
      return Result;
    }
    const Instruction &I = BB.inst(Idx);
    if ((++Result.Steps & 4095) == 0)
      deadline::checkpoint();

    const OpcodeInfo &Info = I.info();
    if (!Info.IsTerminator) {
      int64_t *Slot =
          Info.IsMemory
              ? resolveAddress(I, State.Regs, Arrays.lookup(I.arraySymbolId()))
              : nullptr;
      executeInstruction(I, State.Regs, Slot);
      ++Idx;
      continue;
    }
    switch (I.opcode()) {
    case Opcode::Br:
      Block = I.targets()[0];
      Idx = 0;
      break;
    case Opcode::CondBr:
      Block = State.Regs[I.uses()[0]] != 0 ? I.targets()[0] : I.targets()[1];
      Idx = 0;
      break;
    case Opcode::Ret:
      Result.Completed = true;
      if (!I.uses().empty()) {
        Result.HasReturnValue = true;
        Result.ReturnValue = State.Regs[I.uses()[0]];
      }
      return Result;
    default:
      assert(false && "unknown terminator");
      return Result;
    }
  }
  Result.Error = "step budget exhausted";
  return Result;
}

bool pira::statesEquivalent(const ExecState &A, const ExecState &B) {
  return A.Arrays == B.Arrays;
}
