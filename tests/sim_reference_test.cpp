//===- tests/sim_reference_test.cpp - Executor differential oracle --------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The superscalar simulator, which replays per-block plans built at a
// block's first entry, drains memory with a running store maximum and
// checks loads against a window of in-flight stores, and the
// interpreter, which resolves each array once per run, checked against
// the forms they replaced, kept here verbatim in namespace ref (but for
// the simulator's telemetry): groupsByCycle at every block entry, a
// scoreboard map holding every memory slot ever stored, and a
// string-keyed array lookup at every load and store. Every SimResult
// field (completion, return value, cycles, instructions, boundary
// stalls, unit issues, error text, final registers and arrays) and every
// ExecResult field (steps included) must agree. The inputs cover the
// kernels under four strategies on four machines, every CFG shape, the
// store loop at several sizes, a machine with slow stores, and
// hand-built schedules for every diagnostic and addressing corner.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "ir/Interpreter.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "sched/Schedule.h"
#include "sim/SuperscalarSim.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <array>
#include <cassert>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace pira;

namespace {

namespace ref {

// Integer arithmetic wraps in two's complement: it is computed on the
// unsigned representation, where overflow is defined, and converted back.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
/// Division by zero yields 0, and INT64_MIN / -1 (whose quotient does not
/// fit) wraps to INT64_MIN.
int64_t wrapDiv(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  if (B == -1)
    return wrapSub(0, A);
  return A / B;
}

bool resolveAddress(const Instruction &I, const ExecState &State,
                    std::string &Array, size_t &Slot) {
  assert(I.isMemory() && "not a memory instruction");
  auto It = State.Arrays.find(I.arraySymbol());
  if (It == State.Arrays.end() || It->second.empty())
    return false;
  Reg Index = NoReg;
  if (I.opcode() == Opcode::Load)
    Index = I.uses().empty() ? NoReg : I.uses()[0];
  else
    Index = I.uses().size() > 1 ? I.uses()[1] : NoReg;
  int64_t Addr = I.imm();
  if (Index != NoReg)
    Addr = wrapAdd(Addr, State.Regs[Index]);
  int64_t Size = static_cast<int64_t>(It->second.size());
  Addr %= Size;
  if (Addr < 0)
    Addr += Size;
  Array = I.arraySymbol();
  Slot = static_cast<size_t>(Addr);
  return true;
}

/// Resolves a memory operand to an element slot, wrapping modulo the array
/// size so execution is total.
int64_t *addressSlot(const Instruction &I, ExecState &State) {
  std::string Array;
  size_t Slot = 0;
  if (!resolveAddress(I, State, Array, Slot))
    return nullptr;
  return &State.Arrays[Array][Slot];
}

void executeInstruction(const Instruction &I, const Function &F,
                        ExecState &State) {
  (void)F;
  auto U = [&](unsigned Idx) -> int64_t {
    assert(Idx < I.uses().size() && "operand index out of range");
    return State.Regs[I.uses()[Idx]];
  };
  auto SetDef = [&](int64_t V) { State.Regs[I.def()] = V; };

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
  case Opcode::Load: {
    int64_t *Slot = addressSlot(I, State);
    SetDef(Slot != nullptr ? *Slot : 0);
    break;
  }
  case Opcode::Store: {
    if (int64_t *Slot = addressSlot(I, State))
      *Slot = U(0);
    break;
  }
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    assert(false && "control opcodes are handled by the interpreter loop");
    break;
  }
}

ExecResult interpret(const Function &F, ExecState Initial,
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

  unsigned Block = 0;
  unsigned Idx = 0;
  while (Result.Steps < MaxSteps) {
    const BasicBlock &BB = F.block(Block);
    if (Idx >= BB.size()) {
      Result.Error = "fell off the end of block " + BB.name();
      return Result;
    }
    const Instruction &I = BB.inst(Idx);
    ++Result.Steps;

    if (!I.isTerminator()) {
      executeInstruction(I, F, State);
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

/// Tracks when each register and memory slot becomes readable.
struct Scoreboard {
  std::vector<uint64_t> RegReadyAt;
  std::map<std::pair<std::string, size_t>, uint64_t> MemReadyAt;
};

/// Formats "block L, inst I: message".
std::string diag(const Function &F, unsigned Block, unsigned Inst,
                 const std::string &Msg) {
  std::ostringstream OS;
  OS << "block " << F.block(Block).name() << ", inst " << Inst << ": "
     << Msg;
  return OS.str();
}

SimResult simulate(const Function &F, const FunctionSchedule &Sched,
                   const MachineModel &Machine, ExecState Initial,
                   uint64_t MaxCycles) {
  SimResult R;
  R.Final = std::move(Initial);
  ExecState &State = R.Final;
  if (State.Regs.size() < F.numRegs())
    State.Regs.resize(F.numRegs(), 0);

  if (F.numBlocks() == 0 || Sched.Blocks.size() != F.numBlocks()) {
    R.Error = "schedule does not cover the function";
    return R;
  }

  Scoreboard Board;
  Board.RegReadyAt.assign(F.numRegs(), 0);

  unsigned Block = 0;
  while (R.Cycles < MaxCycles) {
    const BasicBlock &BB = F.block(Block);
    const BlockSchedule &BS = Sched.Blocks[Block];
    if (BS.CycleOf.size() != BB.size()) {
      R.Error = diag(F, Block, 0, "schedule does not match block size");
      return R;
    }
    std::vector<std::vector<unsigned>> Groups = BS.groupsByCycle();
    // Block schedules assume every operand is ready on entry; the
    // machine stalls at the boundary until in-flight results (register
    // and memory) drain. Intra-block hazards below remain hard errors —
    // they indicate scheduler bugs, not boundary effects.
    uint64_t Base = R.Cycles;
    for (uint64_t Ready : Board.RegReadyAt)
      Base = std::max(Base, Ready);
    for (const auto &[Slot, Ready] : Board.MemReadyAt)
      Base = std::max(Base, Ready);
    R.BoundaryStalls += Base - R.Cycles;
    int NextBlock = -1;

    for (unsigned C = 0, CE = BS.Makespan; C != CE; ++C) {
      uint64_t Abs = Base + C;
      // Structural legality of the cycle.
      unsigned Width = 0;
      std::array<unsigned, NumUnitKinds> PerUnit{};
      for (unsigned I : Groups[C]) {
        ++Width;
        ++PerUnit[static_cast<unsigned>(BB.inst(I).unit())];
      }
      if (Width > Machine.issueWidth()) {
        R.Error = diag(F, Block, Groups[C].empty() ? 0 : Groups[C][0],
                       "issue width exceeded");
        return R;
      }
      for (unsigned K = 0; K != NumUnitKinds; ++K)
        if (PerUnit[K] > Machine.units(static_cast<UnitKind>(K))) {
          R.Error = diag(F, Block, Groups[C].empty() ? 0 : Groups[C][0],
                         std::string("unit overcommitted: ") +
                             unitKindName(static_cast<UnitKind>(K)));
          return R;
        }

      // Execute the group in program order (reads-before-writes across
      // anti dependences is preserved because an anti edge always points
      // from the earlier instruction to the later one).
      for (unsigned I : Groups[C]) {
        const Instruction &Inst = BB.inst(I);
        for (Reg U : Inst.uses())
          if (Board.RegReadyAt[U] > Abs) {
            R.Error =
                diag(F, Block, I, "register operand read before ready");
            return R;
          }
        std::string Array;
        size_t Slot = 0;
        bool HasAddr = Inst.isMemory() &&
                       resolveAddress(Inst, State, Array, Slot);
        if (HasAddr && Inst.opcode() == Opcode::Load) {
          auto It = Board.MemReadyAt.find({Array, Slot});
          if (It != Board.MemReadyAt.end() && It->second > Abs) {
            R.Error = diag(F, Block, I, "memory read before store ready");
            return R;
          }
        }

        ++R.Instructions;
        ++R.UnitIssues[static_cast<unsigned>(Inst.unit())];

        if (Inst.isTerminator()) {
          switch (Inst.opcode()) {
          case Opcode::Br:
            NextBlock = static_cast<int>(Inst.targets()[0]);
            break;
          case Opcode::CondBr:
            NextBlock = static_cast<int>(State.Regs[Inst.uses()[0]] != 0
                                             ? Inst.targets()[0]
                                             : Inst.targets()[1]);
            break;
          case Opcode::Ret:
            R.Completed = true;
            if (!Inst.uses().empty()) {
              R.HasReturnValue = true;
              R.ReturnValue = State.Regs[Inst.uses()[0]];
            }
            break;
          default:
            R.Error = diag(F, Block, I, "unknown terminator");
            return R;
          }
          continue;
        }

        executeInstruction(Inst, F, State);
        if (Inst.hasDef())
          Board.RegReadyAt[Inst.def()] =
              Abs + Machine.latency(Inst.opcode());
        if (HasAddr && Inst.opcode() == Opcode::Store)
          Board.MemReadyAt[{Array, Slot}] =
              Abs + Machine.latency(Opcode::Store);
      }
    }

    R.Cycles = Base + BS.Makespan;
    if (R.Completed)
      return R;
    if (NextBlock < 0) {
      R.Error = diag(F, Block, BB.size() ? BB.size() - 1 : 0,
                     "block ended without a branch decision");
      return R;
    }
    Block = static_cast<unsigned>(NextBlock);
  }
  R.Error = "cycle budget exhausted";
  return R;
}

} // namespace ref

/// The simulator's initial state for \p Final as runAndMeasure builds it:
/// the arrays of \p Input's initial state from \p Seed, spill memory
/// zeroed.
ExecState simInitialState(const Function &Input, const Function &Final,
                          uint64_t Seed) {
  ExecState Initial = makeInitialState(Input, Seed);
  ExecState SimInitial = makeInitialState(Final, Seed);
  for (auto &[Name, Data] : SimInitial.Arrays) {
    auto It = Initial.Arrays.find(Name);
    if (It != Initial.Arrays.end())
      Data = It->second;
    else
      Data.assign(Data.size(), 0);
  }
  return SimInitial;
}

/// Runs both simulators on \p F under \p S from \p Init and expects every
/// field to agree. \returns the reference's result.
SimResult checkSimulate(const Function &F, const FunctionSchedule &S,
                        const MachineModel &M, const ExecState &Init,
                        const std::string &What,
                        uint64_t MaxCycles = 1u << 22) {
  SimResult Want = ref::simulate(F, S, M, Init, MaxCycles);
  SimResult Got = simulate(F, S, M, Init, MaxCycles);
  EXPECT_EQ(Want.Completed, Got.Completed) << What;
  EXPECT_EQ(Want.HasReturnValue, Got.HasReturnValue) << What;
  EXPECT_EQ(Want.ReturnValue, Got.ReturnValue) << What;
  EXPECT_EQ(Want.Cycles, Got.Cycles) << What;
  EXPECT_EQ(Want.Instructions, Got.Instructions) << What;
  EXPECT_EQ(Want.BoundaryStalls, Got.BoundaryStalls) << What;
  EXPECT_EQ(Want.UnitIssues, Got.UnitIssues) << What;
  EXPECT_EQ(Want.Error, Got.Error) << What;
  EXPECT_EQ(Want.Final.Regs, Got.Final.Regs) << What;
  EXPECT_TRUE(Want.Final.Arrays == Got.Final.Arrays) << What;
  return Want;
}

/// Runs both interpreters on \p F from \p Init and expects every field
/// to agree. \returns the reference's result.
ExecResult checkInterpret(const Function &F, const ExecState &Init,
                          const std::string &What,
                          uint64_t MaxSteps = 1u << 20) {
  ExecResult Want = ref::interpret(F, Init, MaxSteps);
  ExecResult Got = interpret(F, Init, MaxSteps);
  EXPECT_EQ(Want.Completed, Got.Completed) << What;
  EXPECT_EQ(Want.HasReturnValue, Got.HasReturnValue) << What;
  EXPECT_EQ(Want.ReturnValue, Got.ReturnValue) << What;
  EXPECT_EQ(Want.Steps, Got.Steps) << What;
  EXPECT_EQ(Want.Error, Got.Error) << What;
  EXPECT_EQ(Want.Final.Regs, Got.Final.Regs) << What;
  EXPECT_TRUE(Want.Final.Arrays == Got.Final.Arrays) << What;
  return Want;
}

/// Checks one compile the way runAndMeasure measures it: both
/// interpreters on the input and on the final code, both simulators on
/// the final code and its schedule, and runAndMeasure itself, whose
/// initial state must give the reference's counts. \returns the
/// reference simulation.
SimResult checkCompile(const Function &Input, StrategyKind Kind,
                       const MachineModel &M, uint64_t Seed,
                       const std::string &What) {
  PipelineResult R = runStrategy(Kind, Input, M);
  EXPECT_TRUE(R.Success) << What << ": " << R.Error;
  if (!R.Success)
    return SimResult();
  checkInterpret(Input, makeInitialState(Input, Seed), What + " (input)");
  ExecState Init = simInitialState(Input, R.Final, Seed);
  checkInterpret(R.Final, Init, What + " (final code)");
  SimResult Want = checkSimulate(R.Final, R.Sched, M, Init, What);
  EXPECT_TRUE(Want.Completed) << What << ": " << Want.Error;
  PipelineResult Measured = runAndMeasure(Kind, Input, M, {}, Seed);
  EXPECT_TRUE(Measured.SemanticsPreserved) << What << ": " << Measured.Error;
  EXPECT_EQ(Measured.DynCycles, Want.Cycles) << What;
  EXPECT_EQ(Measured.DynInstructions, Want.Instructions) << What;
  return Want;
}

const StrategyKind Strategies[] = {
    StrategyKind::AllocFirst, StrategyKind::SchedFirst,
    StrategyKind::IntegratedPrepass, StrategyKind::Combined};

/// rs6000 with stores that take three cycles to land, so stores drain
/// at block boundaries and a load can trail a store by two cycles.
MachineModel slowStoreMachine(unsigned Regs) {
  MachineModel M = MachineModel::rs6000(Regs);
  M.setLatency(Opcode::Store, 3);
  return M;
}

// Hand-built code: allocated functions whose schedules are written out.

Instruction memOp(Opcode Op, Reg Def, UseList Uses, int64_t Offset,
                  const char *Array) {
  Instruction I(Op, Def, std::move(Uses), Offset);
  I.setArraySymbol(Array);
  return I;
}

Instruction li(Reg Def, int64_t Value) {
  return Instruction(Opcode::LoadImm, Def, {}, Value);
}

Instruction br(unsigned Target) {
  Instruction I(Opcode::Br, NoReg, {});
  I.setTargets({Target});
  return I;
}

Instruction cbr(Reg Cond, unsigned Taken, unsigned NotTaken) {
  Instruction I(Opcode::CondBr, NoReg, {Cond});
  I.setTargets({Taken, NotTaken});
  return I;
}

Instruction ret(Reg Value = NoReg) {
  return Value == NoReg ? Instruction(Opcode::Ret, NoReg, {})
                        : Instruction(Opcode::Ret, NoReg, {Value});
}

/// An allocated function over \p Regs registers with one array "a" of
/// \p Size elements; blocks are appended by the caller.
Function handBuilt(unsigned Regs, unsigned Size = 8) {
  Function F("hand");
  F.setNumRegs(Regs);
  F.setAllocated(true);
  F.declareArray("a", Size);
  return F;
}

/// A schedule from per-block (cycle of each instruction, makespan).
FunctionSchedule scheduleOf(
    std::vector<std::pair<std::vector<unsigned>, unsigned>> Blocks) {
  FunctionSchedule S;
  for (auto &[CycleOf, Makespan] : Blocks) {
    BlockSchedule BS;
    BS.CycleOf = std::move(CycleOf);
    BS.Makespan = Makespan;
    S.Blocks.push_back(std::move(BS));
  }
  return S;
}

/// Both simulators and both interpreters on a hand-built case.
SimResult checkHandBuilt(const Function &F, const FunctionSchedule &S,
                         const MachineModel &M, const std::string &What,
                         uint64_t MaxCycles = 1u << 22) {
  ExecState Init = makeInitialState(F, 5);
  checkInterpret(F, Init, What);
  return checkSimulate(F, S, M, Init, What, MaxCycles);
}

} // namespace

TEST(SimReference, MatchesOnEveryKernelStrategyAndMachine) {
  const MachineModel Machines[] = {
      MachineModel::paperTwoUnit(6), MachineModel::rs6000(6),
      MachineModel::vliw4(6), MachineModel::scalar(6)};
  unsigned Checked = 0;
  for (const auto &[Name, Kernel] : standardKernelSuite())
    for (const MachineModel &M : Machines)
      for (StrategyKind Kind : Strategies) {
        checkCompile(Kernel, Kind, M, 1,
                     Name + " " + strategyName(Kind) + " on " + M.name());
        ++Checked;
      }
  EXPECT_EQ(Checked, 16u * 4u * 4u);
}

TEST(SimReference, MatchesOnEveryShape) {
  const CfgShape Shapes[] = {CfgShape::Straight, CfgShape::Diamond,
                             CfgShape::Loop, CfgShape::NestedDiamond,
                             CfgShape::DoubleLoop};
  const MachineModel Machines[] = {MachineModel::rs6000(8),
                                   MachineModel::vliw4(6),
                                   slowStoreMachine(8)};
  for (CfgShape Shape : Shapes)
    for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
      RandomProgramOptions Opts;
      Opts.Shape = Shape;
      Opts.Seed = Seed;
      Opts.InstructionsPerBlock = 12 + 4 * static_cast<unsigned>(Seed);
      Function F = generateRandomProgram(Opts);
      for (const MachineModel &M : Machines)
        for (StrategyKind Kind :
             {StrategyKind::AllocFirst, StrategyKind::Combined})
          checkCompile(F, Kind, M, Seed,
                       "shape " + std::to_string(static_cast<int>(Shape)) +
                           " seed " + std::to_string(Seed) + " " +
                           strategyName(Kind) + " on " + M.name());
    }
}

TEST(SimReference, MatchesOnStoreLoops) {
  const MachineModel Machines[] = {MachineModel::rs6000(8),
                                   MachineModel::paperTwoUnit(8),
                                   MachineModel::scalar(8),
                                   slowStoreMachine(8)};
  for (unsigned Slots : {1u, 7u, 64u, 1000u})
    for (const MachineModel &M : Machines)
      for (StrategyKind Kind : Strategies) {
        std::string What = "store loop " + std::to_string(Slots) + " " +
                           strategyName(Kind) + " on " + M.name();
        SimResult Want = checkCompile(storeLoop(Slots), Kind, M, 3, What);
        EXPECT_EQ(Want.ReturnValue, static_cast<int64_t>(Slots)) << What;
      }
}

TEST(SimReference, MatchesOnEveryDiagnostic) {
  MachineModel Scalar = MachineModel::scalar(8);
  MachineModel Rs = MachineModel::rs6000(8);
  MachineModel Two = MachineModel::paperTwoUnit(8);

  // Issue width: two moves in one cycle of a single-issue machine.
  Function Width = handBuilt(2);
  Width.addBlock("e");
  Width.block(0).append(li(0, 1));
  Width.block(0).append(li(1, 2));
  Width.block(0).append(ret(1));
  SimResult R = checkHandBuilt(Width, scheduleOf({{{0, 0, 1}, 2}}), Scalar,
                               "issue width");
  EXPECT_NE(R.Error.find("issue width exceeded"), std::string::npos);

  // Unit overcommit: two ALU ops on the paper machine's one ALU.
  Function Unit = handBuilt(4);
  Unit.addBlock("e");
  Unit.block(0).append(li(0, 1));
  Unit.block(0).append(li(1, 2));
  Unit.block(0).append(Instruction(Opcode::Add, 2, {0, 0}));
  Unit.block(0).append(Instruction(Opcode::Sub, 3, {1, 1}));
  Unit.block(0).append(ret(2));
  R = checkHandBuilt(Unit, scheduleOf({{{0, 0, 1, 1, 2}, 3}}), Two,
                     "unit overcommit");
  EXPECT_EQ(R.Error, "block e, inst 2: unit overcommitted: fixed");

  // Register read one cycle into a two-cycle load.
  Function Early = handBuilt(2);
  Early.addBlock("e");
  Early.block(0).append(memOp(Opcode::Load, 0, {}, 0, "a"));
  Early.block(0).append(Instruction(Opcode::Add, 1, {0, 0}));
  Early.block(0).append(ret(1));
  R = checkHandBuilt(Early, scheduleOf({{{0, 1, 2}, 3}}), Rs,
                     "register before ready");
  EXPECT_NE(R.Error.find("register operand read before ready"),
            std::string::npos);

  // No branch decision: a block without a terminator, and an empty one.
  Function NoBranch = handBuilt(1);
  NoBranch.addBlock("e");
  NoBranch.block(0).append(li(0, 1));
  R = checkHandBuilt(NoBranch, scheduleOf({{{0}, 1}}), Rs, "no branch");
  EXPECT_NE(R.Error.find("without a branch decision"), std::string::npos);
  EXPECT_NE(R.Error.find("inst 0"), std::string::npos);
  Function Empty = handBuilt(1);
  Empty.addBlock("e");
  R = checkSimulate(Empty, scheduleOf({{{}, 0}}), Rs, ExecState{},
                    "empty block");
  EXPECT_NE(R.Error.find("without a branch decision"), std::string::npos);
  checkSimulate(Empty, scheduleOf({{{}, 3}}), Rs, ExecState{},
                "empty block with idle cycles");

  // Schedule sizes: a block of three scheduled as two, a schedule with
  // too few blocks, and a function with no blocks.
  R = checkHandBuilt(Early, scheduleOf({{{0, 2}, 3}}), Rs, "size mismatch");
  EXPECT_EQ(R.Error, "block e, inst 0: schedule does not match block size");
  R = checkHandBuilt(Early, FunctionSchedule(), Rs, "uncovered");
  EXPECT_EQ(R.Error, "schedule does not cover the function");
  R = checkSimulate(Function("none"), FunctionSchedule(), Rs, ExecState{},
                    "no blocks");
  EXPECT_EQ(R.Error, "schedule does not cover the function");
  ExecResult X = checkInterpret(Function("none"), ExecState{}, "no blocks");
  EXPECT_EQ(X.Error, "function has no blocks");

  // Budgets: a two-block spin loop stops on the cycle budget (also when
  // the budget falls inside a block) and on the step budget.
  Function Spin = handBuilt(1);
  Spin.addBlock("a");
  Spin.block(0).append(li(0, 1));
  Spin.block(0).append(br(1));
  Spin.addBlock("b");
  Spin.block(1).append(br(0));
  FunctionSchedule SpinSched = scheduleOf({{{0, 1}, 2}, {{0}, 1}});
  for (uint64_t Budget : {64u, 65u, 1000u}) {
    R = checkSimulate(Spin, SpinSched, Rs, ExecState{},
                      "cycle budget " + std::to_string(Budget), Budget);
    EXPECT_EQ(R.Error, "cycle budget exhausted");
  }
  X = checkInterpret(Spin, ExecState{}, "step budget", 100);
  EXPECT_EQ(X.Error, "step budget exhausted");
  EXPECT_EQ(X.Steps, 100u);

  // Falling off a block (interpreter only: the simulator reports no
  // branch decision for it, checked above).
  X = checkInterpret(NoBranch, ExecState{}, "fell off");
  EXPECT_EQ(X.Error, "fell off the end of block e");
}

TEST(SimReference, MatchesOnMemoryHazards) {
  MachineModel Vliw = MachineModel::vliw4(8);
  MachineModel Slow = slowStoreMachine(8);

  // A store, then a load of the same slot: in the same cycle it is a
  // hazard; the load first, then the store, reads the old value.
  Function SameCycle = handBuilt(2);
  SameCycle.addBlock("e");
  SameCycle.block(0).append(li(0, 7));
  SameCycle.block(0).append(memOp(Opcode::Store, NoReg, {0}, 3, "a"));
  SameCycle.block(0).append(memOp(Opcode::Load, 1, {}, 3, "a"));
  SameCycle.block(0).append(ret(1));
  SimResult R = checkHandBuilt(SameCycle, scheduleOf({{{0, 1, 1, 3}, 4}}),
                               Vliw, "store then load, one cycle");
  EXPECT_EQ(R.Error, "block e, inst 2: memory read before store ready");

  Function LoadFirst = handBuilt(2);
  LoadFirst.addBlock("e");
  LoadFirst.block(0).append(li(0, 7));
  LoadFirst.block(0).append(memOp(Opcode::Load, 1, {}, 3, "a"));
  LoadFirst.block(0).append(memOp(Opcode::Store, NoReg, {0}, 3, "a"));
  LoadFirst.block(0).append(ret(1));
  R = checkHandBuilt(LoadFirst, scheduleOf({{{0, 1, 1, 3}, 4}}), Vliw,
                     "load then store, one cycle");
  EXPECT_TRUE(R.Completed) << R.Error;

  // Stores that land three cycles after issue: a load two cycles behind
  // one is a hazard, three cycles behind reads the stored value, and a
  // load of another slot is never held up.
  for (unsigned Gap : {1u, 2u, 3u, 4u}) {
    Function Trail = handBuilt(2);
    Trail.addBlock("e");
    Trail.block(0).append(li(0, 7));
    Trail.block(0).append(memOp(Opcode::Store, NoReg, {0}, 3, "a"));
    Trail.block(0).append(memOp(Opcode::Load, 1, {}, 3, "a"));
    Trail.block(0).append(memOp(Opcode::Load, 0, {}, 4, "a"));
    Trail.block(0).append(ret(1));
    R = checkHandBuilt(
        Trail, scheduleOf({{{0, 1, 1 + Gap, 2 + Gap, 3 + Gap}, 4 + Gap}}),
        Slow,
        "load " + std::to_string(Gap) + " cycles behind a slow store");
    EXPECT_EQ(R.Completed, Gap >= 3) << Gap << ": " << R.Error;
  }

  // A store in a block's last cycle, then a load of its slot at the next
  // block entry: the boundary drains the store instead of reporting it.
  Function Drain = handBuilt(2);
  Drain.addBlock("e");
  Drain.block(0).append(li(0, 7));
  Drain.block(0).append(memOp(Opcode::Store, NoReg, {0}, 1, "a"));
  Drain.block(0).append(br(1));
  Drain.addBlock("x");
  Drain.block(1).append(memOp(Opcode::Load, 1, {}, 1, "a"));
  Drain.block(1).append(ret(1));
  R = checkHandBuilt(Drain, scheduleOf({{{0, 1, 1}, 2}, {{0, 2}, 3}}), Slow,
                     "store drained at a boundary");
  EXPECT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.ReturnValue, 7);
  EXPECT_EQ(R.BoundaryStalls, 2u);

  // The same store and load in consecutive entries of one loop block.
  Function Loop = handBuilt(4);
  Loop.addBlock("e");
  Loop.block(0).append(li(0, 0));
  Loop.block(0).append(li(2, 1));
  Loop.block(0).append(li(3, 5));
  Loop.block(0).append(br(1));
  Loop.addBlock("loop");
  Loop.block(1).append(memOp(Opcode::Load, 1, {}, 2, "a"));
  Loop.block(1).append(memOp(Opcode::Store, NoReg, {0}, 2, "a"));
  Loop.block(1).append(Instruction(Opcode::Add, 0, {0, 2}));
  Loop.block(1).append(Instruction(Opcode::CmpLt, 1, {0, 3}));
  Loop.block(1).append(cbr(1, 1, 2));
  Loop.addBlock("exit");
  Loop.block(2).append(ret(0));
  R = checkHandBuilt(
      Loop, scheduleOf({{{0, 0, 1, 1}, 2}, {{0, 2, 0, 1, 2}, 3}, {{0}, 1}}),
      Slow, "store and load across loop iterations");
  EXPECT_TRUE(R.Completed) << R.Error;
  EXPECT_GT(R.BoundaryStalls, 0u);
}

TEST(SimReference, MatchesOnAddressing) {
  MachineModel Vliw = MachineModel::vliw4(8);
  // An absent array and a size-0 one: loads read zero, stores vanish.
  // A negative offset and a negative index register wrap.
  Function F = handBuilt(8, 5);
  F.declareArray("z", 0);
  F.addBlock("e");
  F.block(0).append(li(0, 11));
  F.block(0).append(memOp(Opcode::Store, NoReg, {0}, 2, "ghost"));
  F.block(0).append(memOp(Opcode::Load, 1, {}, 2, "ghost"));
  F.block(0).append(memOp(Opcode::Store, NoReg, {0}, 0, "z"));
  F.block(0).append(memOp(Opcode::Load, 2, {}, 0, "z"));
  F.block(0).append(li(3, -7));
  F.block(0).append(memOp(Opcode::Store, NoReg, {0}, -3, "a"));
  F.block(0).append(memOp(Opcode::Store, NoReg, {3, 3}, 1, "a"));
  F.block(0).append(memOp(Opcode::Load, 4, {3}, 0, "a"));
  F.block(0).append(memOp(Opcode::Load, 5, {}, 7, "a"));
  F.block(0).append(Instruction(Opcode::Add, 6, {1, 2}));
  F.block(0).append(Instruction(Opcode::Add, 7, {4, 5}));
  F.block(0).append(Instruction(Opcode::Add, 7, {7, 6}));
  F.block(0).append(ret(7));
  SimResult R = checkHandBuilt(
      F,
      scheduleOf(
          {{{0, 1, 2, 3, 4, 1, 2, 3, 5, 6, 7, 8, 9, 10}, 11}}),
      Vliw, "addressing corners");
  ASSERT_TRUE(R.Completed) << R.Error;
  // a[-3 mod 5] = a[2] = 11; a[(-7 + 1) mod 5] = a[4] = -7; the load of
  // a[-7 mod 5] = a[3] reads the initial value; a[7 mod 5] = a[2].
  EXPECT_EQ(R.Final.Arrays.at("a")[2], 11);
  EXPECT_EQ(R.Final.Arrays.at("a")[4], -7);
  EXPECT_EQ(R.Final.Arrays.count("ghost"), 0u);
  EXPECT_TRUE(R.Final.Arrays.at("z").empty());
}

TEST(SimReference, MatchesOnDrainAndOrdering) {
  MachineModel Rs = MachineModel::rs6000(8);
  MachineModel Scalar = MachineModel::scalar(8);

  // A register rewritten by a shorter-latency op before a boundary: the
  // drain waits for the latest write (li, ready at 3), not the largest
  // (div, ready at 9).
  Function Rewrite = handBuilt(3);
  Rewrite.addBlock("e");
  Rewrite.block(0).append(li(1, 9));
  Rewrite.block(0).append(Instruction(Opcode::Div, 0, {1, 1}));
  Rewrite.block(0).append(li(0, 3));
  Rewrite.block(0).append(br(1));
  Rewrite.addBlock("x");
  Rewrite.block(1).append(Instruction(Opcode::Add, 2, {0, 0}));
  Rewrite.block(1).append(ret(2));
  SimResult R = checkHandBuilt(
      Rewrite, scheduleOf({{{0, 1, 2, 2}, 3}, {{0, 1}, 2}}), Rs,
      "register rewritten by a shorter-latency op");
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.ReturnValue, 6);
  EXPECT_EQ(R.Cycles, 5u);

  // A hazard in an earlier cycle is reported before a structural
  // violation in a later one, and a violating cycle is reported only
  // after the cycles before it retired.
  Function Order = handBuilt(4);
  Order.addBlock("e");
  Order.block(0).append(memOp(Opcode::Load, 0, {}, 0, "a"));
  Order.block(0).append(Instruction(Opcode::Add, 1, {0, 0}));
  Order.block(0).append(li(2, 1));
  Order.block(0).append(li(3, 2));
  Order.block(0).append(ret(1));
  R = checkHandBuilt(Order, scheduleOf({{{0, 1, 2, 2, 3}, 4}}), Scalar,
                     "hazard before a width violation");
  EXPECT_NE(R.Error.find("register operand read before ready"),
            std::string::npos);
  R = checkHandBuilt(Order, scheduleOf({{{0, 2, 3, 3, 4}, 5}}), Scalar,
                     "width violation after retired cycles");
  EXPECT_EQ(R.Error, "block e, inst 2: issue width exceeded");
  EXPECT_EQ(R.Instructions, 2u);

  // A violation in a block execution never reaches goes unreported; a
  // terminator issued before other instructions lets them retire.
  Function Diamond = handBuilt(3);
  Diamond.addBlock("e");
  Diamond.block(0).append(li(0, 1));
  Diamond.block(0).append(cbr(0, 1, 2));
  Diamond.addBlock("then");
  Diamond.block(1).append(ret(0));
  Diamond.block(1).append(li(1, 4));
  Diamond.addBlock("else");
  Diamond.block(2).append(li(1, 2));
  Diamond.block(2).append(li(2, 3));
  Diamond.block(2).append(ret(1));
  R = checkHandBuilt(
      Diamond, scheduleOf({{{0, 1}, 2}, {{0, 1}, 2}, {{0, 0, 1}, 2}}), Scalar,
      "violation in an untaken arm");
  EXPECT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Instructions, 4u);
  EXPECT_EQ(R.Final.Regs[1], 4);
}
