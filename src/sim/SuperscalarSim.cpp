//===- sim/SuperscalarSim.cpp - Cycle-accurate issue simulator ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "sim/SuperscalarSim.h"

#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "sched/Schedule.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

using namespace pira;

PIRA_STAT(NumSimCycles, "Machine cycles consumed across simulated runs");
PIRA_STAT(NumSimInstructions, "Instructions retired across simulated runs");

namespace {

/// One instruction of a block plan, with its opcode's properties read
/// once.
struct PlannedInst {
  const Instruction *Inst;
  std::vector<int64_t> *Array; ///< Memory ops: the storage addressed, null
                               ///< when absent or empty (ArrayTable).
  unsigned Index;              ///< Position in the block, for diagnostics.
  unsigned Latency;            ///< Issue-to-result latency of its opcode.
  unsigned Unit;               ///< Its UnitKind, as an index.
  bool IsTerminator;
  bool HasDef;
};

/// A block's schedule laid out for replay, built at the block's first
/// entry and reused by every later one.
struct BlockPlan {
  bool Built = false;
  /// The block's instructions in (cycle, index) order.
  std::vector<PlannedInst> Insts;
  /// Cycle C issues Insts[CycleEnd[C - 1], CycleEnd[C]) (from 0 for C = 0).
  std::vector<unsigned> CycleEnd;
  /// The first cycle that exceeds the issue width or a unit count
  /// (~0u when none), and its diagnostic. It is reported only when
  /// execution reaches that cycle, so a hazard earlier in the block
  /// still wins.
  unsigned BadCycle = ~0u;
  std::string BadError;
};

/// A store of the current block entry that may still be in flight.
struct PendingStore {
  const int64_t *Slot;
  uint64_t ReadyAt;
};

} // namespace

/// Formats "block L, inst I: message".
static std::string diag(const Function &F, unsigned Block, unsigned Inst,
                        const std::string &Msg) {
  std::ostringstream OS;
  OS << "block " << F.block(Block).name() << ", inst " << Inst << ": "
     << Msg;
  return OS.str();
}

/// Lays out block \p Block's schedule: its instructions in (cycle, index)
/// order, each cycle's structural verdict (issue width first, then each
/// unit class in order), and each memory instruction's array. \returns
/// the diagnostic of a schedule that does not fit the block, else empty.
static std::string buildPlan(const Function &F, unsigned Block,
                             const BlockSchedule &BS,
                             const MachineModel &Machine, ArrayTable &Arrays,
                             BlockPlan &P) {
  const BasicBlock &BB = F.block(Block);
  if (BS.CycleOf.size() != BB.size())
    return diag(F, Block, 0, "schedule does not match block size");
  unsigned N = static_cast<unsigned>(BB.size());
  unsigned Makespan = BS.Makespan;
  // Counting sort by cycle, ascending index within a cycle: CycleEnd
  // holds each cycle's count, then its start while placing, then its end.
  P.CycleEnd.assign(Makespan, 0);
  for (unsigned I = 0; I != N; ++I) {
    if (BS.CycleOf[I] >= Makespan)
      return diag(F, Block, I, "schedule cycle out of range");
    ++P.CycleEnd[BS.CycleOf[I]];
  }
  unsigned Start = 0;
  for (unsigned &Offset : P.CycleEnd)
    Start += std::exchange(Offset, Start);
  P.Insts.resize(N);
  for (unsigned I = 0; I != N; ++I) {
    const Instruction &Inst = BB.inst(I);
    const OpcodeInfo &Info = Inst.info();
    P.Insts[P.CycleEnd[BS.CycleOf[I]]++] = {
        &Inst,
        Info.IsMemory ? Arrays.lookup(Inst.arraySymbolId()) : nullptr,
        I,
        Machine.latency(Inst.opcode()),
        static_cast<unsigned>(Info.Unit),
        Info.IsTerminator,
        Info.HasDef};
  }

  // Only the first violating cycle can ever be reported: the run stops
  // there.
  for (unsigned C = 0, Begin = 0; C != Makespan; Begin = P.CycleEnd[C++]) {
    unsigned End = P.CycleEnd[C];
    unsigned First = Begin != End ? P.Insts[Begin].Index : 0;
    std::array<unsigned, NumUnitKinds> PerUnit{};
    for (unsigned J = Begin; J != End; ++J)
      ++PerUnit[P.Insts[J].Unit];
    std::string Error;
    if (End - Begin > Machine.issueWidth())
      Error = "issue width exceeded";
    for (unsigned K = 0; K != NumUnitKinds && Error.empty(); ++K)
      if (PerUnit[K] > Machine.units(static_cast<UnitKind>(K)))
        Error = std::string("unit overcommitted: ") +
                unitKindName(static_cast<UnitKind>(K));
    if (!Error.empty()) {
      P.BadCycle = C;
      P.BadError = diag(F, Block, First, Error);
      break;
    }
  }
  P.Built = true;
  return std::string();
}

static SimResult simulateImpl(const Function &F, const FunctionSchedule &Sched,
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

  ArrayTable Arrays(State);
  std::vector<BlockPlan> Plans(F.numBlocks());
  // When each register becomes readable: its latest write's landing time.
  std::vector<uint64_t> RegReadyAt(F.numRegs(), 0);
  // The latest store's landing time, which is also the largest, and the
  // current block entry's stores that may still be in flight, oldest
  // first (DESIGN §5, "The simulator at the cost of what it retires").
  const uint64_t StoreLatency = Machine.latency(Opcode::Store);
  uint64_t StoreReadyAt = 0;
  std::vector<PendingStore> InFlight;

  unsigned Block = 0;
  uint64_t Entries = 0;
  while (R.Cycles < MaxCycles) {
    if ((++Entries & 255) == 0)
      deadline::checkpoint();
    const BasicBlock &BB = F.block(Block);
    BlockPlan &P = Plans[Block];
    if (!P.Built) {
      R.Error = buildPlan(F, Block, Sched.Blocks[Block], Machine, Arrays, P);
      if (!R.Error.empty())
        return R;
    }
    // Block schedules assume every operand is ready on entry; the
    // machine stalls at the boundary until in-flight results (register
    // and memory) drain. Intra-block hazards below remain hard errors —
    // they indicate scheduler bugs, not boundary effects.
    uint64_t Base = std::max(R.Cycles, StoreReadyAt);
    for (uint64_t Ready : RegReadyAt)
      Base = std::max(Base, Ready);
    R.BoundaryStalls += Base - R.Cycles;
    InFlight.clear();
    size_t Oldest = 0;
    int NextBlock = -1;

    const unsigned Makespan = static_cast<unsigned>(P.CycleEnd.size());
    for (unsigned C = 0, Begin = 0; C != Makespan; Begin = P.CycleEnd[C++]) {
      if (C == P.BadCycle) {
        R.Error = P.BadError;
        return R;
      }
      uint64_t Abs = Base + C;
      // Execute the group in program order (reads-before-writes across
      // anti dependences is preserved because an anti edge always points
      // from the earlier instruction to the later one).
      for (unsigned J = Begin, End = P.CycleEnd[C]; J != End; ++J) {
        const PlannedInst &PI = P.Insts[J];
        const Instruction &Inst = *PI.Inst;
        for (Reg U : Inst.uses())
          if (RegReadyAt[U] > Abs) {
            R.Error =
                diag(F, Block, PI.Index, "register operand read before ready");
            return R;
          }
        int64_t *Slot = nullptr;
        if (PI.Array != nullptr) {
          Slot = resolveAddress(Inst, State.Regs, PI.Array);
          if (Inst.opcode() == Opcode::Load) {
            while (Oldest != InFlight.size() &&
                   InFlight[Oldest].ReadyAt <= Abs)
              ++Oldest;
            for (size_t S = Oldest; S != InFlight.size(); ++S)
              if (InFlight[S].Slot == Slot) {
                R.Error =
                    diag(F, Block, PI.Index, "memory read before store ready");
                return R;
              }
          }
        }

        ++R.Instructions;
        ++R.UnitIssues[PI.Unit];

        if (PI.IsTerminator) {
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
            R.Error = diag(F, Block, PI.Index, "unknown terminator");
            return R;
          }
          continue;
        }

        executeInstruction(Inst, State.Regs, Slot);
        if (PI.HasDef)
          RegReadyAt[Inst.def()] = Abs + PI.Latency;
        if (Slot != nullptr && Inst.opcode() == Opcode::Store) {
          StoreReadyAt = Abs + StoreLatency;
          InFlight.push_back({Slot, StoreReadyAt});
        }
      }
    }

    R.Cycles = Base + Makespan;
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

SimResult pira::simulate(const Function &F, const FunctionSchedule &Sched,
                         const MachineModel &Machine, ExecState Initial,
                         uint64_t MaxCycles) {
  PIRA_TIME_SCOPE("sim/superscalar");
  SimResult R = simulateImpl(F, Sched, Machine, std::move(Initial), MaxCycles);
  NumSimCycles += R.Cycles;
  NumSimInstructions += R.Instructions;
  return R;
}
