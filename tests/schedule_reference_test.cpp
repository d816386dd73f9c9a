//===- tests/schedule_reference_test.cpp - Gs/scheduler oracles -----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The near-linear schedule graph, list scheduler and EP pre-scheduler
// checked against their first, straightforward forms, kept here verbatim:
// the pairwise memory scan with std::map register tables, the scheduler
// that rescans every node before each issue, and the EP adjustment that
// re-sweeps the block after each postponement. They must agree exactly:
// the edge list (order, kind, latency), every issue cycle and the
// makespan, and the pre-scheduled instruction order. The inputs are the
// kernels and random programs of every CFG shape on three machines, each
// as given and as the final and symbolic-twin code of all four
// heuristics (spill code included), plus hand-built memory corner cases.
//
// The Goodman-Hsu IPS scheduler on ready heaps is checked the same way
// against its rescanning form with std::map use counts: the reordered
// code and all three IpsStats counts, over the kernels and random
// programs of every shape on four machines at every register limit from
// 1 to 16, plus hand-built blocks for its tie and pressure cases.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Liveness.h"
#include "ir/Function.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "sched/EPTimes.h"
#include "sched/IntegratedPrepass.h"
#include "sched/ListScheduler.h"
#include "sched/PreScheduler.h"
#include "sched/Schedule.h"
#include "support/BitMatrix.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <numeric>
#include <string>

using namespace pira;

namespace {

//===----------------------------------------------------------------------===//
// Reference Gs: every pair of memory ops tested against the rule.
//===----------------------------------------------------------------------===//

/// The schedule graph's edge list as first built: addEdge keeps the first
/// kind and the largest latency of a duplicate (From, To).
class ReferenceGraph {
public:
  ReferenceGraph(const Function &F, unsigned BlockIdx,
                 const MachineModel &Machine);

  const std::vector<DepEdge> &edges() const { return Edges; }

private:
  void addEdge(unsigned From, unsigned To, DepKind Kind, unsigned Latency) {
    assert(From < To && "bad dependence edge");
    if (Adjacent.test(From, To)) {
      for (DepEdge &E : Edges)
        if (E.From == From && E.To == To) {
          if (E.Latency < Latency)
            E.Latency = Latency;
          return;
        }
      return;
    }
    Adjacent.set(From, To);
    Edges.push_back({From, To, Kind, Latency});
  }

  std::vector<DepEdge> Edges;
  BitMatrix Adjacent;
};

ReferenceGraph::ReferenceGraph(const Function &F, unsigned BlockIdx,
                               const MachineModel &Machine) {
  const BasicBlock &BB = F.block(BlockIdx);
  unsigned NumNodes = BB.size();
  Adjacent = BitMatrix(NumNodes);

  // LastDef[R] / readers since that def, for register dependences. These
  // track *positions*, so the same construction serves symbolic code (no
  // redefinition, hence no anti/output edges) and allocated code.
  std::map<Reg, unsigned> LastDef;
  std::map<Reg, std::vector<unsigned>> ReadersSinceDef;
  std::vector<unsigned> MemOps;
  // IndexDef[I]: the def that the index register of memory op I reads,
  // or NumNodes for a direct access or the value the block starts with.
  std::map<unsigned, unsigned> IndexDef;

  for (unsigned I = 0; I != NumNodes; ++I) {
    const Instruction &Inst = BB.inst(I);
    if (Inst.isMemory()) {
      Reg Index = Inst.opcode() == Opcode::Load
                      ? (Inst.uses().empty() ? NoReg : Inst.uses()[0])
                      : (Inst.uses().size() > 1 ? Inst.uses()[1] : NoReg);
      auto It = LastDef.find(Index);
      IndexDef[I] = It == LastDef.end() ? NumNodes : It->second;
    }

    // Flow dependences: latest prior def of each used register.
    for (Reg U : Inst.uses()) {
      auto It = LastDef.find(U);
      if (It != LastDef.end()) {
        const Instruction &Producer = BB.inst(It->second);
        addEdge(It->second, I, DepKind::Flow,
                Machine.latency(Producer.opcode()));
      }
      ReadersSinceDef[U].push_back(I);
    }

    if (Inst.hasDef()) {
      Reg D = Inst.def();
      // Output dependence on the previous def of D.
      auto It = LastDef.find(D);
      if (It != LastDef.end())
        addEdge(It->second, I, DepKind::Output, 1);
      // Anti dependences from readers of the previous value of D. Zero
      // latency: a superscalar reads operands before writing results, so
      // reader and overwriter may share a cycle.
      for (unsigned Reader : ReadersSinceDef[D])
        if (Reader != I)
          addEdge(Reader, I, DepKind::Anti, 0);
      LastDef[D] = I;
      ReadersSinceDef[D].clear();
    }

    // Memory ordering: any prior memory op that may touch the same slot,
    // unless both are loads. The disjointness rule holds only while the
    // index register keeps one value: a def of it between the two ops
    // leaves them aliasing unless their arrays differ.
    if (Inst.isMemory()) {
      bool IsLoad = Inst.opcode() == Opcode::Load;
      for (unsigned Prev : MemOps) {
        const Instruction &PrevInst = BB.inst(Prev);
        bool PrevIsLoad = PrevInst.opcode() == Opcode::Load;
        if (IsLoad && PrevIsLoad)
          continue;
        bool OneIndexValue = IndexDef[Prev] == IndexDef[I];
        if (memoryProvablyDisjoint(F, PrevInst, Inst) &&
            (OneIndexValue ||
             PrevInst.arraySymbolId() != Inst.arraySymbolId()))
          continue;
        addEdge(Prev, I, DepKind::Memory,
                Machine.latency(PrevInst.opcode()));
      }
      MemOps.push_back(I);
    }
  }

  // The terminator stays last: every instruction precedes it. Zero latency
  // lets work share the branch's final cycle, as on real machines.
  if (NumNodes != 0 && BB.inst(NumNodes - 1).isTerminator())
    for (unsigned I = 0; I + 1 < NumNodes; ++I)
      addEdge(I, NumNodes - 1, DepKind::Control, 0);
}

//===----------------------------------------------------------------------===//
// Reference list scheduler: a full rescan before every issue.
//===----------------------------------------------------------------------===//

BlockSchedule scheduleBlockReference(const Function &F, unsigned BlockIdx,
                                     const DependenceGraph &G,
                                     const MachineModel &Machine) {
  const BasicBlock &BB = F.block(BlockIdx);
  unsigned N = G.size();
  assert(N == BB.size() && "dependence graph does not match block");

  BlockSchedule Out;
  Out.CycleOf.assign(N, 0);
  if (N == 0)
    return Out;

  std::vector<unsigned> Height = computeHeights(G);
  std::vector<unsigned> PredsLeft(N, 0);
  for (unsigned V = 0; V != N; ++V)
    PredsLeft[V] = static_cast<unsigned>(G.predEdges(V).size());

  // ReadyAt[v]: earliest cycle v may issue given already-issued preds.
  std::vector<unsigned> ReadyAt(N, 0);
  std::vector<bool> Issued(N, false);
  unsigned Remaining = N;
  unsigned Cycle = 0;

  while (Remaining != 0) {
    unsigned SlotsLeft = Machine.issueWidth();
    std::array<unsigned, NumUnitKinds> UnitsLeft{};
    for (unsigned K = 0; K != NumUnitKinds; ++K)
      UnitsLeft[K] = Machine.units(static_cast<UnitKind>(K));

    // Issue greedily within the cycle; each issue can unlock zero-latency
    // successors in the same cycle, so loop until no candidate fits.
    bool IssuedAny = true;
    while (IssuedAny && SlotsLeft != 0) {
      IssuedAny = false;
      // Pick the ready candidate with the greatest height (ties: lowest
      // original index, preserving program order).
      unsigned Best = ~0u;
      for (unsigned V = 0; V != N; ++V) {
        if (Issued[V] || PredsLeft[V] != 0 || ReadyAt[V] > Cycle)
          continue;
        unsigned Kind = static_cast<unsigned>(BB.inst(V).unit());
        if (UnitsLeft[Kind] == 0)
          continue;
        if (Best == ~0u || Height[V] > Height[Best])
          Best = V;
      }
      if (Best == ~0u)
        break;

      Issued[Best] = true;
      Out.CycleOf[Best] = Cycle;
      --Remaining;
      --SlotsLeft;
      --UnitsLeft[static_cast<unsigned>(BB.inst(Best).unit())];
      IssuedAny = true;
      for (unsigned EI : G.succEdges(Best)) {
        const DepEdge &E = G.edges()[EI];
        ReadyAt[E.To] = std::max(ReadyAt[E.To], Cycle + E.Latency);
        --PredsLeft[E.To];
      }
    }
    ++Cycle;
  }
  Out.Makespan = Cycle;
  return Out;
}

//===----------------------------------------------------------------------===//
// Reference EP pre-scheduler: a block re-sweep after each postponement.
//===----------------------------------------------------------------------===//

/// Postpones instructions that overflow machine capacity at their EP
/// value and propagates the delay; returns the adjusted EP numbers.
std::vector<unsigned> adjustEPReference(const Function &F, unsigned BlockIdx,
                                        const DependenceGraph &G,
                                        const MachineModel &Machine) {
  const BasicBlock &BB = F.block(BlockIdx);
  unsigned N = G.size();
  std::vector<unsigned> EP = computeEP(G);
  std::vector<unsigned> Height = computeHeights(G);

  // Process EP levels smallest first. Levels can grow as members are
  // postponed, so re-scan until every level fits.
  unsigned Level = 0;
  unsigned MaxLevel = 0;
  for (unsigned V = 0; V != N; ++V)
    MaxLevel = std::max(MaxLevel, EP[V]);
  while (Level <= MaxLevel) {
    // Members of this level, most urgent (greatest height) first; ties in
    // original program order.
    std::vector<unsigned> Members;
    for (unsigned V = 0; V != N; ++V)
      if (EP[V] == Level)
        Members.push_back(V);
    std::stable_sort(Members.begin(), Members.end(),
                     [&](unsigned A, unsigned B) {
                       return Height[A] > Height[B];
                     });

    // Admit members while capacity lasts; postpone the rest.
    unsigned SlotsLeft = Machine.issueWidth();
    std::array<unsigned, NumUnitKinds> UnitsLeft{};
    for (unsigned K = 0; K != NumUnitKinds; ++K)
      UnitsLeft[K] = Machine.units(static_cast<UnitKind>(K));
    std::vector<unsigned> Postponed;
    for (unsigned V : Members) {
      unsigned Kind = static_cast<unsigned>(BB.inst(V).unit());
      if (SlotsLeft != 0 && UnitsLeft[Kind] != 0) {
        --SlotsLeft;
        --UnitsLeft[Kind];
      } else {
        Postponed.push_back(V);
      }
    }

    for (unsigned V : Postponed) {
      ++EP[V];
      MaxLevel = std::max(MaxLevel, EP[V]);
      // Propagate along outgoing paths: a successor may issue no earlier
      // than EP[V] + latency. One forward sweep suffices per bump because
      // indices are topologically ordered.
      for (unsigned U = V; U != N; ++U)
        for (unsigned EI : G.succEdges(U)) {
          const DepEdge &E = G.edges()[EI];
          if (EP[E.To] < EP[U] + E.Latency) {
            EP[E.To] = EP[U] + E.Latency;
            MaxLevel = std::max(MaxLevel, EP[E.To]);
          }
        }
    }
    ++Level;
  }
  return EP;
}

/// preScheduleFunction's block rewrite over the reference EP adjustment.
void preScheduleReference(Function &F, const MachineModel &Machine) {
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    BasicBlock &BB = F.block(B);
    unsigned N = BB.size();
    if (N < 2)
      continue;
    DependenceGraph G(F, B, Machine);
    std::vector<unsigned> EP = adjustEPReference(F, B, G, Machine);
    std::vector<unsigned> Order(N);
    std::iota(Order.begin(), Order.end(), 0u);
    std::stable_sort(Order.begin(), Order.end(),
                     [&](unsigned A, unsigned C) { return EP[A] < EP[C]; });
    std::vector<Instruction> NewInsts;
    NewInsts.reserve(N);
    for (unsigned Pos = 0; Pos != N; ++Pos)
      NewInsts.push_back(BB.inst(Order[Pos]));
    BB.instructions() = std::move(NewInsts);
  }
}

//===----------------------------------------------------------------------===//
// Differential checks.
//===----------------------------------------------------------------------===//

std::string edgeText(const DepEdge &E) {
  return std::to_string(E.From) + "->" + std::to_string(E.To) + " " +
         depKindName(E.Kind) + " lat " + std::to_string(E.Latency);
}

/// Compares graph and schedule of every block of \p F on \p M, and the
/// pre-scheduled order when \p F is symbolic.
void expectMatchesReference(const Function &F, const MachineModel &M,
                            const std::string &Tag) {
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    DependenceGraph G(F, B, M);
    ReferenceGraph Ref(F, B, M);
    ASSERT_EQ(G.edges().size(), Ref.edges().size()) << Tag << " block " << B;
    for (size_t EI = 0, EE = Ref.edges().size(); EI != EE; ++EI)
      ASSERT_EQ(edgeText(G.edges()[EI]), edgeText(Ref.edges()[EI]))
          << Tag << " block " << B << " edge " << EI;

    BlockSchedule S = scheduleBlockFor(F, B, G, M);
    BlockSchedule SRef = scheduleBlockReference(F, B, G, M);
    EXPECT_EQ(S.Makespan, SRef.Makespan) << Tag << " block " << B;
    EXPECT_EQ(S.CycleOf, SRef.CycleOf) << Tag << " block " << B;
  }
  if (F.isAllocated())
    return;
  Function Pre = F;
  Function PreRef = F;
  preScheduleFunction(Pre, M);
  preScheduleReference(PreRef, M);
  EXPECT_EQ(functionToString(Pre), functionToString(PreRef)) << Tag;
}

std::vector<MachineModel> machines(unsigned Regs) {
  return {MachineModel::paperTwoUnit(Regs), MachineModel::rs6000(Regs),
          MachineModel::vliw4(Regs)};
}

/// The input, then the final and symbolic-twin code of all four
/// heuristics, on every machine.
void expectPipelineMatchesReference(const Function &Input,
                                    const std::string &Tag, unsigned Regs) {
  static const StrategyKind Heuristics[] = {
      StrategyKind::AllocFirst, StrategyKind::SchedFirst,
      StrategyKind::IntegratedPrepass, StrategyKind::Combined};
  for (const MachineModel &M : machines(Regs)) {
    std::string MTag = Tag + " on " + M.name();
    expectMatchesReference(Input, M, MTag + " input");
    for (StrategyKind K : Heuristics) {
      PipelineResult R = runStrategy(K, Input, M);
      ASSERT_TRUE(R.Success) << MTag << " " << strategyName(K) << ": "
                             << R.Error;
      std::string KTag = MTag + " " + strategyName(K);
      expectMatchesReference(R.Final, M, KTag + " final");
      expectMatchesReference(R.SymbolicTwin, M, KTag + " twin");
    }
  }
}

} // namespace

TEST(ScheduleReferenceTest, KernelsMatchReference) {
  for (const auto &[Name, F] : standardKernelSuite())
    expectPipelineMatchesReference(F, Name, 6);
}

TEST(ScheduleReferenceTest, RandomProgramsOfEveryShapeMatchReference) {
  const CfgShape Shapes[] = {CfgShape::Straight, CfgShape::Diamond,
                             CfgShape::Loop, CfgShape::NestedDiamond,
                             CfgShape::DoubleLoop};
  for (CfgShape Shape : Shapes)
    for (uint64_t Seed : {3u, 17u}) {
      RandomProgramOptions Opts;
      Opts.Shape = Shape;
      Opts.Seed = Seed;
      Opts.InstructionsPerBlock = Seed == 3 ? 24 : 64;
      Opts.MemoryPercent = 40;
      Function F = generateRandomProgram(Opts);
      expectPipelineMatchesReference(
          F, "shape " + std::to_string(static_cast<int>(Shape)) + " seed " +
                 std::to_string(Seed),
          5);
    }
}

TEST(ScheduleReferenceTest, SpillHeavyBlockMatchesReference) {
  // One straight-line block big enough that spill-everywhere fills it
  // with loads and stores of one spill array.
  RandomProgramOptions Opts;
  Opts.InstructionsPerBlock = 200;
  Opts.MemoryPercent = 25;
  Opts.Seed = 4242;
  Function F = generateRandomProgram(Opts);
  MachineModel M = MachineModel::rs6000(8);
  PipelineResult R = runStrategy(StrategyKind::AllocFirst, F, M);
  ASSERT_TRUE(R.Success) << R.Error;
  ASSERT_GT(R.SpillInstructions, 100u);
  expectMatchesReference(F, M, "input");
  expectMatchesReference(R.Final, M, "final");
  expectMatchesReference(R.SymbolicTwin, M, "twin");
}

namespace {

/// Hand-built memory corner cases, one family per block. Arrays `u` and
/// `z` have size 0: `u` is only used (the parser declares it empty), `z`
/// is declared so. Block `redefined` rewrites an index register between
/// accesses at distinct in-bounds offsets, which then may alias.
const char *const MemoryCorners = R"(func @mem regs 12 {
  array a 8
  array z 0
block unsized:
  %s0 = li 3
  store u[0], %s0
  %s1 = load u[0]
  store u[5], %s1
  %s2 = load u[%s0 + 1]
  store u[%s0 + 1], %s2
  br sized
block sized:
  store z[0], %s0
  %s3 = load z[1]
  store z[1], %s3
  %s4 = load z[%s0]
  br offsets
block offsets:
  store a[0], %s0
  store a[1], %s0
  %s5 = load a[-1]
  store a[8], %s5
  store a[-3], %s5
  %s6 = load a[0]
  %s7 = load a[7]
  store a[7], %s6
  store a[9], %s7
  %s8 = load a[9]
  br indexed
block indexed:
  store a[%s0 + 2], %s1
  store a[%s0 + 2], %s2
  store a[%s0 + 3], %s2
  %s9 = load a[%s1 + 2]
  store a[%s1 + 4], %s9
  %s10 = load a[%s0 + 3]
  %s11 = load a[%s0 + 12]
  store a[%s0 + -1], %s11
  store a[2], %s10
  %s2 = load a[%s2]
  store a[%s2], %s2
  br redefined
block redefined:
  store a[%s0 + 1], %s1
  %s0 = neg %s0
  %s3 = load a[%s0 + 7]
  store a[%s0 + 2], %s3
  %s0 = add %s0, %s0
  store a[%s0 + 3], %s3
  %s4 = load a[%s0 + 1]
  br loads
block loads:
  %s3 = load a[1]
  %s4 = load a[1]
  %s5 = load a[%s0 + 1]
  %s6 = load a[%s1 + 1]
  %s7 = load a[-5]
  %s1 = add %s1, %s1
  %s8 = add %s3, %s3
  %s8 = mul %s8, %s8
  store a[1], %s8
  %s9 = add %s4, %s5
  %s10 = add %s6, %s7
  %s11 = add %s9, %s10
  ret %s11
}
)";

/// Loads and stores of an array the function never declares, so that
/// Function::arraySize reads 0 without a declaration.
Function undeclaredArrayFunction() {
  Function F("undeclared");
  F.setNumRegs(3);
  std::vector<Instruction> &Insts =
      F.block(F.addBlock("e")).instructions();
  auto Mem = [](Opcode Op, Reg Def, std::vector<Reg> Uses, int64_t Offset) {
    Instruction I(Op, Def, std::move(Uses), Offset);
    I.setArraySymbol("nowhere");
    return I;
  };
  Insts.push_back(Instruction(Opcode::LoadImm, 0, {}, 4));
  Insts.push_back(Mem(Opcode::Store, NoReg, {0}, 0));
  Insts.push_back(Mem(Opcode::Load, 1, {}, 1));
  Insts.push_back(Mem(Opcode::Load, 2, {}, 0));
  Insts.push_back(Mem(Opcode::Store, NoReg, {1, 0}, 2));
  Insts.push_back(Mem(Opcode::Load, 2, {0}, 2));
  Insts.push_back(Instruction(Opcode::Ret, NoReg, {2}));
  return F;
}

} // namespace

TEST(ScheduleReferenceTest, MemoryCornerCasesMatchReference) {
  Expected<Function> F = parseFunctionEx(MemoryCorners, "corners");
  ASSERT_TRUE(F.ok()) << F.status().message();
  Function Undeclared = undeclaredArrayFunction();
  for (const MachineModel &M : machines(12)) {
    expectMatchesReference(*F, M, "corners on " + M.name());
    expectMatchesReference(Undeclared, M, "undeclared on " + M.name());
  }
}

TEST(ScheduleReferenceTest, DisjointnessRuleOnCornerCases) {
  Expected<Function> F = parseFunctionEx(MemoryCorners, "corners");
  ASSERT_TRUE(F.ok()) << F.status().message();
  auto Inst = [&](const char *Block, unsigned I) -> const Instruction & {
    return F->block(static_cast<unsigned>(F->findBlock(Block))).inst(I);
  };
  // Arrays of size 0, declared or not, may always alias.
  EXPECT_FALSE(
      memoryProvablyDisjoint(*F, Inst("unsized", 1), Inst("unsized", 3)));
  EXPECT_FALSE(
      memoryProvablyDisjoint(*F, Inst("sized", 0), Inst("sized", 1)));
  Function Undeclared = undeclaredArrayFunction();
  EXPECT_FALSE(memoryProvablyDisjoint(Undeclared, Undeclared.block(0).inst(1),
                                      Undeclared.block(0).inst(2)));
  // Different arrays never alias.
  EXPECT_TRUE(
      memoryProvablyDisjoint(*F, Inst("unsized", 1), Inst("sized", 0)));
  // Distinct in-bounds offsets, both direct: disjoint.
  EXPECT_TRUE(
      memoryProvablyDisjoint(*F, Inst("offsets", 0), Inst("offsets", 1)));
  // A negative or out-of-bounds offset may wrap onto any slot.
  EXPECT_FALSE(
      memoryProvablyDisjoint(*F, Inst("offsets", 0), Inst("offsets", 2)));
  EXPECT_FALSE(
      memoryProvablyDisjoint(*F, Inst("offsets", 1), Inst("offsets", 3)));
  // One index register: equal offsets alias, distinct in-bounds ones not.
  EXPECT_FALSE(
      memoryProvablyDisjoint(*F, Inst("indexed", 0), Inst("indexed", 1)));
  EXPECT_TRUE(
      memoryProvablyDisjoint(*F, Inst("indexed", 1), Inst("indexed", 2)));
  // Distinct index registers, or an index register against a direct
  // access, may alias whatever the offsets.
  EXPECT_FALSE(
      memoryProvablyDisjoint(*F, Inst("indexed", 2), Inst("indexed", 4)));
  EXPECT_FALSE(
      memoryProvablyDisjoint(*F, Inst("indexed", 0), Inst("indexed", 8)));
}

TEST(ScheduleReferenceTest, PostponedTerminatorLevelMatchesReference) {
  // Six independent integer ops and a value-less return: on a
  // single-unit, single-issue machine the zero-latency terminator shares
  // EP level 0 with the ops (it has no operands), sorts by height after
  // them, and is postponed over and over along with them.
  const char *Text = R"(func @t regs 8 {
block e:
  %s0 = li 1
  %s1 = li 2
  %s2 = li 3
  %s3 = li 4
  %s4 = li 5
  %s5 = li 6
  ret
}
)";
  Expected<Function> F = parseFunctionEx(Text, "t");
  ASSERT_TRUE(F.ok()) << F.status().message();
  for (const MachineModel &M :
       {MachineModel::scalar(8), MachineModel::paperTwoUnit(8),
        MachineModel::rs6000(8), MachineModel::vliw4(8)})
    expectMatchesReference(*F, M, std::string("terminator on ") + M.name());
}

//===----------------------------------------------------------------------===//
// Reference IPS: a rescan of every node, with std::map use counts, before
// each issue.
//===----------------------------------------------------------------------===//

namespace {

/// Dual-mode list scheduling of one block.
class IpsBlockScheduler {
public:
  IpsBlockScheduler(const Function &F, unsigned BlockIdx,
                    const MachineModel &Machine, const Liveness &Live,
                    unsigned RegLimit, IpsStats &Stats)
      : F(F), BB(F.block(BlockIdx)), Machine(Machine),
        G(F, BlockIdx, Machine), RegLimit(RegLimit), Stats(Stats) {
    unsigned N = G.size();
    Height = computeHeights(G);
    PredsLeft.assign(N, 0);
    for (unsigned V = 0; V != N; ++V)
      PredsLeft[V] = static_cast<unsigned>(G.predEdges(V).size());
    ReadyAt.assign(N, 0);
    Issued.assign(N, false);

    // Remaining in-block uses per register, and whether the value
    // escapes (live-out) — an escaping value never dies here.
    for (const Instruction &I : BB.instructions())
      for (Reg U : I.uses())
        ++RemainingUses[U];
    LiveOut = Live.liveOut(BlockIdx);
    // Live on entry to the scheduling region: upward-exposed registers.
    const BitVector &UpwardExposed = Live.upwardExposed(BlockIdx);
    LiveCount = UpwardExposed.count();
  }

  BlockSchedule run() {
    unsigned N = G.size();
    BlockSchedule Out;
    Out.CycleOf.assign(N, 0);
    unsigned Remaining = N;
    unsigned Cycle = 0;
    while (Remaining != 0) {
      unsigned SlotsLeft = Machine.issueWidth();
      std::array<unsigned, NumUnitKinds> UnitsLeft{};
      for (unsigned K = 0; K != NumUnitKinds; ++K)
        UnitsLeft[K] = Machine.units(static_cast<UnitKind>(K));
      bool IssuedAny = true;
      while (IssuedAny && SlotsLeft != 0) {
        IssuedAny = false;
        unsigned Best = pickCandidate(Cycle, UnitsLeft);
        if (Best == ~0u)
          break;
        issue(Best, Cycle, Out);
        --Remaining;
        --SlotsLeft;
        --UnitsLeft[static_cast<unsigned>(BB.inst(Best).unit())];
        IssuedAny = true;
      }
      ++Cycle;
    }
    Out.Makespan = Cycle;
    return Out;
  }

private:
  /// Net live-value change if \p V issues now: +1 for a def that anyone
  /// still needs, -1 per operand whose last remaining use this is.
  int pressureDelta(unsigned V) const {
    const Instruction &I = BB.inst(V);
    int Delta = 0;
    if (I.hasDef())
      ++Delta;
    // Count distinct operand registers that would die.
    std::map<Reg, unsigned> OpCount;
    for (Reg U : I.uses())
      ++OpCount[U];
    for (const auto &[R, Count] : OpCount) {
      auto It = RemainingUses.find(R);
      if (It != RemainingUses.end() && It->second == Count &&
          (R >= LiveOut.size() || !LiveOut.test(R)))
        --Delta;
    }
    return Delta;
  }

  unsigned pickCandidate(unsigned Cycle,
                         const std::array<unsigned, NumUnitKinds> &Units) {
    bool PressureMode = LiveCount >= RegLimit;
    unsigned Best = ~0u;
    int BestDelta = 0;
    for (unsigned V = 0; V != G.size(); ++V) {
      if (Issued[V] || PredsLeft[V] != 0 || ReadyAt[V] > Cycle)
        continue;
      if (Units[static_cast<unsigned>(BB.inst(V).unit())] == 0)
        continue;
      if (Best == ~0u) {
        Best = V;
        BestDelta = pressureDelta(V);
        continue;
      }
      if (PressureMode) {
        // CSR: smallest pressure delta first; ties by height.
        int Delta = pressureDelta(V);
        if (Delta < BestDelta ||
            (Delta == BestDelta && Height[V] > Height[Best])) {
          Best = V;
          BestDelta = Delta;
        }
      } else if (Height[V] > Height[Best]) {
        // CSP: critical path height.
        Best = V;
      }
    }
    if (Best != ~0u) {
      if (PressureMode)
        ++Stats.CsrDecisions;
      else
        ++Stats.CspDecisions;
    }
    return Best;
  }

  void issue(unsigned V, unsigned Cycle, BlockSchedule &Out) {
    Issued[V] = true;
    Out.CycleOf[V] = Cycle;
    const Instruction &I = BB.inst(V);
    std::map<Reg, unsigned> OpCount;
    for (Reg U : I.uses())
      ++OpCount[U];
    for (const auto &[R, Count] : OpCount) {
      unsigned &Left = RemainingUses[R];
      assert(Left >= Count && "use accounting out of sync");
      Left -= Count;
      if (Left == 0 && (R >= LiveOut.size() || !LiveOut.test(R)) &&
          LiveCount > 0)
        --LiveCount;
    }
    if (I.hasDef())
      ++LiveCount;
    for (unsigned EI : G.succEdges(V)) {
      const DepEdge &E = G.edges()[EI];
      ReadyAt[E.To] = std::max(ReadyAt[E.To], Cycle + E.Latency);
      --PredsLeft[E.To];
    }
  }

  const Function &F;
  const BasicBlock &BB;
  const MachineModel &Machine;
  DependenceGraph G;
  unsigned RegLimit;
  IpsStats &Stats;

  std::vector<unsigned> Height;
  std::vector<unsigned> PredsLeft;
  std::vector<unsigned> ReadyAt;
  std::vector<bool> Issued;
  std::map<Reg, unsigned> RemainingUses;
  BitVector LiveOut;
  unsigned LiveCount = 0;
};

/// integratedPrepassSchedule over the reference block scheduler.
IpsStats integratedPrepassScheduleReference(Function &F,
                                            const MachineModel &Machine,
                                            unsigned RegLimit) {
  IpsStats Stats;
  Liveness Live(F);
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    if (F.block(B).size() < 2)
      continue;
    IpsBlockScheduler Scheduler(F, B, Machine, Live, RegLimit, Stats);
    BlockSchedule S = Scheduler.run();
    std::vector<unsigned> Perm = reorderBlockBySchedule(F, B, S);
    for (unsigned Pos = 0; Pos != Perm.size(); ++Pos)
      if (Perm[Pos] != Pos)
        ++Stats.Moved;
  }
  return Stats;
}

/// Runs both IPS forms on copies of \p Input and requires the same code
/// and the same counts. \returns the library's counts.
IpsStats expectIpsMatchesReference(const Function &Input,
                                   const MachineModel &M, unsigned RegLimit,
                                   const std::string &Tag) {
  Function Lib = Input;
  Function Ref = Input;
  IpsStats S = integratedPrepassSchedule(Lib, M, RegLimit);
  IpsStats SRef = integratedPrepassScheduleReference(Ref, M, RegLimit);
  EXPECT_EQ(functionToString(Lib), functionToString(Ref)) << Tag;
  EXPECT_EQ(S.CspDecisions, SRef.CspDecisions) << Tag;
  EXPECT_EQ(S.CsrDecisions, SRef.CsrDecisions) << Tag;
  EXPECT_EQ(S.Moved, SRef.Moved) << Tag;
  return S;
}

MachineModel ipsMachine(unsigned I, unsigned Regs) {
  switch (I) {
  case 0:
    return MachineModel::scalar(Regs);
  case 1:
    return MachineModel::paperTwoUnit(Regs);
  case 2:
    return MachineModel::rs6000(Regs);
  default:
    return MachineModel::vliw4(Regs);
  }
}

/// The sweep's inputs for source \p Source: the 16 kernels (source 0),
/// or 36 random programs of CFG shape Source - 1 (12 seeds × 3 sizes).
std::vector<std::pair<std::string, Function>> ipsInputs(unsigned Source) {
  if (Source == 0)
    return standardKernelSuite();
  std::vector<std::pair<std::string, Function>> Inputs;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    for (unsigned Size : {6u, 16u, 40u}) {
      RandomProgramOptions Gen;
      Gen.Shape = static_cast<CfgShape>(Source - 1);
      Gen.Seed = Seed * 7919 + Source;
      Gen.InstructionsPerBlock = Size;
      Gen.FloatPercent = 20 + 5 * static_cast<unsigned>(Seed % 5);
      Gen.MemoryPercent = 15 + 5 * static_cast<unsigned>(Seed % 4);
      Inputs.emplace_back("shape " + std::to_string(Source - 1) + " seed " +
                              std::to_string(Seed) + " size " +
                              std::to_string(Size),
                          generateRandomProgram(Gen));
    }
  return Inputs;
}

/// (input source, machine) pairs: kernels and every CFG shape on every
/// machine.
class IpsReferenceSweep
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

} // namespace

TEST_P(IpsReferenceSweep, MatchesReferenceAtEveryRegisterLimit) {
  auto [Source, MachineIdx] = GetParam();
  unsigned Csr = 0, Csp = 0;
  for (const auto &[Name, Input] : ipsInputs(Source))
    for (unsigned R = 1; R <= 16; ++R) {
      MachineModel M = ipsMachine(MachineIdx, R);
      IpsStats S = expectIpsMatchesReference(
          Input, M, R, Name + " on " + M.name() + " r=" + std::to_string(R));
      Csr += S.CsrDecisions;
      Csp += S.CspDecisions;
    }
  // Both modes must actually pick.
  EXPECT_GT(Csr, 0u);
  EXPECT_GT(Csp, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SourcesAndMachines, IpsReferenceSweep,
    testing::Combine(testing::Range(0u, 6u), testing::Range(0u, 4u)));

TEST(IpsReferenceTest, SpillCodeMatchesReference) {
  // The symbolic twin of a spill-heavy alloc-first compile: mostly loads
  // and stores of one spill array, and many short reload temporaries.
  RandomProgramOptions Opts;
  Opts.InstructionsPerBlock = 120;
  Opts.MemoryPercent = 25;
  Opts.Seed = 4242;
  Function F = generateRandomProgram(Opts);
  PipelineResult R =
      runStrategy(StrategyKind::AllocFirst, F, MachineModel::rs6000(8));
  ASSERT_TRUE(R.Success) << R.Error;
  for (unsigned Limit : {4u, 8u, 12u})
    for (unsigned MachineIdx = 0; MachineIdx != 4; ++MachineIdx) {
      MachineModel M = ipsMachine(MachineIdx, Limit);
      expectIpsMatchesReference(R.SymbolicTwin, M, Limit,
                                "twin on " + M.name() + " r=" +
                                    std::to_string(Limit));
    }
}

namespace {

/// Hand-built blocks for IPS's tie and pressure cases, each scheduled on
/// every machine at several register limits.
const char *const IpsCorners[] = {
    // CSR ties on delta and on height: four immediates feed chains of
    // different lengths, so in pressure mode several +1 candidates tie on
    // delta with different heights, and two pairs tie on both.
    R"(func @ties regs 12 {
block e:
  %s0 = li 1
  %s1 = li 2
  %s2 = li 3
  %s3 = li 4
  %s4 = add %s0, %s1
  %s5 = mul %s4, %s4
  %s6 = add %s2, %s3
  %s7 = add %s5, %s6
  %s8 = li 5
  %s9 = li 6
  %s10 = add %s8, %s9
  %s11 = add %s7, %s10
  ret %s11
}
)",
    // An operand that starts to die while its reader waits. Block b
    // opens in pressure mode with four values live. %s4 (delta 0, %s1
    // dies) and %s7 (delta 0, %s3 dies) tie, and %s4 issues first; that
    // leaves %s5 the last reader of %s0, so its delta falls from +1 to
    // 0 and it now beats %s7 on index.
    R"(func @dies regs 12 {
block e:
  %s0 = li 1
  %s1 = li 2
  %s2 = li 3
  %s3 = li 4
  br b
block b:
  %s4 = add %s0, %s1
  %s5 = neg %s0
  %s6 = neg %s2
  %s7 = add %s2, %s3
  %s8 = add %s4, %s5
  %s9 = add %s6, %s7
  %s10 = add %s8, %s9
  ret %s10
}
)",
    // Repeated operands: `add %s1, %s1` and `fma %s2, %s2, %s2` kill their
    // register once, not once per read.
    R"(func @repeats regs 12 {
block e:
  %s0 = li 1
  %s1 = li 2
  %s2 = li 3
  %s3 = add %s1, %s1
  %s4 = fma %s2, %s2, %s2
  %s5 = add %s0, %s3
  %s6 = fadd %s4, %s4
  %s7 = add %s5, %s5
  %s8 = fadd %s6, %s6
  store a[0], %s8
  ret %s7
}
)",
    // A live-out operand never dies in its block: %s0 and %s3 are read
    // again after the branch.
    R"(func @liveout regs 12 {
block e:
  %s0 = li 1
  %s1 = li 2
  %s2 = add %s0, %s1
  %s3 = add %s0, %s2
  %s4 = mul %s1, %s2
  %s5 = add %s4, %s4
  br x
block x:
  %s6 = add %s0, %s3
  %s7 = add %s6, %s5
  ret %s7
}
)",
    // Zero-latency successors: a loop-carried redefinition after its
    // reader (an anti edge) and the terminator may issue in the cycle of
    // their last predecessor.
    R"(func @zero regs 12 {
block e:
  %s0 = li 1
  %s1 = li 2
  %s2 = li 3
  br l
block l:
  %s3 = mul %s0, %s1
  %s0 = add %s0, %s2
  %s1 = add %s1, %s2
  %s4 = add %s3, %s0
  %s5 = cmplt %s4, %s1
  cbr %s5, l, d
block d:
  ret %s0
}
)",
};

} // namespace

TEST(IpsReferenceTest, HandBuiltCornerCasesMatchReference) {
  unsigned Csr = 0;
  for (const char *Text : IpsCorners) {
    Expected<Function> F = parseFunctionEx(Text, "corner");
    ASSERT_TRUE(F.ok()) << F.status().message();
    for (unsigned MachineIdx = 0; MachineIdx != 4; ++MachineIdx)
      for (unsigned Limit = 1; Limit <= 6; ++Limit) {
        MachineModel M = ipsMachine(MachineIdx, Limit);
        Csr += expectIpsMatchesReference(*F, M, Limit,
                                         F->name() + " on " + M.name() +
                                             " r=" + std::to_string(Limit))
                   .CsrDecisions;
      }
  }
  EXPECT_GT(Csr, 0u);
}
