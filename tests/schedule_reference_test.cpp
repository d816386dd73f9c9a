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
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "ir/Function.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "sched/EPTimes.h"
#include "sched/ListScheduler.h"
#include "sched/PreScheduler.h"
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

  for (unsigned I = 0; I != NumNodes; ++I) {
    const Instruction &Inst = BB.inst(I);

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
    // unless both are loads.
    if (Inst.isMemory()) {
      bool IsLoad = Inst.opcode() == Opcode::Load;
      for (unsigned Prev : MemOps) {
        const Instruction &PrevInst = BB.inst(Prev);
        bool PrevIsLoad = PrevInst.opcode() == Opcode::Load;
        if (IsLoad && PrevIsLoad)
          continue;
        if (memoryProvablyDisjoint(F, PrevInst, Inst))
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
/// is declared so.
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
