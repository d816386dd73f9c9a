//===- tests/regalloc_test.cpp - Register allocation unit tests -----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "analysis/Webs.h"
#include "ir/IRBuilder.h"
#include "ir/Interpreter.h"
#include "ir/Verifier.h"
#include "regalloc/Allocation.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/ColoringEngine.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

using namespace pira;

//===----------------------------------------------------------------------===//
// InterferenceGraph
//===----------------------------------------------------------------------===//

TEST(InterferenceTest, SimultaneouslyLiveValuesConflict) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);
  Reg C = B.loadImm(2);
  Reg S = B.binary(Opcode::Add, A, C);
  B.ret(S);
  Webs W(F);
  InterferenceGraph IG(F, W);
  EXPECT_TRUE(IG.interfere(W.webOfDef(0, 0), W.webOfDef(0, 1)));
}

TEST(InterferenceTest, LastUseOpenEndpointAllowsReuse) {
  // Paper Section 2: the statement of the last use is not part of the
  // interval, so def-at-last-use does not interfere.
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);
  Reg C = B.binary(Opcode::Add, A, A); // last use of A defines C
  B.ret(C);
  Webs W(F);
  InterferenceGraph IG(F, W);
  EXPECT_FALSE(IG.interfere(W.webOfDef(0, 0), W.webOfDef(0, 1)));
}

TEST(InterferenceTest, Example2NeedsThreeColors) {
  // The paper's Figure 4 commentary: "only three registers are needed"
  // for the plain interference graph of Example 2.
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = chaitinColor(IG.graph(), Costs, /*NumRegs=*/3);
  EXPECT_TRUE(A.fullyColored());
  EXPECT_EQ(A.NumColorsUsed, 3u);
  // Two colors cannot work: the pressure peak is 3.
  Allocation A2 = chaitinColor(IG.graph(), Costs, /*NumRegs=*/2);
  EXPECT_FALSE(A2.fullyColored());
}

TEST(InterferenceTest, PressureMatchesKnownValue) {
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  EXPECT_EQ(IG.maxLivePressure(), 3u);
}

TEST(InterferenceTest, LivenessAtWebGranularity) {
  Function F = dotProduct(1);
  Webs W(F);
  InterferenceGraph IG(F, W);
  unsigned SumWeb = W.webOfDef(0, 0);
  EXPECT_TRUE(IG.liveIn(1).test(SumWeb));
  EXPECT_TRUE(IG.liveOut(1).test(SumWeb));
  EXPECT_TRUE(IG.liveIn(2).test(SumWeb));
}

TEST(InterferenceTest, FunctionInputsInterfereAtEntry) {
  Function F("t");
  F.setNumRegs(2);
  F.addBlock("e");
  // Both inputs read: they are simultaneously live at entry.
  F.block(0).append(Instruction(Opcode::Add, 0, {0, 1}));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {0}));
  Webs W(F);
  InterferenceGraph IG(F, W);
  ASSERT_EQ(W.numWebs(), 3u);
  unsigned In0 = W.webOfUse(0, 0, 0);
  unsigned In1 = W.webOfUse(0, 0, 1);
  EXPECT_TRUE(IG.interfere(In0, In1));
}

//===----------------------------------------------------------------------===//
// Spill costs
//===----------------------------------------------------------------------===//

TEST(SpillCostTest, LoopResidentsCostMore) {
  Function F = dotProduct(1);
  Webs W(F);
  std::vector<double> Costs = computeSpillCosts(F, W);
  // A web used only in the entry block (N bound) vs one used in the loop
  // (the loads): loop webs weigh more per reference.
  unsigned LoopLoadWeb = W.webOfDef(1, 0);
  unsigned BoundWeb = W.webOfDef(0, 2); // N, used once in the loop compare
  EXPECT_GT(Costs[LoopLoadWeb], 0.0);
  EXPECT_GT(Costs[BoundWeb], 0.0);
  // The loop-resident load web has def+use inside the loop: >= 20.
  EXPECT_GE(Costs[LoopLoadWeb], 20.0);
}

TEST(SpillCostTest, EntryDefWebGetsExtra) {
  Function F("t");
  F.setNumRegs(1);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {0}));
  Webs W(F);
  std::vector<double> Costs = computeSpillCosts(F, W);
  ASSERT_EQ(Costs.size(), 1u);
  EXPECT_DOUBLE_EQ(Costs[0], 2.0); // one use + entry-def surcharge
}

//===----------------------------------------------------------------------===//
// chaitinColor
//===----------------------------------------------------------------------===//

TEST(ChaitinColorTest, TriangleNeedsThree) {
  UndirectedGraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(0, 2);
  std::vector<double> Costs = {1, 1, 1};
  Allocation A = chaitinColor(G, Costs, 3);
  EXPECT_TRUE(A.fullyColored());
  EXPECT_EQ(A.NumColorsUsed, 3u);
  std::set<int> Colors(A.ColorOfWeb.begin(), A.ColorOfWeb.end());
  EXPECT_EQ(Colors.size(), 3u);
}

TEST(ChaitinColorTest, ColoringIsProper) {
  // A 5-cycle is 3-chromatic; verify no edge shares a color.
  UndirectedGraph G(5);
  for (unsigned I = 0; I != 5; ++I)
    G.addEdge(I, (I + 1) % 5);
  std::vector<double> Costs(5, 1.0);
  Allocation A = chaitinColor(G, Costs, 3);
  ASSERT_TRUE(A.fullyColored());
  for (const auto &[U, V] : G.edgeList())
    EXPECT_NE(A.ColorOfWeb[U], A.ColorOfWeb[V]);
}

TEST(ChaitinColorTest, SpillsCheapestWhenStuck) {
  // K4 with 2 registers: must spill; vertex 2 is the cheapest.
  UndirectedGraph G(4);
  for (unsigned I = 0; I != 4; ++I)
    for (unsigned J = I + 1; J != 4; ++J)
      G.addEdge(I, J);
  std::vector<double> Costs = {10, 10, 1, 10};
  Allocation A = chaitinColor(G, Costs, 2);
  ASSERT_FALSE(A.fullyColored());
  EXPECT_EQ(A.SpilledWebs[0], 2u);
}

TEST(ChaitinColorTest, InfiniteCostNeverSpilled) {
  UndirectedGraph G(4);
  for (unsigned I = 0; I != 4; ++I)
    for (unsigned J = I + 1; J != 4; ++J)
      G.addEdge(I, J);
  constexpr double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> Costs = {Inf, Inf, Inf, 5.0};
  Allocation A = chaitinColor(G, Costs, 2);
  ASSERT_FALSE(A.fullyColored());
  // K4 with two colors needs two spills; the finite-cost vertex must be
  // chosen first, before the procedure is forced onto infinite ones.
  EXPECT_EQ(A.SpilledWebs.front(), 3u);
}

TEST(ChaitinColorTest, InfiniteCostsSpillOnceEverySurvivorIsInfinite) {
  // K4 at r = 2 must give up two vertices. An infinite cost defers a
  // vertex until every survivor's cost is infinite; the survivors' h then
  // tie, and the lowest index goes first.
  UndirectedGraph G(4);
  for (unsigned I = 0; I != 4; ++I)
    for (unsigned J = I + 1; J != 4; ++J)
      G.addEdge(I, J);
  constexpr double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> Mixed = {Inf, Inf, Inf, 5.0};
  std::vector<double> AllInf(4, Inf);
  using Spills = std::vector<unsigned>;
  EXPECT_EQ(chaitinColor(G, Mixed, 2).SpilledWebs, (Spills{3, 0}));
  EXPECT_EQ(chaitinColor(G, AllInf, 2).SpilledWebs, (Spills{0, 1}));
}

TEST(ColoringEngineTest, OverflowingWeightSumKeepsTheFirstSurvivor) {
  // A weight near DBL_MAX overflows Σw to +inf once a vertex has two
  // neighbours, so an infinite cost reads h* = inf / inf = NaN and a
  // finite one reads 0. Neither may stop the coloring: a NaN h* never
  // beats the running choice, and the first survivor seeds it.
  UndirectedGraph G(4);
  for (unsigned I = 0; I != 4; ++I)
    for (unsigned J = I + 1; J != 4; ++J)
      G.addEdge(I, J);
  constexpr double Inf = std::numeric_limits<double>::infinity();
  using Spills = std::vector<unsigned>;
  EXPECT_EQ(colorGraph(G, std::vector<double>(4, Inf), 2, nullptr, 1e308)
                .SpilledWebs,
            (Spills{0, 1}));
  EXPECT_EQ(colorGraph(G, {4.0, 3.0, 2.0, 1.0}, 2, nullptr, 1e308)
                .SpilledWebs,
            (Spills{0, 1}));
  // A NaN first survivor among zeros: the scan keeps vertex 0, then
  // takes the lowest of the zeros. Step 4's heap must test the first
  // survivor before its minimum, or it would spill 1 and 2.
  EXPECT_EQ(colorGraph(G, {Inf, 1.0, 1.0, 1.0}, 2, nullptr, 1e308)
                .SpilledWebs,
            (Spills{0, 1}));
}

TEST(ChaitinColorTest, EmptyGraphColorsTrivially) {
  UndirectedGraph G(0);
  Allocation A = chaitinColor(G, {}, 4);
  EXPECT_TRUE(A.fullyColored());
  EXPECT_EQ(A.NumColorsUsed, 0u);
}

TEST(ChaitinColorTest, IsolatedVerticesShareOneColor) {
  UndirectedGraph G(6);
  std::vector<double> Costs(6, 1.0);
  Allocation A = chaitinColor(G, Costs, 2);
  ASSERT_TRUE(A.fullyColored());
  EXPECT_EQ(A.NumColorsUsed, 1u);
}

//===----------------------------------------------------------------------===//
// applyAllocation
//===----------------------------------------------------------------------===//

TEST(ApplyAllocationTest, RewritesOperandsConsistently) {
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = chaitinColor(IG.graph(), Costs, 8);
  ASSERT_TRUE(A.fullyColored());
  Function G = F;
  applyAllocation(G, W, A);
  EXPECT_TRUE(G.isAllocated());
  EXPECT_LE(G.numRegs(), 8u);
  // Semantics must be identical.
  ExecResult Before = interpret(F, makeInitialState(F, 5));
  ExecResult After = interpret(G, makeInitialState(G, 5));
  ASSERT_TRUE(Before.Completed);
  ASSERT_TRUE(After.Completed);
  EXPECT_EQ(Before.ReturnValue, After.ReturnValue);
  EXPECT_TRUE(statesEquivalent(Before.Final, After.Final));
}

//===----------------------------------------------------------------------===//
// SpillInserter
//===----------------------------------------------------------------------===//

TEST(SpillInserterTest, InsertsStoreAfterDefAndLoadBeforeUse) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(5); // inst 0, web to spill
  Reg C = B.binary(Opcode::Add, A, A);
  B.ret(C);
  Webs W(F);
  unsigned SpillWeb = W.webOfDef(0, 0);
  std::set<Reg> NoSpill;
  SpillCode Code = insertSpillCode(F, W, {SpillWeb}, NoSpill);
  EXPECT_EQ(Code.Stores, 1u);
  EXPECT_EQ(Code.Loads, 1u);
  // Layout now: li, store, load, add, ret.
  ASSERT_EQ(F.block(0).size(), 5u);
  EXPECT_EQ(F.block(0).inst(1).opcode(), Opcode::Store);
  EXPECT_EQ(F.block(0).inst(2).opcode(), Opcode::Load);
  EXPECT_EQ(F.block(0).inst(1).arraySymbol(), SpillArrayName);
  // The spilled register and the reload temp are both pinned.
  EXPECT_TRUE(NoSpill.count(A));
  EXPECT_EQ(NoSpill.size(), 2u);
  std::string Err;
  EXPECT_TRUE(verifyFunction(F, Err)) << Err;
}

TEST(SpillInserterTest, PreservesSemantics) {
  Function F = paperExample2();
  Function Original = F;
  Webs W(F);
  std::set<Reg> NoSpill;
  // Spill webs of s0 and s4 (arbitrary but deterministic).
  insertSpillCode(F, W, {W.webOfDef(0, 0), W.webOfDef(0, 4)}, NoSpill);
  ExecState InitA = makeInitialState(Original, 9);
  ExecState InitB = makeInitialState(F, 9);
  for (auto &[Name, Data] : InitB.Arrays)
    if (Name != SpillArrayName)
      Data = InitA.Arrays.at(Name);
  ExecResult RA = interpret(Original, std::move(InitA));
  ExecResult RB = interpret(F, std::move(InitB));
  ASSERT_TRUE(RA.Completed);
  ASSERT_TRUE(RB.Completed);
  EXPECT_EQ(RA.ReturnValue, RB.ReturnValue);
}

TEST(SpillInserterTest, OneReloadPerInstructionEvenWithTwoUses) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(3);
  Reg C = B.binary(Opcode::Mul, A, A); // two uses of A in one instruction
  B.ret(C);
  Webs W(F);
  std::set<Reg> NoSpill;
  SpillCode Code = insertSpillCode(F, W, {W.webOfDef(0, 0)}, NoSpill);
  EXPECT_EQ(Code.Loads, 1u) << "one reload must feed both operands";
  ExecResult R = interpret(F, makeInitialState(F, 0));
  EXPECT_EQ(R.ReturnValue, 9);
}

TEST(SpillInserterTest, EntryDefWebStoredAtFunctionTop) {
  Function F("t");
  F.setNumRegs(1);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {0})); // input value
  Webs W(F);
  std::set<Reg> NoSpill;
  SpillCode Code = insertSpillCode(F, W, {0}, NoSpill);
  EXPECT_EQ(Code.Stores, 1u);
  EXPECT_EQ(F.block(0).inst(0).opcode(), Opcode::Store);
}

TEST(SpillInserterTest, SecondRoundUsesFreshSlots) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);
  Reg C = B.loadImm(2);
  Reg S = B.binary(Opcode::Add, A, C);
  B.ret(S);
  std::set<Reg> NoSpill;
  {
    Webs W(F);
    insertSpillCode(F, W, {W.webOfDef(0, 0)}, NoSpill);
  }
  unsigned SizeAfterFirst = F.arraySize(SpillArrayName);
  {
    Webs W(F);
    // Spill the web of C (register 1) in the rewritten function.
    unsigned Target = ~0u;
    for (unsigned Web = 0; Web != W.numWebs(); ++Web)
      if (W.webRegister(Web) == C)
        Target = Web;
    ASSERT_NE(Target, ~0u);
    insertSpillCode(F, W, {Target}, NoSpill);
  }
  EXPECT_EQ(F.arraySize(SpillArrayName), SizeAfterFirst + 1);
}

//===----------------------------------------------------------------------===//
// chaitinAllocate (full loop)
//===----------------------------------------------------------------------===//

TEST(ChaitinAllocateTest, AmpleRegistersNoSpill) {
  Function F = paperExample2();
  AllocStats S = chaitinAllocate(F, 8);
  EXPECT_TRUE(S.Success);
  EXPECT_EQ(S.SpilledWebs, 0u);
  EXPECT_EQ(S.Rounds, 1u);
  EXPECT_LE(S.ColorsUsed, 8u);
  EXPECT_TRUE(F.isAllocated());
}

TEST(ChaitinAllocateTest, UsesMinimumColorsOnExample2) {
  Function F = paperExample2();
  AllocStats S = chaitinAllocate(F, 3);
  EXPECT_TRUE(S.Success);
  EXPECT_EQ(S.ColorsUsed, 3u);
  EXPECT_EQ(S.SpilledWebs, 0u);
}

TEST(ChaitinAllocateTest, TightRegistersSpillButConverge) {
  Function F = firFilter(6); // coefficient webs inflate pressure
  AllocStats S = chaitinAllocate(F, 3);
  EXPECT_TRUE(S.Success) << "allocation must converge with spilling";
  EXPECT_GT(S.SpilledWebs, 0u);
  EXPECT_GT(S.SpillStores + S.SpillLoads, 0u);
  std::string Err;
  EXPECT_TRUE(verifyFunction(F, Err)) << Err;
  EXPECT_LE(F.numRegs(), 3u);
}

TEST(ChaitinAllocateTest, SpilledCodePreservesSemantics) {
  Function Original = firFilter(6);
  Function F = Original;
  AllocStats S = chaitinAllocate(F, 3);
  ASSERT_TRUE(S.Success);
  ExecState InitA = makeInitialState(Original, 4);
  ExecState InitB = makeInitialState(F, 4);
  for (auto &[Name, Data] : InitB.Arrays) {
    auto It = InitA.Arrays.find(Name);
    if (It != InitA.Arrays.end())
      Data = It->second;
    else
      Data.assign(Data.size(), 0);
  }
  ExecResult RA = interpret(Original, std::move(InitA));
  ExecResult RB = interpret(F, std::move(InitB));
  ASSERT_TRUE(RA.Completed);
  ASSERT_TRUE(RB.Completed) << RB.Error;
  for (const auto &[Name, Data] : RA.Final.Arrays)
    EXPECT_EQ(Data, RB.Final.Arrays.at(Name)) << "array " << Name;
}

TEST(ChaitinAllocateTest, EveryKernelAllocatesWithEightRegs) {
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Function F = Kernel;
    AllocStats S = chaitinAllocate(F, 8);
    EXPECT_TRUE(S.Success) << Name;
    std::string Err;
    EXPECT_TRUE(verifyFunction(F, Err)) << Name << ": " << Err;
  }
}
