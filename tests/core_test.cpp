//===- tests/core_test.cpp - Core framework unit tests --------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// These tests pin the paper's worked examples edge-for-edge: Example 1
// (Figure 2a-c, Figure 3) and Example 2 (Figures 1, 4, 5).
//
//===----------------------------------------------------------------------===//

#include "analysis/Webs.h"
#include "core/FalseDepChecker.h"
#include "core/FalseDependenceGraph.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "ir/IRBuilder.h"
#include "ir/Interpreter.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/SpillCost.h"
#include "regalloc/InterferenceGraph.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <set>

using namespace pira;

namespace {

using EdgeSet = std::set<std::pair<unsigned, unsigned>>;

/// Edges of \p G restricted to vertices < \p Limit (drops the terminator
/// so asserts can speak in the paper's s1..sN numbering).
EdgeSet edgesBelow(const UndirectedGraph &G, unsigned Limit) {
  EdgeSet S;
  for (const auto &[A, B] : G.edgeList())
    if (A < Limit && B < Limit)
      S.insert({A, B});
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Example 1: Figure 2 (a)-(c) and Figure 3
//===----------------------------------------------------------------------===//

TEST(Example1Test, Figure2b_EtEdges) {
  // Paper: Et = closure edges {s1,s4},{s1,s5},{s3,s5},{s2,s3},{s2,s5}
  // plus machine constraints {s1,s3} (single fetch unit) and {s4,s5}
  // (single fixed-point unit). Our instruction indices are s_i - 1.
  Function F = paperExample1();
  MachineModel M = MachineModel::paperTwoUnit();
  FalseDependenceGraph FDG(F, 0, M);
  EdgeSet Expected = {{0, 2}, {0, 3}, {0, 4}, {1, 2},
                      {1, 4}, {2, 4}, {3, 4}};
  EXPECT_EQ(edgesBelow(FDG.constraints(), 5), Expected);
}

TEST(Example1Test, Figure2b_MachineConstraintPairs) {
  Function F = paperExample1();
  FalseDependenceGraph FDG(F, 0, MachineModel::paperTwoUnit());
  // Exactly the paper's two machine-dependent constraints:
  // {s1,s3} (loads) and {s4,s5} (fixed-point ops).
  EdgeSet Expected = {{0, 2}, {3, 4}};
  EXPECT_EQ(edgesBelow(FDG.machinePairs(), 5), Expected);
}

TEST(Example1Test, Figure2b_FalseDependencePairs) {
  Function F = paperExample1();
  FalseDependenceGraph FDG(F, 0, MachineModel::paperTwoUnit());
  // Paper: "the only false dependence edges are {s1,s2}, {s2,s4} and
  // {s3,s4}".
  EdgeSet Expected = {{0, 1}, {1, 3}, {2, 3}};
  EXPECT_EQ(edgesBelow(FDG.parallelPairs(), 5), Expected);
}

TEST(Example1Test, Figure2c_InterferenceEdges) {
  Function F = paperExample1();
  Webs W(F);
  InterferenceGraph IG(F, W);
  // Webs coincide with defs s1..s5 here (single defs, block order).
  auto Web = [&](unsigned Inst) { return W.webOfDef(0, Inst); };
  // s1 is live across s2,s3,s4 definitions (last use at s5).
  EXPECT_TRUE(IG.interfere(Web(0), Web(1)));
  EXPECT_TRUE(IG.interfere(Web(0), Web(2)));
  EXPECT_TRUE(IG.interfere(Web(0), Web(3)));
  // Open endpoint: s5 defined at s1's last use — no interference.
  EXPECT_FALSE(IG.interfere(Web(0), Web(4)));
  // s2 dies at s3's definition (open endpoint).
  EXPECT_FALSE(IG.interfere(Web(1), Web(2)));
  // s3 live until s5; s4 defined in between.
  EXPECT_TRUE(IG.interfere(Web(2), Web(3)));
  EXPECT_FALSE(IG.interfere(Web(2), Web(4)));
  // s4 and s5 both live out to the store block.
  EXPECT_TRUE(IG.interfere(Web(3), Web(4)));
}

TEST(Example1Test, Figure3_PigColoringUsesThreeRegisters) {
  // Paper: three registers suffice *without* introducing any false
  // dependence (mapping s1-r1, s2-r2, s3-r2, s4-r3, s5-r2).
  Function F = paperExample1();
  MachineModel M = MachineModel::paperTwoUnit();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, M);
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = pinterColor(PIG, Costs, 3);
  ASSERT_TRUE(A.fullyColored());
  EXPECT_EQ(A.NumColorsUsed, 3u);
  EXPECT_EQ(A.ParallelEdgesDropped, 0u);
}

TEST(Example1Test, PaperMappingIsLegalInPig) {
  // The exact assignment from the paper's introduction:
  // s1-r1, s2-r2, s3-r2, s4-r3, s5-r2.
  Function F = paperExample1();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::paperTwoUnit());
  auto Web = [&](unsigned Inst) { return W.webOfDef(0, Inst); };
  int Color[5] = {0, 1, 1, 2, 1}; // r1, r2, r2, r3, r2
  for (unsigned I = 0; I != 5; ++I)
    for (unsigned J = I + 1; J != 5; ++J)
      if (PIG.combined().hasEdge(Web(I), Web(J))) {
        EXPECT_NE(Color[I], Color[J])
            << "paper mapping violates PIG edge s" << I + 1 << "-s"
            << J + 1;
      }
}

TEST(Example1Test, NaiveReuseCreatesTheIntroFalseDependence) {
  // The introduction's allocation (c): s4 reuses s2's register, creating
  // an output dependence between instructions 2 and 4 (paper: "a false
  // dependence is introduced between the second and fourth
  // instructions").
  Function Symbolic = paperExample1();
  Function Alloc = Symbolic;
  // Mapping of (c): s1-r1, s2-r2, s3-r3, s4-r2, s5-r1.
  Webs W(Alloc);
  Allocation A;
  A.ColorOfWeb.assign(W.numWebs(), -1);
  int Colors[5] = {0, 1, 2, 1, 0};
  for (unsigned I = 0; I != 5; ++I)
    A.ColorOfWeb[W.webOfDef(0, I)] = Colors[I];
  A.NumColorsUsed = 3;
  applyAllocation(Alloc, W, A);
  auto False = findFalseDependences(Symbolic, Alloc,
                                    MachineModel::paperTwoUnit());
  ASSERT_EQ(False.size(), 1u);
  EXPECT_EQ(False[0].From, 1u); // second instruction (s2)
  EXPECT_EQ(False[0].To, 3u);   // fourth instruction (s4)
  EXPECT_EQ(False[0].Kind, DepKind::Output);
}

//===----------------------------------------------------------------------===//
// Example 2: Figures 1, 4, 5
//===----------------------------------------------------------------------===//

TEST(Example2Test, Figure1_DataDependenceEdges) {
  Function F = paperExample2();
  MachineModel M = MachineModel::paperTwoUnit();
  DependenceGraph G(F, 0, M);
  EdgeSet Flow;
  for (const DepEdge &E : G.edges())
    if (E.Kind == DepKind::Flow && E.To < 9)
      Flow.insert({E.From, E.To});
  // Figure 1: s1,s2 -> s3; s1,s2 -> s4; s3,s4 -> s5; s6,s7 -> s8;
  // s5,s8 -> s9. (0-based: subtract 1.)
  EdgeSet Expected = {{0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 4},
                      {3, 4}, {5, 7}, {6, 7}, {4, 8}, {7, 8}};
  EXPECT_EQ(Flow, Expected);
}

TEST(Example2Test, ComplementEdgesMatchPaperText) {
  // Paper: "The only edges in the complement graph of the example are
  // between S8 and each of the five statements s1..s5, and all the edges
  // between the two sets {s7,s6} and {s3,s4,s5}."
  Function F = paperExample2();
  FalseDependenceGraph FDG(F, 0, MachineModel::paperTwoUnit());
  EdgeSet Expected;
  for (unsigned I = 0; I != 5; ++I)
    Expected.insert({I, 7}); // s8 with s1..s5
  for (unsigned Src : {5u, 6u})
    for (unsigned Dst : {2u, 3u, 4u})
      Expected.insert({Dst, Src}); // {s6,s7} x {s3,s4,s5}
  EXPECT_EQ(edgesBelow(FDG.parallelPairs(), 9), Expected);
}

TEST(Example2Test, AllFourLoadsPairwiseConstrained) {
  Function F = paperExample2();
  FalseDependenceGraph FDG(F, 0, MachineModel::paperTwoUnit());
  // Single fetch unit: the paper generates all edges between the four
  // loads s1, s2, s6, s7.
  unsigned Loads[4] = {0, 1, 5, 6};
  for (unsigned I = 0; I != 4; ++I)
    for (unsigned J = I + 1; J != 4; ++J) {
      EXPECT_TRUE(
          FDG.constraints().hasEdge(Loads[I], Loads[J]))
          << "loads " << Loads[I] << "," << Loads[J];
      EXPECT_FALSE(FDG.canIssueTogether(Loads[I], Loads[J]));
    }
}

TEST(Example2Test, Figure4_InterferenceNeedsOnlyThreeColors) {
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = chaitinColor(IG.graph(), Costs, 3);
  EXPECT_TRUE(A.fullyColored());
  EXPECT_EQ(A.NumColorsUsed, 3u);
}

TEST(Example2Test, Figure5_PigNeedsExactlyFourRegisters) {
  // Paper: "With the parallel interference graph four registers are
  // needed."
  Function F = paperExample2();
  MachineModel M = MachineModel::paperTwoUnit();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, M);
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A4 = pinterColor(PIG, Costs, 4);
  ASSERT_TRUE(A4.fullyColored());
  EXPECT_EQ(A4.NumColorsUsed, 4u);
  EXPECT_EQ(A4.ParallelEdgesDropped, 0u);
  // Three registers cannot color the PIG without giving something up.
  Allocation A3 = pinterColor(PIG, Costs, 3);
  EXPECT_TRUE(!A3.fullyColored() || A3.ParallelEdgesDropped > 0);
}

TEST(Example2Test, PigForbidsTheParallelismKillingAssignments) {
  // Paper: "there is no restriction to assign the same register, for
  // example, to operations S8 and S3 or to operations S8 and S2 thus
  // preventing the possible parallel scheduling ... Such an assignment
  // is impossible with the parallel interference graph."
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::paperTwoUnit());
  auto Web = [&](unsigned Inst) { return W.webOfDef(0, Inst); };
  // Plain interference graph allows s8/s3 and s8/s2 sharing:
  EXPECT_FALSE(IG.interfere(Web(7), Web(2)));
  EXPECT_FALSE(IG.interfere(Web(7), Web(1)));
  // The PIG forbids both:
  EXPECT_TRUE(PIG.combined().hasEdge(Web(7), Web(2)));
  EXPECT_TRUE(PIG.combined().hasEdge(Web(7), Web(1)));
}

TEST(Example2Test, Figure5_PaperAssignmentLegalInPig) {
  // Figure 5: r1=s1, r2=s2, r3=s3, r2=s4, r3=s5, r1=s6, r4=s7, r4=s8,
  // r1=s9.
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::paperTwoUnit());
  auto Web = [&](unsigned Inst) { return W.webOfDef(0, Inst); };
  int Color[9] = {0, 1, 2, 1, 2, 0, 3, 3, 0};
  for (unsigned I = 0; I != 9; ++I)
    for (unsigned J = I + 1; J != 9; ++J)
      if (PIG.combined().hasEdge(Web(I), Web(J))) {
        EXPECT_NE(Color[I], Color[J])
            << "paper Figure 5 violates PIG edge s" << I + 1 << "-s"
            << J + 1;
      }
}

//===----------------------------------------------------------------------===//
// FalseDependenceGraph general properties
//===----------------------------------------------------------------------===//

TEST(FalseDependenceGraphTest, ComplementIsExact) {
  Function F = paperExample2();
  FalseDependenceGraph FDG(F, 0, MachineModel::paperTwoUnit());
  unsigned N = FDG.size();
  for (unsigned U = 0; U != N; ++U)
    for (unsigned V = U + 1; V != N; ++V)
      EXPECT_NE(FDG.constraints().hasEdge(U, V),
                FDG.parallelPairs().hasEdge(U, V))
          << "pair " << U << "," << V;
}

TEST(FalseDependenceGraphTest, SingleIssueMachineHasEmptyEf) {
  Function F = paperExample2();
  FalseDependenceGraph FDG(F, 0, MachineModel::scalar());
  EXPECT_EQ(FDG.parallelPairs().numEdges(), 0u);
}

TEST(FalseDependenceGraphTest, WiderMachineNeverShrinksEf) {
  Function F = livermoreHydro(1);
  FalseDependenceGraph Narrow(F, 1, MachineModel::rs6000());
  FalseDependenceGraph Wide(F, 1, MachineModel::vliw4());
  for (const auto &[U, V] : Narrow.parallelPairs().edgeList())
    EXPECT_TRUE(Wide.canIssueTogether(U, V))
        << U << "," << V << " parallel on rs6000 but not on vliw4";
}

//===----------------------------------------------------------------------===//
// ParallelInterferenceGraph
//===----------------------------------------------------------------------===//

TEST(PigTest, CombinedIsUnionOfFamilies) {
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::paperTwoUnit());
  for (const auto &[A, B] : PIG.combined().edgeList())
    EXPECT_TRUE(PIG.interference().hasEdge(A, B) ||
                PIG.parallel().hasEdge(A, B));
  for (const auto &[A, B] : PIG.interference().edgeList())
    EXPECT_TRUE(PIG.combined().hasEdge(A, B));
  for (const auto &[A, B] : PIG.parallel().edgeList())
    EXPECT_TRUE(PIG.combined().hasEdge(A, B));
}

TEST(PigTest, ParallelBenefitPositiveOnParallelEdges) {
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::paperTwoUnit());
  for (const auto &[A, B] : PIG.parallel().edgeList())
    EXPECT_GT(PIG.parallelBenefit(A, B), 0.0);
  EXPECT_EQ(PIG.parallelBenefit(0, 0), 0.0);
}

TEST(PigTest, ScalarMachinePigEqualsInterferenceGraph) {
  // Degenerate case: no parallelism to protect, combined == Gr, so the
  // framework collapses to classic Chaitin.
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::scalar());
  EXPECT_EQ(PIG.parallel().numEdges(), 0u);
  EXPECT_EQ(PIG.combined().edgeList(), IG.graph().edgeList());
}

TEST(PigTest, RegionModeAddsCrossBlockEdges) {
  // Two control-equivalent blocks with independent defs: region mode
  // must connect them.
  Function F("t");
  IRBuilder B(F);
  B.startBlock("first");
  Reg A = B.loadImm(1); // fixed unit
  B.br(1);
  B.startBlock("second");
  Reg C = B.binary(Opcode::FAdd, A, A); // float unit, dep on A only
  Reg D = B.loadImm(2);                 // independent of everything
  Reg E2 = B.binary(Opcode::FMul, C, D);
  B.ret(E2);
  Webs W(F);
  InterferenceGraph IG(F, W);
  MachineModel M = MachineModel::paperTwoUnit();
  ParallelInterferenceGraph Without(F, W, IG, M, /*UseRegions=*/false);
  ParallelInterferenceGraph With(F, W, IG, M, /*UseRegions=*/true);
  EXPECT_GT(With.parallel().numEdges(), Without.parallel().numEdges());
  // A (block 0) and D (block 1) are independent and on the same unit...
  // single fixed unit forbids them; A and C (float) conflict via flow.
  // A and the float multiply are dependent; but A with nothing else...
  // D (fixed) with C (float): no dependence, different units -> edge.
  EXPECT_TRUE(With.parallel().hasEdge(W.webOfDef(1, 0), W.webOfDef(1, 1)) ||
              With.parallel().hasEdge(W.webOfDef(0, 0), W.webOfDef(1, 0)));
}

//===----------------------------------------------------------------------===//
// pinterColor specifics
//===----------------------------------------------------------------------===//

TEST(PinterColorTest, DropsParallelEdgesBeforeSpilling) {
  // Example 2 with 3 registers: the plain interference graph is
  // 3-colorable, so the procedure must shed parallel edges rather than
  // spill.
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::paperTwoUnit());
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = pinterColor(PIG, Costs, 3);
  EXPECT_TRUE(A.fullyColored()) << "Gr is 3-colorable; no spill needed";
  EXPECT_GT(A.ParallelEdgesDropped, 0u);
  EXPECT_EQ(A.NumColorsUsed, 3u);
}

TEST(PinterColorTest, NeverDropsLemma3Edges) {
  // Edges in Ef ∩ Er serve both masters; with enough registers nothing
  // is dropped at all.
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::paperTwoUnit());
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = pinterColor(PIG, Costs, 8);
  EXPECT_TRUE(A.fullyColored());
  EXPECT_EQ(A.ParallelEdgesDropped, 0u);
}

TEST(PinterColorTest, ZeroParallelWeightDegeneratesToClassicH) {
  // With WParallel = 0 and no parallel edges, h* == cost/degree.
  UndirectedGraph G(4);
  for (unsigned I = 0; I != 4; ++I)
    for (unsigned J = I + 1; J != 4; ++J)
      G.addEdge(I, J);
  // Build a PIG-like wrapper through a function with that conflict
  // structure is heavyweight; instead check chaitinColor and pinterColor
  // agree on Example 2 under a scalar machine (PIG == Gr there).
  Function F = paperExample2();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::scalar());
  std::vector<double> Costs = computeSpillCosts(F, W);
  PinterOptions Opts;
  Opts.ParallelWeight = 0.0;
  Allocation A = pinterColor(PIG, Costs, 2);
  Allocation C = chaitinColor(IG.graph(), Costs, 2);
  EXPECT_EQ(A.SpilledWebs, C.SpilledWebs);
}

//===----------------------------------------------------------------------===//
// pinterAllocate end to end
//===----------------------------------------------------------------------===//

TEST(PinterAllocateTest, Example2FourRegsNoFalseDeps) {
  Function F = paperExample2();
  Function Twin;
  MachineModel M = MachineModel::paperTwoUnit();
  PinterStats S = pinterAllocate(F, 4, M, {}, &Twin);
  ASSERT_TRUE(S.Success);
  EXPECT_EQ(S.ColorsUsed, 4u);
  EXPECT_EQ(S.SpilledWebs, 0u);
  EXPECT_EQ(S.ParallelEdgesDropped, 0u);
  EXPECT_TRUE(findFalseDependences(Twin, F, M).empty());
}

TEST(PinterAllocateTest, AllKernelsConvergeAndPreserveSemantics) {
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Function F = Kernel;
    MachineModel M = MachineModel::rs6000(8);
    PinterStats S = pinterAllocate(F, 8, M);
    ASSERT_TRUE(S.Success) << Name;
    ExecState InitA = makeInitialState(Kernel, 3);
    ExecState InitB = makeInitialState(F, 3);
    for (auto &[ArrName, Data] : InitB.Arrays) {
      auto It = InitA.Arrays.find(ArrName);
      if (It != InitA.Arrays.end())
        Data = It->second;
      else
        Data.assign(Data.size(), 0);
    }
    ExecResult RA = interpret(Kernel, std::move(InitA));
    ExecResult RB = interpret(F, std::move(InitB));
    ASSERT_TRUE(RA.Completed) << Name;
    ASSERT_TRUE(RB.Completed) << Name << ": " << RB.Error;
    EXPECT_EQ(RA.HasReturnValue, RB.HasReturnValue) << Name;
    if (RA.HasReturnValue) {
      EXPECT_EQ(RA.ReturnValue, RB.ReturnValue) << Name;
    }
    for (const auto &[ArrName, Data] : RA.Final.Arrays)
      EXPECT_EQ(Data, RB.Final.Arrays.at(ArrName))
          << Name << " array " << ArrName;
  }
}

TEST(PinterAllocateTest, TightRegistersStillConverge) {
  Function F = firFilter(6);
  MachineModel M = MachineModel::rs6000(3);
  PinterStats S = pinterAllocate(F, 3, M);
  EXPECT_TRUE(S.Success);
  EXPECT_GT(S.SpilledWebs + S.ParallelEdgesDropped, 0u);
}

TEST(PinterAllocateTest, RegionModeConverges) {
  Function F = figure6Diamond();
  MachineModel M = MachineModel::paperTwoUnit();
  PinterOptions Opts;
  Opts.UseRegions = true;
  PinterStats S = pinterAllocate(F, 6, M, Opts);
  EXPECT_TRUE(S.Success);
}

//===----------------------------------------------------------------------===//
// FalseDepChecker
//===----------------------------------------------------------------------===//

TEST(FalseDepCheckerTest, CleanAllocationReportsNothing) {
  Function Symbolic = paperExample2();
  Function F = Symbolic;
  MachineModel M = MachineModel::paperTwoUnit();
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, M);
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = pinterColor(PIG, Costs, 8);
  ASSERT_TRUE(A.fullyColored());
  applyAllocation(F, W, A);
  EXPECT_TRUE(findFalseDependences(Symbolic, F, M).empty());
}

TEST(FalseDepCheckerTest, DetectsForcedOutputFalseDep) {
  // Assign s8 (fmul) the same register as s3 (add): they can co-issue,
  // so the output dependence is false.
  Function Symbolic = paperExample2();
  Function F = Symbolic;
  Webs W(F);
  Allocation A;
  A.ColorOfWeb.assign(W.numWebs(), -1);
  // s1..s9 -> r0 r1 r2 r3 r4 r5 r6 r2(!) r7
  int Colors[9] = {0, 1, 2, 3, 4, 5, 6, 2, 7};
  for (unsigned I = 0; I != 9; ++I)
    A.ColorOfWeb[W.webOfDef(0, I)] = Colors[I];
  A.NumColorsUsed = 8;
  applyAllocation(F, W, A);
  auto False =
      findFalseDependences(Symbolic, F, MachineModel::paperTwoUnit());
  ASSERT_EQ(False.size(), 1u);
  EXPECT_EQ(False[0].From, 2u);
  EXPECT_EQ(False[0].To, 7u);
}

TEST(FalseDepCheckerTest, ConstrainedReuseIsNotFalse) {
  // Two reuses, each cleared by a different half of Et:
  //  - s5 takes s2's register. The output edge s2 -> s5 is constrained
  //    by the path s2 -> s3 -> s5.
  //  - s6 takes s1's register. The output edge s1 -> s6 joins two loads
  //    with no path between them, so it is constrained only while the
  //    machine has one memory unit. Its anti edges s3 -> s6 and s4 -> s6
  //    join co-issuable pairs.
  Function Symbolic = paperExample2();
  Function F = Symbolic;
  Webs W(F);
  Allocation A;
  A.ColorOfWeb.assign(W.numWebs(), -1);
  int Colors[9] = {0, 1, 2, 3, 1, 0, 6, 7, 8};
  for (unsigned I = 0; I != 9; ++I)
    A.ColorOfWeb[W.webOfDef(0, I)] = Colors[I];
  A.NumColorsUsed = 9;
  applyAllocation(F, W, A);

  MachineModel OneMemoryUnit = MachineModel::paperTwoUnit();
  EXPECT_TRUE(findFalseDependences(Symbolic, F, OneMemoryUnit).empty());
  EXPECT_EQ(countAntiOrderingLosses(Symbolic, F, OneMemoryUnit), 2u);

  auto False = findFalseDependences(Symbolic, F, MachineModel::vliw4());
  ASSERT_EQ(False.size(), 1u) << "two memory units let the loads co-issue";
  EXPECT_EQ(False[0].From, 0u);
  EXPECT_EQ(False[0].To, 5u);
  EXPECT_EQ(False[0].Kind, DepKind::Output);

  MachineModel SingleIssue = MachineModel::scalar();
  EXPECT_TRUE(findFalseDependences(Symbolic, F, SingleIssue).empty());
  EXPECT_EQ(countAntiOrderingLosses(Symbolic, F, SingleIssue), 0u);
}

TEST(FalseDepCheckerTest, AntiOrderingLossesCounted) {
  // The paper's own Figure 5 mapping creates anti edges on co-issuable
  // pairs (not false, but ordering-restricting); the checker's companion
  // counter must see at least one.
  Function Symbolic = paperExample2();
  Function F = Symbolic;
  Webs W(F);
  Allocation A;
  A.ColorOfWeb.assign(W.numWebs(), -1);
  int Color[9] = {0, 1, 2, 1, 2, 0, 3, 3, 0};
  for (unsigned I = 0; I != 9; ++I)
    A.ColorOfWeb[W.webOfDef(0, I)] = Color[I];
  A.NumColorsUsed = 4;
  applyAllocation(F, W, A);
  MachineModel M = MachineModel::paperTwoUnit();
  EXPECT_TRUE(findFalseDependences(Symbolic, F, M).empty())
      << "Figure 5 must be false-dependence free";
  EXPECT_GT(countAntiOrderingLosses(Symbolic, F, M), 0u);
}

//===----------------------------------------------------------------------===//
// End-to-end pinning of the Example 2 artifact
//===----------------------------------------------------------------------===//

TEST(Example2Test, CombinedScheduleIsMachineOptimal) {
  // Four loads through one fetch unit bound the block at 4 cycles; the
  // dependent adds/muls overlap with them and each other, giving the
  // 7-cycle optimum (with the ret). The combined pipeline must hit it
  // with 4 registers and no false dependences.
  MachineModel M = MachineModel::paperTwoUnit(4);
  PipelineResult R = runStrategy(StrategyKind::Combined, paperExample2(), M);
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.StaticCycles, 7u);
  EXPECT_EQ(R.RegistersUsed, 4u);
  EXPECT_EQ(R.FalseDeps, 0u);
  EXPECT_EQ(R.SpilledWebs, 0u);
  // Structural shape of the optimum: one load per cycle for the first
  // four cycles (single fetch unit).
  auto Groups = R.Sched.Blocks[0].groupsByCycle();
  for (unsigned C = 0; C != 4; ++C) {
    unsigned Loads = 0;
    for (unsigned I : Groups[C])
      Loads += R.Final.block(0).inst(I).opcode() == Opcode::Load;
    EXPECT_EQ(Loads, 1u) << "cycle " << C;
  }
}

TEST(Example2Test, EfEdgeCountIsElevenExactly) {
  Function F = paperExample2();
  FalseDependenceGraph FDG(F, 0, MachineModel::paperTwoUnit());
  unsigned Count = 0;
  for (const auto &[A, B] : FDG.parallelPairs().edgeList())
    Count += (A < 9 && B < 9) ? 1 : 0;
  EXPECT_EQ(Count, 11u) << "the paper's text enumerates 11 edges";
}

TEST(Example1Test, EtAndEfPartitionAllPairs) {
  Function F = paperExample1();
  FalseDependenceGraph FDG(F, 0, MachineModel::paperTwoUnit());
  // Over s1..s5: C(5,2) = 10 pairs split 7 / 3.
  unsigned Et = 0, Ef = 0;
  for (unsigned A = 0; A != 5; ++A)
    for (unsigned B = A + 1; B != 5; ++B) {
      Et += FDG.constraints().hasEdge(A, B);
      Ef += FDG.parallelPairs().hasEdge(A, B);
    }
  EXPECT_EQ(Et, 7u);
  EXPECT_EQ(Ef, 3u);
}

TEST(PigTest, InterferenceFamilyIsExactlyGr) {
  // The PIG's interference family must be Gr verbatim (the paper unions
  // families; it never drops interference edges).
  Function F = livermoreHydro(2);
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, MachineModel::rs6000());
  EXPECT_EQ(PIG.interference().edgeList(), IG.graph().edgeList());
}

TEST(PigTest, ChromaticNeedNeverBelowGr) {
  // The PIG contains Gr, so its coloring can never use fewer registers.
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Webs W(Kernel);
    InterferenceGraph IG(Kernel, W);
    ParallelInterferenceGraph PIG(Kernel, W, IG,
                                  MachineModel::paperTwoUnit());
    std::vector<double> Costs(W.numWebs(), 1.0);
    Allocation Gr = chaitinColor(IG.graph(), Costs, 64);
    Allocation Pig = pinterColor(PIG, Costs, 64);
    ASSERT_TRUE(Gr.fullyColored()) << Name;
    ASSERT_TRUE(Pig.fullyColored()) << Name;
    EXPECT_GE(Pig.NumColorsUsed, Gr.NumColorsUsed) << Name;
  }
}
