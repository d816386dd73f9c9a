//===- tests/transforms_test.cpp - IR transformation tests ----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Interpreter.h"
#include "ir/Verifier.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "transforms/Cleanup.h"
#include "transforms/Normalize.h"
#include "transforms/LoopUnroller.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace pira;

namespace {

/// Interprets both functions from the same seed and compares the
/// observable outputs.
void expectSameSemantics(const Function &A, const Function &B,
                         uint64_t Seed, const std::string &What) {
  ExecState InitA = makeInitialState(A, Seed);
  ExecState InitB = makeInitialState(B, Seed);
  for (auto &[Name, Data] : InitB.Arrays) {
    auto It = InitA.Arrays.find(Name);
    if (It != InitA.Arrays.end())
      Data = It->second;
  }
  ExecResult RA = interpret(A, std::move(InitA));
  ExecResult RB = interpret(B, std::move(InitB));
  ASSERT_TRUE(RA.Completed) << What;
  ASSERT_TRUE(RB.Completed) << What << ": " << RB.Error;
  EXPECT_TRUE(statesEquivalent(RA.Final, RB.Final)) << What;
  EXPECT_EQ(RA.HasReturnValue, RB.HasReturnValue) << What;
  if (RA.HasReturnValue) {
    EXPECT_EQ(RA.ReturnValue, RB.ReturnValue) << What;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Loop unrolling
//===----------------------------------------------------------------------===//

TEST(UnrollTest, UnrollsDotProductPreservingSemantics) {
  for (unsigned Factor : {2u, 4u, 8u}) {
    Function F = dotProduct(1); // 64 iterations, step 1
    Function Before = F;
    ASSERT_TRUE(unrollCountedLoop(F, 1, Factor)) << "factor " << Factor;
    std::string Err;
    ASSERT_TRUE(verifyFunction(F, Err)) << Err;
    expectSameSemantics(Before, F, 33,
                        "dot unroll x" + std::to_string(Factor));
  }
}

TEST(UnrollTest, BodyGrowsByFactor) {
  Function F = dotProduct(1);
  unsigned BodyBefore = F.block(1).size();
  ASSERT_TRUE(unrollCountedLoop(F, 1, 4));
  // body+update replicated 4x, one guard + branch.
  EXPECT_EQ(F.block(1).size(), (BodyBefore - 2) * 4 + 2);
}

TEST(UnrollTest, FreshNamesKeepCopiesIndependent) {
  Function F = dotProduct(1);
  ASSERT_TRUE(unrollCountedLoop(F, 1, 2));
  // The two copies' loads must define different registers (renamed), so
  // a scheduler can overlap them.
  std::vector<Reg> LoadDefs;
  for (const Instruction &I : F.block(1).instructions())
    if (I.opcode() == Opcode::Load)
      LoadDefs.push_back(I.def());
  ASSERT_EQ(LoadDefs.size(), 4u);
  EXPECT_NE(LoadDefs[0], LoadDefs[2]);
  EXPECT_NE(LoadDefs[1], LoadDefs[3]);
}

TEST(UnrollTest, RefusesNonDividingFactor) {
  Function F = dotProduct(1); // 64 iterations
  EXPECT_FALSE(unrollCountedLoop(F, 1, 5));
  EXPECT_FALSE(unrollCountedLoop(F, 1, 7));
}

TEST(UnrollTest, RefusesNonLoopBlocks) {
  Function F = dotProduct(1);
  EXPECT_FALSE(unrollCountedLoop(F, 0, 2)) << "entry is not a loop";
  EXPECT_FALSE(unrollCountedLoop(F, 2, 2)) << "exit is not a loop";
}

TEST(UnrollTest, FactorOneIsIdentity) {
  Function F = dotProduct(1);
  Function Before = F;
  EXPECT_TRUE(unrollCountedLoop(F, 1, 1));
  EXPECT_EQ(F.block(1).size(), Before.block(1).size());
}

TEST(UnrollTest, UnrollAllHandlesMultipleLoops) {
  Function F = twoLoops(); // two counted loops, 32 iterations each
  Function Before = F;
  EXPECT_EQ(unrollAllLoops(F, 4), 2u);
  std::string Err;
  ASSERT_TRUE(verifyFunction(F, Err)) << Err;
  expectSameSemantics(Before, F, 5, "twoLoops unroll");
}

TEST(UnrollTest, UnrolledLoopSchedulesFasterPerElement) {
  // The substrate-level point of unrolling: more ILP per trip.
  MachineModel M = MachineModel::vliw4(12);
  Function U1 = dotProduct(1);
  Function U4 = dotProduct(1);
  ASSERT_TRUE(unrollCountedLoop(U4, 1, 4));
  PipelineResult R1 = runAndMeasure(StrategyKind::Combined, U1, M);
  PipelineResult R4 = runAndMeasure(StrategyKind::Combined, U4, M);
  ASSERT_TRUE(R1.Success) << R1.Error;
  ASSERT_TRUE(R4.Success) << R4.Error;
  EXPECT_LT(R4.DynCycles, R1.DynCycles);
}

TEST(UnrollTest, SemanticsAcrossKernelLoops) {
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Function F = Kernel;
    unsigned Done = unrollAllLoops(F, 2);
    if (Done == 0)
      continue; // straight-line kernels or non-dividing trip counts
    std::string Err;
    ASSERT_TRUE(verifyFunction(F, Err)) << Name << ": " << Err;
    expectSameSemantics(Kernel, F, 44, Name);
  }
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

TEST(DceTest, RemovesUnusedPureDefs) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);
  B.binary(Opcode::Add, A, A);       // dead
  Reg C = B.binary(Opcode::Mul, A, A); // live via ret
  B.load("m", NoReg, 0);             // dead load (pure)
  B.ret(C);
  EXPECT_EQ(eliminateDeadCode(F), 2u);
  EXPECT_EQ(F.block(0).size(), 3u);
  ExecResult R = interpret(F, makeInitialState(F, 1));
  EXPECT_EQ(R.ReturnValue, 1);
}

TEST(DceTest, CascadesThroughChains) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);
  Reg D1 = B.binary(Opcode::Add, A, A);  // only feeds D2
  Reg D2 = B.binary(Opcode::Mul, D1, D1); // only feeds D3
  B.binary(Opcode::Sub, D2, D2);          // dead
  B.ret(A);
  EXPECT_EQ(eliminateDeadCode(F), 3u) << "whole chain dies";
  EXPECT_EQ(F.block(0).size(), 2u);
}

TEST(DceTest, KeepsStoresAndTerminators) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);
  B.store("m", A, NoReg, 0);
  B.ret();
  EXPECT_EQ(eliminateDeadCode(F), 0u);
  EXPECT_EQ(F.block(0).size(), 3u);
}

TEST(DceTest, NoopOnCleanKernels) {
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Function F = Kernel;
    EXPECT_EQ(eliminateDeadCode(F), 0u) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Copy propagation
//===----------------------------------------------------------------------===//

TEST(CopyPropTest, ForwardsThroughCopies) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(7);
  Reg C = B.copy(A);
  Reg D = B.binary(Opcode::Add, C, C);
  B.ret(D);
  EXPECT_EQ(propagateCopies(F), 2u) << "both add operands forwarded";
  // The add now reads A directly; DCE can kill the copy.
  EXPECT_EQ(F.block(0).inst(2).uses()[0], A);
  EXPECT_EQ(eliminateDeadCode(F), 1u);
  ExecResult R = interpret(F, makeInitialState(F, 1));
  EXPECT_EQ(R.ReturnValue, 14);
}

TEST(CopyPropTest, StopsAtSourceRedefinition) {
  Function F("t");
  F.setNumRegs(3);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::Copy, 1, {0}));
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 9)); // src redefined
  F.block(0).append(Instruction(Opcode::Add, 2, {1, 1}));    // must read 1
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {2}));
  propagateCopies(F);
  EXPECT_EQ(F.block(0).inst(3).uses()[0], 1u)
      << "forwarding through a clobbered source would change semantics";
  ExecResult R = interpret(F, makeInitialState(F, 1));
  EXPECT_EQ(R.ReturnValue, 2);
}

TEST(CopyPropTest, StopsAtDestRedefinition) {
  Function F("t");
  F.setNumRegs(3);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::Copy, 1, {0}));
  F.block(0).append(Instruction(Opcode::LoadImm, 1, {}, 5)); // dest clobbered
  F.block(0).append(Instruction(Opcode::Add, 2, {1, 1}));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {2}));
  propagateCopies(F);
  EXPECT_EQ(F.block(0).inst(3).uses()[0], 1u);
  ExecResult R = interpret(F, makeInitialState(F, 1));
  EXPECT_EQ(R.ReturnValue, 10);
}

TEST(CopyPropTest, SemanticsPreservedOnRandomPrograms) {
  for (unsigned Seed = 1; Seed <= 10; ++Seed) {
    RandomProgramOptions Opts;
    Opts.Seed = Seed * 449;
    Opts.Shape = static_cast<CfgShape>(Seed % 5);
    Function F = generateRandomProgram(Opts);
    Function Before = F;
    propagateCopies(F);
    eliminateDeadCode(F);
    std::string Err;
    ASSERT_TRUE(verifyFunction(F, Err)) << Err;
    expectSameSemantics(Before, F, Seed, "seed " + std::to_string(Seed));
  }
}

//===----------------------------------------------------------------------===//
// Web-name normalization (one register per value)
//===----------------------------------------------------------------------===//

TEST(NormalizeTest, SplitsIndependentReusesOfOneRegister) {
  // Hand-written code that reuses %s0 for two unrelated values.
  const char *Text = "func @reuse regs 2 {\n"
                     "block e:\n"
                     "  %s0 = li 1\n"
                     "  %s1 = add %s0, %s0\n"
                     "  %s0 = li 9\n"       // unrelated value, same reg
                     "  %s1 = mul %s0, %s1\n"
                     "  ret %s1\n"
                     "}\n";
  Function F;
  std::string Err;
  ASSERT_TRUE(parseFunction(Text, F, Err)) << Err;
  Function Before = F;
  unsigned Changed = normalizeWebNames(F);
  EXPECT_GT(Changed, 0u);
  // The two defs of the old %s0 now use different registers.
  EXPECT_NE(F.block(0).inst(0).def(), F.block(0).inst(2).def());
  ASSERT_TRUE(verifyFunction(F, Err)) << Err;
  expectSameSemantics(Before, F, 3, "normalize reuse");
}

TEST(NormalizeTest, RemovesSpuriousDependences) {
  // Before normalization the register reuse creates anti/output edges;
  // after it, the symbolic schedule graph holds only real constraints.
  const char *Text = "func @reuse regs 2 {\n"
                     "block e:\n"
                     "  %s0 = li 1\n"
                     "  %s1 = add %s0, %s0\n"
                     "  %s0 = li 9\n"
                     "  %s1 = mul %s0, %s1\n"
                     "  ret %s1\n"
                     "}\n";
  Function F;
  std::string Err;
  ASSERT_TRUE(parseFunction(Text, F, Err)) << Err;
  MachineModel M = MachineModel::paperTwoUnit();
  unsigned EdgesBefore = 0, EdgesAfter = 0;
  {
    DependenceGraph G(F, 0, M);
    for (const DepEdge &E : G.edges())
      if (E.Kind == DepKind::Anti || E.Kind == DepKind::Output)
        ++EdgesBefore;
  }
  normalizeWebNames(F);
  {
    DependenceGraph G(F, 0, M);
    for (const DepEdge &E : G.edges())
      if (E.Kind == DepKind::Anti || E.Kind == DepKind::Output)
        ++EdgesAfter;
  }
  EXPECT_GT(EdgesBefore, 0u);
  EXPECT_EQ(EdgesAfter, 0u);
}

TEST(NormalizeTest, KeepsCompoundWebsTogether) {
  // Loop-carried registers legitimately share a name across their
  // merged definitions; normalization must not split them.
  Function F = dotProduct(1);
  normalizeWebNames(F);
  std::string Err;
  ASSERT_TRUE(verifyFunction(F, Err)) << Err;
  // The accumulator still has two defs of one register.
  Webs W(F);
  unsigned AccWeb = W.webOfUse(2, 0, 0); // exit ret reads the sum
  EXPECT_EQ(W.defsOfWeb(AccWeb).size(), 2u);
  ExecResult RA = interpret(dotProduct(1), makeInitialState(dotProduct(1), 2));
  ExecResult RB = interpret(F, makeInitialState(F, 2));
  ASSERT_TRUE(RA.Completed);
  ASSERT_TRUE(RB.Completed);
  EXPECT_EQ(RA.ReturnValue, RB.ReturnValue);
}

TEST(NormalizeTest, IdempotentOnBuilderOutput) {
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Function F = Kernel;
    normalizeWebNames(F);
    Function Once = F;
    EXPECT_EQ(normalizeWebNames(F), 0u) << Name;
    EXPECT_EQ(functionToString(F), functionToString(Once)) << Name;
  }
}

TEST(NormalizeTest, SemanticsOnRandomPrograms) {
  for (unsigned Seed = 1; Seed <= 10; ++Seed) {
    RandomProgramOptions Opts;
    Opts.Seed = Seed * 8111;
    Opts.Shape = static_cast<CfgShape>(Seed % 5);
    Function F = generateRandomProgram(Opts);
    Function Before = F;
    normalizeWebNames(F);
    std::string Err;
    ASSERT_TRUE(verifyFunction(F, Err)) << Err;
    expectSameSemantics(Before, F, Seed, "seed " + std::to_string(Seed));
  }
}
