//===- tests/ir_test.cpp - IR layer unit tests ----------------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "ir/IRBuilder.h"
#include "ir/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <limits>

using namespace pira;

//===----------------------------------------------------------------------===//
// Opcode metadata
//===----------------------------------------------------------------------===//

TEST(OpcodeTest, EveryOpcodeHasAName) {
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    const OpcodeInfo &Info = opcodeInfo(static_cast<Opcode>(I));
    EXPECT_NE(Info.Name, nullptr);
    EXPECT_GT(std::string(Info.Name).size(), 0u);
    EXPECT_GE(Info.DefaultLatency, 1u);
  }
}

TEST(OpcodeTest, UnitRouting) {
  EXPECT_EQ(opcodeInfo(Opcode::Add).Unit, UnitKind::IntALU);
  EXPECT_EQ(opcodeInfo(Opcode::FMul).Unit, UnitKind::FPU);
  EXPECT_EQ(opcodeInfo(Opcode::Load).Unit, UnitKind::Memory);
  EXPECT_EQ(opcodeInfo(Opcode::Store).Unit, UnitKind::Memory);
  EXPECT_EQ(opcodeInfo(Opcode::Br).Unit, UnitKind::Branch);
}

TEST(OpcodeTest, TerminatorsAndMemoryFlags) {
  EXPECT_TRUE(opcodeInfo(Opcode::Br).IsTerminator);
  EXPECT_TRUE(opcodeInfo(Opcode::CondBr).IsTerminator);
  EXPECT_TRUE(opcodeInfo(Opcode::Ret).IsTerminator);
  EXPECT_FALSE(opcodeInfo(Opcode::Add).IsTerminator);
  EXPECT_TRUE(opcodeInfo(Opcode::Load).IsMemory);
  EXPECT_TRUE(opcodeInfo(Opcode::Store).IsMemory);
  EXPECT_FALSE(opcodeInfo(Opcode::Store).HasDef);
  EXPECT_TRUE(opcodeInfo(Opcode::Load).HasDef);
}

TEST(OpcodeTest, UnitKindNames) {
  EXPECT_STREQ(unitKindName(UnitKind::IntALU), "fixed");
  EXPECT_STREQ(unitKindName(UnitKind::FPU), "float");
  EXPECT_STREQ(unitKindName(UnitKind::Memory), "mem");
  EXPECT_STREQ(unitKindName(UnitKind::Branch), "branch");
}

//===----------------------------------------------------------------------===//
// Function / IRBuilder
//===----------------------------------------------------------------------===//

TEST(FunctionTest, BuilderProducesVerifiedFunction) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.loadImm(2);
  Reg C = B.binary(Opcode::Add, A, A);
  B.ret(C);
  std::string Err;
  EXPECT_TRUE(verifyFunction(F, Err)) << Err;
  EXPECT_EQ(F.numBlocks(), 1u);
  EXPECT_EQ(F.totalInstructions(), 3u);
  EXPECT_EQ(F.numRegs(), 2u);
}

TEST(FunctionTest, PredecessorsComputedFromTargets) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C = B.loadImm(1);
  B.condBr(C, 1, 2);
  B.startBlock("a");
  B.br(3);
  B.startBlock("b");
  B.br(3);
  B.startBlock("join");
  B.ret();
  auto Preds = F.predecessors();
  EXPECT_TRUE(Preds[0].empty());
  EXPECT_EQ(Preds[1], std::vector<unsigned>{0});
  EXPECT_EQ(Preds[2], std::vector<unsigned>{0});
  EXPECT_EQ(Preds[3], (std::vector<unsigned>{1, 2}));
}

TEST(FunctionTest, DeclareArrayWidensNotShrinks) {
  Function F("t");
  F.declareArray("a", 10);
  F.declareArray("a", 5);
  EXPECT_EQ(F.arraySize("a"), 10u);
  F.declareArray("a", 20);
  EXPECT_EQ(F.arraySize("a"), 20u);
  EXPECT_EQ(F.arraySize("missing"), 0u);
}

TEST(FunctionTest, FindBlockByLabel) {
  Function F("t");
  F.addBlock("one");
  F.addBlock("two");
  EXPECT_EQ(F.findBlock("two"), 1);
  EXPECT_EQ(F.findBlock("nope"), -1);
}

//===----------------------------------------------------------------------===//
// Printer / Parser round trip
//===----------------------------------------------------------------------===//

static Function buildRichFunction() {
  Function F("rich");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg I = B.loadImm(0);
  Reg N = B.loadImm(8);
  Reg One = B.loadImm(1);
  B.br(1);
  B.startBlock("loop");
  Reg X = B.load("a", I, 2);
  Reg Y = B.load("b", NoReg, 0);
  Reg S = B.binary(Opcode::FAdd, X, Y);
  B.store("c", S, I, 0);
  B.binaryInto(I, Opcode::Add, I, One);
  Reg Cmp = B.binary(Opcode::CmpLt, I, N);
  B.condBr(Cmp, 1, 2);
  B.startBlock("exit");
  B.ret(S);
  F.declareArray("a", 16);
  F.declareArray("b", 1);
  F.declareArray("c", 16);
  return F;
}

TEST(ParserTest, RoundTripPreservesText) {
  Function F = buildRichFunction();
  std::string Text = functionToString(F);
  Function G;
  std::string Err;
  ASSERT_TRUE(parseFunction(Text, G, Err)) << Err;
  EXPECT_EQ(functionToString(G), Text);
}

TEST(ParserTest, RoundTripPreservesSemantics) {
  Function F = buildRichFunction();
  Function G;
  std::string Err;
  ASSERT_TRUE(parseFunction(functionToString(F), G, Err)) << Err;
  ExecResult A = interpret(F, makeInitialState(F, 3));
  ExecResult B = interpret(G, makeInitialState(G, 3));
  ASSERT_TRUE(A.Completed);
  ASSERT_TRUE(B.Completed);
  EXPECT_EQ(A.ReturnValue, B.ReturnValue);
  EXPECT_TRUE(statesEquivalent(A.Final, B.Final));
}

TEST(ParserTest, ParsesPhysicalRegisters) {
  const char *Text = "func @p regs 2 physical {\n"
                     "block entry:\n"
                     "  %r0 = li 4\n"
                     "  %r1 = add %r0, %r0\n"
                     "  ret %r1\n"
                     "}\n";
  Function F;
  std::string Err;
  ASSERT_TRUE(parseFunction(Text, F, Err)) << Err;
  EXPECT_TRUE(F.isAllocated());
}

TEST(ParserTest, RejectsMixedRegisterKinds) {
  const char *Text = "func @p regs 2 {\n"
                     "block entry:\n"
                     "  %s0 = li 4\n"
                     "  %r1 = add %s0, %s0\n"
                     "  ret %r1\n"
                     "}\n";
  Function F;
  std::string Err;
  EXPECT_FALSE(parseFunction(Text, F, Err));
  EXPECT_NE(Err.find("mixed"), std::string::npos);
}

TEST(ParserTest, RejectsUnknownOpcode) {
  Function F;
  std::string Err;
  EXPECT_FALSE(parseFunction(
      "func @x regs 1 {\nblock e:\n  %s0 = frobnicate 3\n  ret\n}\n", F,
      Err));
  EXPECT_NE(Err.find("unknown opcode"), std::string::npos);
}

TEST(ParserTest, RejectsUndefinedLabel) {
  Function F;
  std::string Err;
  EXPECT_FALSE(
      parseFunction("func @x regs 0 {\nblock e:\n  br nowhere\n}\n", F, Err));
  EXPECT_NE(Err.find("undefined block label"), std::string::npos);
}

TEST(ParserTest, RejectsDuplicateLabel) {
  Function F;
  std::string Err;
  EXPECT_FALSE(parseFunction(
      "func @x regs 0 {\nblock e:\n  ret\nblock e:\n  ret\n}\n", F, Err));
  EXPECT_NE(Err.find("duplicate block label"), std::string::npos);
}

TEST(ParserTest, RejectsTooSmallRegisterDeclaration) {
  Function F;
  std::string Err;
  EXPECT_FALSE(parseFunction(
      "func @x regs 1 {\nblock e:\n  %s5 = li 0\n  ret\n}\n", F, Err));
  EXPECT_NE(Err.find("register count"), std::string::npos);
}

TEST(ParserTest, CommentsAreIgnored) {
  const char *Text = "# leading comment\n"
                     "func @c regs 1 { # trailing\n"
                     "block e:\n"
                     "  %s0 = li 2 # value\n"
                     "  ret %s0\n"
                     "}\n";
  Function F;
  std::string Err;
  ASSERT_TRUE(parseFunction(Text, F, Err)) << Err;
  ExecResult R = interpret(F, makeInitialState(F, 1));
  EXPECT_EQ(R.ReturnValue, 2);
}

TEST(ParserTest, NegativeImmediates) {
  Function F;
  std::string Err;
  ASSERT_TRUE(parseFunction(
      "func @n regs 1 {\nblock e:\n  %s0 = li -42\n  ret %s0\n}\n", F, Err))
      << Err;
  ExecResult R = interpret(F, makeInitialState(F, 1));
  EXPECT_EQ(R.ReturnValue, -42);
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(VerifierTest, AcceptsWellFormed) {
  Function F = buildRichFunction();
  std::string Err;
  EXPECT_TRUE(verifyFunction(F, Err)) << Err;
}

TEST(VerifierTest, RejectsEmptyFunction) {
  Function F("empty");
  std::string Err;
  EXPECT_FALSE(verifyFunction(F, Err));
}

TEST(VerifierTest, RejectsMissingTerminator) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  B.loadImm(1);
  std::string Err;
  EXPECT_FALSE(verifyFunction(F, Err));
  EXPECT_NE(Err.find("terminator"), std::string::npos);
}

TEST(VerifierTest, RejectsOutOfRangeRegister) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.loadImm(1);
  B.ret(A);
  F.setNumRegs(0); // corrupt the declared space
  std::string Err;
  EXPECT_FALSE(verifyFunction(F, Err));
  EXPECT_NE(Err.find("register"), std::string::npos);
}

TEST(VerifierTest, RejectsBranchTargetOutOfRange) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  B.br(0);
  F.block(0).inst(0).setTargets({7});
  std::string Err;
  EXPECT_FALSE(verifyFunction(F, Err));
  EXPECT_NE(Err.find("target"), std::string::npos);
}

TEST(VerifierTest, RejectsOutOfBoundsConstantAddress) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg X = B.load("a", NoReg, 63);
  B.ret(X);
  F.declareArray("a", 16); // already 64 from builder default; stays 64
  // Force a smaller array by rebuilding the declaration.
  Function G("t2");
  IRBuilder B2(G);
  B2.startBlock("entry");
  Reg Y = B2.load("small", NoReg, 80);
  B2.ret(Y);
  std::string Err;
  EXPECT_FALSE(verifyFunction(G, Err));
  EXPECT_NE(Err.find("bounds"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

TEST(InterpreterTest, ArithmeticOpcodes) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(10);
  Reg C = B.loadImm(3);
  Reg Sum = B.binary(Opcode::Add, A, C);    // 13
  Reg Dif = B.binary(Opcode::Sub, Sum, C);  // 10
  Reg Mul = B.binary(Opcode::Mul, Dif, C);  // 30
  Reg Div = B.binary(Opcode::Div, Mul, C);  // 10
  Reg Neg = B.unary(Opcode::Neg, Div);      // -10
  Reg Xor = B.binary(Opcode::Xor, Neg, A);  // -10 ^ 10
  B.ret(Xor);
  ExecResult R = interpret(F, makeInitialState(F, 0));
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReturnValue, (-10 ^ 10));
}

TEST(InterpreterTest, DivisionByZeroYieldsZero) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(10);
  Reg Z = B.loadImm(0);
  B.ret(B.binary(Opcode::Div, A, Z));
  ExecResult R = interpret(F, makeInitialState(F, 0));
  EXPECT_EQ(R.ReturnValue, 0);
}

namespace {

/// Interprets `ret A <Op> B` (or `ret fma A, B, C` / `ret neg A`).
int64_t evalOp(Opcode Op, std::vector<int64_t> Args) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  std::vector<Reg> R;
  for (int64_t V : Args)
    R.push_back(B.loadImm(V));
  Reg Result = Op == Opcode::FMA   ? B.fma(R[0], R[1], R[2])
               : Op == Opcode::Neg ? B.unary(Op, R[0])
                                   : B.binary(Op, R[0], R[1]);
  B.ret(Result);
  ExecResult Res = interpret(F, makeInitialState(F, 0));
  EXPECT_TRUE(Res.Completed);
  return Res.ReturnValue;
}

} // namespace

TEST(InterpreterTest, IntegerArithmeticWrapsInTwosComplement) {
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(evalOp(Opcode::Add, {Max, 1}), Min);
  EXPECT_EQ(evalOp(Opcode::Add, {Min, -1}), Max);
  EXPECT_EQ(evalOp(Opcode::Sub, {Min, 1}), Max);
  EXPECT_EQ(evalOp(Opcode::Mul, {Max, 2}), -2);
  EXPECT_EQ(evalOp(Opcode::Mul, {Min, -1}), Min);
  EXPECT_EQ(evalOp(Opcode::Neg, {Min}), Min);
  EXPECT_EQ(evalOp(Opcode::Div, {Min, -1}), Min);
  EXPECT_EQ(evalOp(Opcode::Div, {Min, 1}), Min);
  EXPECT_EQ(evalOp(Opcode::Div, {-7, 2}), -3);
  EXPECT_EQ(evalOp(Opcode::FMA, {Max, 2, 3}), 1);
  EXPECT_EQ(evalOp(Opcode::Shl, {-1, 63}), Min);
  EXPECT_EQ(evalOp(Opcode::Shl, {3, 62}), Min + (int64_t(1) << 62));
}

TEST(InterpreterTest, IndexedAddressWrapsInTwosComplement) {
  // Index INT64_MAX plus offset 1 wraps to INT64_MIN, which is 0 modulo
  // the 64-element array.
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg V = B.loadImm(11);
  Reg I = B.loadImm(std::numeric_limits<int64_t>::max());
  B.store("a", V, I, 1);
  B.ret(B.load("a", NoReg, 0));
  ExecResult R = interpret(F, makeInitialState(F, 0));
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReturnValue, 11);
}

TEST(InterpreterTest, ShiftsAndCompares) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(5);
  Reg Two = B.loadImm(2);
  Reg Shl = B.binary(Opcode::Shl, A, Two); // 20
  Reg Shr = B.binary(Opcode::Shr, Shl, Two); // 5
  Reg Eq = B.binary(Opcode::CmpEq, Shr, A);  // 1
  Reg Lt = B.binary(Opcode::CmpLt, A, Two);  // 0
  Reg Le = B.binary(Opcode::CmpLe, A, A);    // 1
  Reg Sum = B.binary(Opcode::Add, Eq, Lt);
  B.ret(B.binary(Opcode::Add, Sum, Le));
  ExecResult R = interpret(F, makeInitialState(F, 0));
  EXPECT_EQ(R.ReturnValue, 2);
}

TEST(InterpreterTest, FmaSemantics) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(3);
  Reg C = B.loadImm(4);
  Reg D = B.loadImm(5);
  B.ret(B.fma(A, C, D)); // 3*4+5
  ExecResult R = interpret(F, makeInitialState(F, 0));
  EXPECT_EQ(R.ReturnValue, 17);
}

TEST(InterpreterTest, LoadStoreRoundTrip) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg V = B.loadImm(99);
  B.store("a", V, NoReg, 5);
  Reg L = B.load("a", NoReg, 5);
  B.ret(L);
  ExecResult R = interpret(F, makeInitialState(F, 0));
  EXPECT_EQ(R.ReturnValue, 99);
}

TEST(InterpreterTest, IndexedAddressingWraps) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg V = B.loadImm(7);
  Reg I = B.loadImm(70); // wraps to 70 mod 64 = 6
  B.store("a", V, I, 0);
  Reg L = B.load("a", NoReg, 6);
  B.ret(L);
  ExecResult R = interpret(F, makeInitialState(F, 0));
  EXPECT_EQ(R.ReturnValue, 7);
}

TEST(InterpreterTest, LoopExecutesCorrectCount) {
  // sum = 0; for (i = 0; i < 10; ++i) sum += 2;  => 20
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Sum = B.loadImm(0);
  Reg I = B.loadImm(0);
  Reg N = B.loadImm(10);
  Reg One = B.loadImm(1);
  Reg Two = B.loadImm(2);
  B.br(1);
  B.startBlock("loop");
  B.binaryInto(Sum, Opcode::Add, Sum, Two);
  B.binaryInto(I, Opcode::Add, I, One);
  Reg Cmp = B.binary(Opcode::CmpLt, I, N);
  B.condBr(Cmp, 1, 2);
  B.startBlock("exit");
  B.ret(Sum);
  ExecResult R = interpret(F, makeInitialState(F, 0));
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReturnValue, 20);
}

TEST(InterpreterTest, StepBudgetStopsInfiniteLoop) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("spin");
  B.br(0);
  ExecResult R = interpret(F, makeInitialState(F, 0), /*MaxSteps=*/100);
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(InterpreterTest, InitialStateIsDeterministicPerSeed) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  B.ret(B.load("a", NoReg, 3));
  ExecResult R1 = interpret(F, makeInitialState(F, 11));
  ExecResult R2 = interpret(F, makeInitialState(F, 11));
  ExecResult R3 = interpret(F, makeInitialState(F, 12));
  EXPECT_EQ(R1.ReturnValue, R2.ReturnValue);
  // Different seeds should (overwhelmingly) differ somewhere.
  EXPECT_FALSE(statesEquivalent(R1.Final, R3.Final));
}

TEST(InterpreterTest, StatesEquivalentIgnoresRegisters) {
  ExecState A, B;
  A.Regs = {1, 2, 3};
  B.Regs = {9};
  A.Arrays["m"] = {5, 6};
  B.Arrays["m"] = {5, 6};
  EXPECT_TRUE(statesEquivalent(A, B));
  B.Arrays["m"][1] = 7;
  EXPECT_FALSE(statesEquivalent(A, B));
}
