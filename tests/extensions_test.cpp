//===- tests/extensions_test.cpp - Extensions beyond the green path -------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Covers the Goodman-Hsu integrated prepass scheduler, the extended
// kernel suite, parser fuzzing via generated programs, and
// cross-analysis consistency invariants.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Liveness.h"
#include "analysis/Webs.h"
#include "core/FalseDependenceGraph.h"
#include "core/PinterAllocator.h"
#include "core/RegionHoist.h"
#include "ir/IRBuilder.h"
#include "ir/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/MachineConfig.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/InterferenceGraph.h"
#include "sched/EPTimes.h"
#include "sched/IntegratedPrepass.h"
#include "sched/ListScheduler.h"
#include "support/UndirectedGraph.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace pira;

//===----------------------------------------------------------------------===//
// Goodman-Hsu integrated prepass scheduler
//===----------------------------------------------------------------------===//

TEST(IpsTest, PreservesSemanticsOnAllKernels) {
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Function F = Kernel;
    integratedPrepassSchedule(F, MachineModel::rs6000(6), 6);
    std::string Err;
    ASSERT_TRUE(verifyFunction(F, Err)) << Name << ": " << Err;
    ExecResult RA = interpret(Kernel, makeInitialState(Kernel, 8));
    ExecResult RB = interpret(F, makeInitialState(F, 8));
    ASSERT_TRUE(RA.Completed) << Name;
    ASSERT_TRUE(RB.Completed) << Name << ": " << RB.Error;
    EXPECT_TRUE(statesEquivalent(RA.Final, RB.Final)) << Name;
    if (RA.HasReturnValue) {
      EXPECT_EQ(RA.ReturnValue, RB.ReturnValue) << Name;
    }
  }
}

TEST(IpsTest, SwitchesToPressureModeWhenTight) {
  // matmul3x3 holds 18 loaded values: with a limit of 4 the scheduler
  // must spend decisions in CSR (register-reducing) mode.
  Function F = matmul3x3();
  IpsStats S = integratedPrepassSchedule(F, MachineModel::rs6000(4), 4);
  EXPECT_GT(S.CsrDecisions, 0u);
  EXPECT_GT(S.CspDecisions, 0u);
}

TEST(IpsTest, StaysInPipelineModeWhenRelaxed) {
  Function F = paperExample2();
  IpsStats S = integratedPrepassSchedule(F, MachineModel::rs6000(64), 64);
  EXPECT_EQ(S.CsrDecisions, 0u);
}

TEST(IpsTest, ReducesPressureVersusSchedFirstOnMatmul) {
  // The point of IPS: fewer spills than pressure-oblivious prepass
  // scheduling under the same budget.
  MachineModel M = MachineModel::rs6000(5);
  PipelineResult Ips =
      runStrategy(StrategyKind::IntegratedPrepass, matmul3x3(), M);
  PipelineResult Sf =
      runStrategy(StrategyKind::SchedFirst, matmul3x3(), M);
  ASSERT_TRUE(Ips.Success);
  ASSERT_TRUE(Sf.Success);
  EXPECT_LE(Ips.SpilledWebs, Sf.SpilledWebs);
}

TEST(IpsTest, StrategyRunsEndToEnd) {
  MachineModel M = MachineModel::vliw4(6);
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult R =
        runAndMeasure(StrategyKind::IntegratedPrepass, Kernel, M);
    ASSERT_TRUE(R.Success) << Name << ": " << R.Error;
    EXPECT_TRUE(R.SemanticsPreserved) << Name;
  }
}

TEST(IpsTest, NameIsStable) {
  EXPECT_STREQ(strategyName(StrategyKind::IntegratedPrepass),
               "goodman-hsu-ips");
}

//===----------------------------------------------------------------------===//
// Extended kernels
//===----------------------------------------------------------------------===//

TEST(ExtendedKernelsTest, AllVerifyAndTerminate) {
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    std::string Err;
    EXPECT_TRUE(verifyFunction(Kernel, Err)) << Name << ": " << Err;
    ExecResult R = interpret(Kernel, makeInitialState(Kernel, 12));
    EXPECT_TRUE(R.Completed) << Name << ": " << R.Error;
  }
}

TEST(ExtendedKernelsTest, TridiagonalIsSerial) {
  // The recurrence forbids cross-iteration overlap: the loop block's
  // critical path should span nearly the whole block.
  Function F = tridiagonal();
  MachineModel M = MachineModel::rs6000(16);
  FunctionSchedule S = scheduleFunction(F, M);
  DependenceGraph G(F, 1, M);
  std::vector<unsigned> EP = computeEP(G);
  unsigned CP = 0;
  for (unsigned V = 0; V != G.size(); ++V)
    CP = std::max(CP, EP[V]);
  EXPECT_GE(S.Blocks[1].Makespan, CP + 1);
}

TEST(ExtendedKernelsTest, Matmul3HasHighPressure) {
  Function F = matmul3x3();
  Webs W(F);
  InterferenceGraph IG(F, W);
  EXPECT_GE(IG.maxLivePressure(), 12u);
}

TEST(ExtendedKernelsTest, TwoLoopsHasTwoRegions) {
  Function F = twoLoops();
  ExecResult R = interpret(F, makeInitialState(F, 3));
  ASSERT_TRUE(R.Completed);
  // Loop-carried values must stay correct across both loops: every
  // strategy agrees with the interpreter.
  MachineModel M = MachineModel::rs6000(6);
  PipelineResult P = runAndMeasure(StrategyKind::Combined, F, M);
  ASSERT_TRUE(P.Success) << P.Error;
  EXPECT_TRUE(P.SemanticsPreserved);
}

TEST(ExtendedKernelsTest, ConvolutionUsesFma) {
  Function F = convolve5(1);
  bool SawFma = false;
  for (const Instruction &I : F.block(1).instructions())
    SawFma |= I.opcode() == Opcode::FMA;
  EXPECT_TRUE(SawFma);
}

//===----------------------------------------------------------------------===//
// Parser fuzzing: round-trip every random program
//===----------------------------------------------------------------------===//

namespace {
class ParserFuzz : public testing::TestWithParam<unsigned> {};
} // namespace

TEST_P(ParserFuzz, PrintParseRoundTrip) {
  RandomProgramOptions Opts;
  Opts.Seed = GetParam() * 31337;
  Opts.Shape = static_cast<CfgShape>(GetParam() % 5);
  Opts.InstructionsPerBlock = 8 + GetParam() % 12;
  Function F = generateRandomProgram(Opts);
  std::string Text = functionToString(F);
  Function G;
  std::string Err;
  ASSERT_TRUE(parseFunction(Text, G, Err)) << Err;
  EXPECT_EQ(functionToString(G), Text);
  ExecResult RA = interpret(F, makeInitialState(F, 5));
  ExecResult RB = interpret(G, makeInitialState(G, 5));
  ASSERT_TRUE(RA.Completed);
  ASSERT_TRUE(RB.Completed);
  EXPECT_TRUE(statesEquivalent(RA.Final, RB.Final));
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ParserFuzz, testing::Range(1u, 21u));

//===----------------------------------------------------------------------===//
// Cross-analysis consistency invariants
//===----------------------------------------------------------------------===//

namespace {
class ConsistencySweep : public testing::TestWithParam<unsigned> {};

Function consistencyProgram(unsigned Seed) {
  RandomProgramOptions Opts;
  Opts.Seed = Seed * 977;
  Opts.Shape = static_cast<CfgShape>(Seed % 5);
  Opts.InstructionsPerBlock = 12;
  return generateRandomProgram(Opts);
}
} // namespace

TEST_P(ConsistencySweep, WebLivenessAgreesWithRegisterLiveness) {
  // If a web is live-in at a block, its register must be live-in too
  // (web liveness refines register liveness).
  Function F = consistencyProgram(GetParam());
  Webs W(F);
  Liveness L(F);
  InterferenceGraph IG(F, W);
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BitVector &LiveW = IG.liveIn(B);
    for (int Web = LiveW.findFirst(); Web != -1;
         Web = LiveW.findNext(static_cast<unsigned>(Web)))
      EXPECT_TRUE(L.isLiveIn(B, W.webRegister(static_cast<unsigned>(Web))))
          << "block " << B << " web " << Web;
  }
}

TEST_P(ConsistencySweep, InterferingWebsNeverShareAColor) {
  // Direct validation of allocation correctness, independent of the
  // interpreter: after Chaitin coloring, adjacent webs differ.
  Function F = consistencyProgram(GetParam());
  Webs W(F);
  InterferenceGraph IG(F, W);
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = chaitinColor(IG.graph(), Costs, 64);
  ASSERT_TRUE(A.fullyColored());
  for (const auto &[X, Y] : IG.graph().edgeList())
    EXPECT_NE(A.ColorOfWeb[X], A.ColorOfWeb[Y]);
}

TEST_P(ConsistencySweep, AmpleMachineMakespanEqualsCriticalPath) {
  // With unbounded resources the list scheduler must achieve the
  // latency-weighted critical path exactly.
  Function F = consistencyProgram(GetParam());
  MachineModel Wide("wide", {16, 16, 16, 16, 16}, /*IssueWidth=*/64, 64);
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    DependenceGraph G(F, B, Wide);
    std::vector<unsigned> EP = computeEP(G);
    unsigned CP = 0;
    for (unsigned V = 0; V != G.size(); ++V)
      CP = std::max(CP, EP[V]);
    BlockSchedule S = scheduleBlockFor(F, B, G, Wide);
    EXPECT_EQ(S.Makespan, CP + 1) << "block " << B;
  }
}

TEST_P(ConsistencySweep, EpIsPointwiseLowerBoundOnAnySchedule) {
  Function F = consistencyProgram(GetParam());
  MachineModel M = MachineModel::rs6000(64);
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    DependenceGraph G(F, B, M);
    std::vector<unsigned> EP = computeEP(G);
    BlockSchedule S = scheduleBlockFor(F, B, G, M);
    for (unsigned V = 0; V != G.size(); ++V)
      EXPECT_GE(S.CycleOf[V], EP[V]) << "block " << B << " inst " << V;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConsistencySweep, testing::Range(1u, 16u));

//===----------------------------------------------------------------------===//
// Machine description parsing
//===----------------------------------------------------------------------===//

TEST(MachineConfigTest, ParsesFullDescription) {
  const char *Text = "machine dsp\n"
                     "width 4\n"
                     "regs 6\n"
                     "units fixed=1 float=2 mem=1 branch=1 move=2\n"
                     "latency load=3 fmul=2\n";
  std::string Err;
  std::optional<MachineModel> M = parseMachineModel(Text, Err);
  ASSERT_TRUE(M.has_value()) << Err;
  EXPECT_EQ(M->name(), "dsp");
  EXPECT_EQ(M->issueWidth(), 4u);
  EXPECT_EQ(M->numPhysRegs(), 6u);
  EXPECT_EQ(M->units(UnitKind::FPU), 2u);
  EXPECT_EQ(M->units(UnitKind::Move), 2u);
  EXPECT_EQ(M->latency(Opcode::Load), 3u);
  EXPECT_EQ(M->latency(Opcode::FMul), 2u);
  EXPECT_EQ(M->latency(Opcode::Add), 1u) << "defaults preserved";
}

TEST(MachineConfigTest, DefaultsWhenDirectivesOmitted) {
  std::string Err;
  std::optional<MachineModel> M = parseMachineModel("machine tiny\n", Err);
  ASSERT_TRUE(M.has_value()) << Err;
  EXPECT_EQ(M->issueWidth(), 1u);
  EXPECT_EQ(M->units(UnitKind::IntALU), 1u);
}

TEST(MachineConfigTest, CommentsAndBlankLines) {
  const char *Text = "# a core\n\nmachine c # trailing\nwidth 2\n";
  std::string Err;
  std::optional<MachineModel> M = parseMachineModel(Text, Err);
  ASSERT_TRUE(M.has_value()) << Err;
  EXPECT_EQ(M->issueWidth(), 2u);
}

TEST(MachineConfigTest, RejectsBadDirective) {
  std::string Err;
  EXPECT_FALSE(parseMachineModel("frequency 3GHz\n", Err).has_value());
  EXPECT_NE(Err.find("unknown directive"), std::string::npos);
}

TEST(MachineConfigTest, RejectsBadUnitSpec) {
  std::string Err;
  EXPECT_FALSE(parseMachineModel("units turbo=2\n", Err).has_value());
  EXPECT_FALSE(parseMachineModel("units fixed=0\n", Err).has_value());
  EXPECT_FALSE(parseMachineModel("units fixed\n", Err).has_value());
  // 2^32 + 1 would wrap to a valid-looking 1.
  EXPECT_FALSE(parseMachineModel("units fixed=4294967297\n", Err).has_value());
  EXPECT_EQ(Err, "line 1: bad unit spec 'fixed=4294967297' (want class=count)");
}

TEST(MachineConfigTest, RejectsZeroRegisters) {
  // A zero register file would send every allocator into an endless
  // spill loop; the error names the offending line, as for width 0.
  std::string Err;
  EXPECT_FALSE(
      parseMachineModel("machine zero\nwidth 2\nregs 0\n", Err).has_value());
  EXPECT_EQ(Err, "line 3: expected 'regs <positive integer>'");
  EXPECT_FALSE(parseMachineModel("width 0\n", Err).has_value());
  EXPECT_EQ(Err, "line 1: expected 'width <positive integer>'");
  // Out-of-range counts are rejected, never wrapped modulo 2^32 (to 2
  // registers and width 1 here).
  EXPECT_FALSE(
      parseMachineModel("machine big\nregs 4294967298\n", Err).has_value());
  EXPECT_EQ(Err, "line 2: expected 'regs <positive integer>'");
  EXPECT_FALSE(parseMachineModel("regs 99999999999999999999\n", Err)
                   .has_value());
  EXPECT_EQ(Err, "line 1: expected 'regs <positive integer>'");
  EXPECT_FALSE(parseMachineModel("width 4294967297\n", Err).has_value());
  EXPECT_EQ(Err, "line 1: expected 'width <positive integer>'");
  std::optional<MachineModel> One = parseMachineModel("regs 1\n", Err);
  ASSERT_TRUE(One.has_value()) << Err;
  EXPECT_EQ(One->numPhysRegs(), 1u);
}

TEST(MachineConfigTest, RejectsBadLatency) {
  std::string Err;
  EXPECT_FALSE(parseMachineModel("latency frobnicate=2\n", Err).has_value());
  EXPECT_FALSE(parseMachineModel("latency load=0\n", Err).has_value());
  // 2^32 + 3 would wrap to a valid-looking 3.
  EXPECT_FALSE(
      parseMachineModel("latency load=4294967299\n", Err).has_value());
  EXPECT_EQ(Err,
            "line 1: bad latency spec 'load=4294967299' (want opcode=cycles)");
}

TEST(MachineConfigTest, RoundTripsEveryPreset) {
  for (MachineModel M :
       {MachineModel::scalar(), MachineModel::paperTwoUnit(),
        MachineModel::mipsR3000(), MachineModel::rs6000(),
        MachineModel::vliw4()}) {
    std::string Text = machineModelToString(M);
    std::string Err;
    std::optional<MachineModel> Parsed = parseMachineModel(Text, Err);
    ASSERT_TRUE(Parsed.has_value()) << M.name() << ": " << Err;
    EXPECT_EQ(Parsed->name(), M.name());
    EXPECT_EQ(Parsed->issueWidth(), M.issueWidth());
    EXPECT_EQ(Parsed->numPhysRegs(), M.numPhysRegs());
    for (unsigned K = 0; K != NumUnitKinds; ++K)
      EXPECT_EQ(Parsed->units(static_cast<UnitKind>(K)),
                M.units(static_cast<UnitKind>(K)));
    for (unsigned I = 0; I != NumOpcodes; ++I)
      EXPECT_EQ(Parsed->latency(static_cast<Opcode>(I)),
                M.latency(static_cast<Opcode>(I)));
  }
}

//===----------------------------------------------------------------------===//
// Region hoisting (cross-block code motion within plausible chains)
//===----------------------------------------------------------------------===//

TEST(RegionHoistTest, MergesStraightLineChains) {
  // entry -> body -> exit: body's computation hoists into entry.
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.loadImm(3);
  B.br(1);
  B.startBlock("body");
  Reg C = B.binary(Opcode::Add, A, A);
  Reg D = B.binary(Opcode::Mul, C, A);
  B.br(2);
  B.startBlock("exit");
  B.ret(D);
  unsigned Moved = regionHoist(F);
  EXPECT_EQ(Moved, 2u);
  EXPECT_EQ(F.block(0).size(), 4u) << "li, add, mul, br";
  EXPECT_EQ(F.block(1).size(), 1u) << "only the branch remains";
  std::string Err;
  EXPECT_TRUE(verifyFunction(F, Err)) << Err;
  ExecResult R = interpret(F, makeInitialState(F, 1));
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReturnValue, 18);
}

TEST(RegionHoistTest, NeverHoistsOutOfLoops) {
  Function F = dotProduct(2);
  Function Before = F;
  regionHoist(F);
  // The loop block must be untouched (hoisting across a back edge would
  // change execution counts).
  ASSERT_EQ(F.block(1).size(), Before.block(1).size());
  for (unsigned I = 0; I != F.block(1).size(); ++I)
    EXPECT_EQ(F.block(1).inst(I).opcode(), Before.block(1).inst(I).opcode());
}

TEST(RegionHoistTest, StoresStayHome) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.loadImm(5);
  B.br(1);
  B.startBlock("body");
  B.store("out", A, NoReg, 0);
  B.br(2);
  B.startBlock("exit");
  B.ret();
  regionHoist(F);
  EXPECT_EQ(F.block(1).inst(0).opcode(), Opcode::Store);
}

TEST(RegionHoistTest, LoadPinnedByStoreLeftBehind) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg A = B.loadImm(5);
  B.br(1);
  B.startBlock("body");
  B.store("buf", A, NoReg, 0); // stays (stores never hoist)
  Reg L = B.load("buf", NoReg, 0); // must not float above the store
  B.br(2);
  B.startBlock("exit");
  B.ret(L);
  regionHoist(F);
  // The load stays in body, after the store.
  ASSERT_GE(F.block(1).size(), 3u);
  EXPECT_EQ(F.block(1).inst(0).opcode(), Opcode::Store);
  EXPECT_EQ(F.block(1).inst(1).opcode(), Opcode::Load);
  ExecResult R = interpret(F, makeInitialState(F, 1));
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReturnValue, 5);
}

TEST(RegionHoistTest, DiamondArmStoreBlocksJoinLoad) {
  // entry -> (then | else) -> join; then-arm stores into buf, the join
  // loads it: the load is pinned by the intervening store.
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C = B.load("c", NoReg, 0);
  Reg V = B.loadImm(9);
  B.condBr(C, 1, 2);
  B.startBlock("then");
  B.store("buf", V, NoReg, 0);
  B.br(3);
  B.startBlock("else");
  B.br(3);
  B.startBlock("join");
  Reg L = B.load("buf", NoReg, 0);
  B.ret(L);
  regionHoist(F);
  // join's load must not hoist into entry.
  EXPECT_EQ(F.block(3).inst(0).opcode(), Opcode::Load);
  ExecResult R = interpret(F, makeInitialState(F, 7));
  ASSERT_TRUE(R.Completed) << R.Error;
}

TEST(RegionHoistTest, RedefinedRegisterNotHoisted) {
  // join redefines the same symbolic register written in entry and read
  // in the then-arm; hoisting it would clobber the arm's read.
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C = B.load("c", NoReg, 0);
  Reg X = B.loadImm(1);
  B.condBr(C, 1, 2);
  B.startBlock("then");
  B.store("out", X, NoReg, 0); // reads X's first value
  B.br(3);
  B.startBlock("else");
  B.br(3);
  B.startBlock("join");
  B.loadImmInto(X, 2); // second web of the same register
  B.ret(X);
  Function Before = F;
  regionHoist(F);
  // The redefinition must stay in the join block.
  EXPECT_EQ(F.block(3).size(), Before.block(3).size());
  ExecResult RA = interpret(Before, makeInitialState(Before, 3));
  ExecResult RB = interpret(F, makeInitialState(F, 3));
  ASSERT_TRUE(RA.Completed);
  ASSERT_TRUE(RB.Completed);
  EXPECT_TRUE(statesEquivalent(RA.Final, RB.Final));
  EXPECT_EQ(RA.ReturnValue, RB.ReturnValue);
}

TEST(RegionHoistTest, SemanticsPreservedOnRandomPrograms) {
  for (unsigned Seed = 1; Seed <= 15; ++Seed) {
    RandomProgramOptions Opts;
    Opts.Seed = Seed * 557;
    Opts.Shape = static_cast<CfgShape>(Seed % 5);
    Opts.InstructionsPerBlock = 12;
    Function F = generateRandomProgram(Opts);
    Function Before = F;
    regionHoist(F);
    std::string Err;
    ASSERT_TRUE(verifyFunction(F, Err)) << "seed " << Seed << ": " << Err;
    ExecResult RA = interpret(Before, makeInitialState(Before, Seed));
    ExecResult RB = interpret(F, makeInitialState(F, Seed));
    ASSERT_TRUE(RA.Completed) << "seed " << Seed;
    ASSERT_TRUE(RB.Completed) << "seed " << Seed << ": " << RB.Error;
    EXPECT_TRUE(statesEquivalent(RA.Final, RB.Final)) << "seed " << Seed;
    EXPECT_EQ(RA.ReturnValue, RB.ReturnValue) << "seed " << Seed;
  }
}

TEST(RegionHoistTest, SemanticsPreservedOnKernels) {
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Function F = Kernel;
    regionHoist(F);
    std::string Err;
    ASSERT_TRUE(verifyFunction(F, Err)) << Name << ": " << Err;
    ExecResult RA = interpret(Kernel, makeInitialState(Kernel, 21));
    ExecResult RB = interpret(F, makeInitialState(F, 21));
    ASSERT_TRUE(RA.Completed) << Name;
    ASSERT_TRUE(RB.Completed) << Name << ": " << RB.Error;
    EXPECT_TRUE(statesEquivalent(RA.Final, RB.Final)) << Name;
  }
}

TEST(RegionHoistTest, CombinedWithRegionsStillSoundEndToEnd) {
  PinterOptions Opts;
  Opts.UseRegions = true;
  MachineModel M = MachineModel::vliw4(8);
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult R =
        runAndMeasure(StrategyKind::Combined, Kernel, M, Opts);
    ASSERT_TRUE(R.Success) << Name << ": " << R.Error;
    EXPECT_TRUE(R.SemanticsPreserved) << Name;
  }
}

TEST(RegionHoistTest, WideningTheWindowHelpsStraightLineCycles) {
  // Straight-line random programs split across blocks: hoisting merges
  // the window and should never lose cycles on a wide machine.
  MachineModel M = MachineModel::vliw4(12);
  PinterOptions Plain;
  PinterOptions Regions;
  Regions.UseRegions = true;
  unsigned Better = 0, Worse = 0;
  for (unsigned Seed = 1; Seed <= 8; ++Seed) {
    RandomProgramOptions Opts;
    Opts.Seed = Seed * 7717;
    Opts.Shape = CfgShape::Straight;
    Opts.InstructionsPerBlock = 10;
    Function F = generateRandomProgram(Opts);
    PipelineResult A = runAndMeasure(StrategyKind::Combined, F, M, Plain);
    PipelineResult B = runAndMeasure(StrategyKind::Combined, F, M, Regions);
    ASSERT_TRUE(A.Success) << A.Error;
    ASSERT_TRUE(B.Success) << B.Error;
    if (B.DynCycles < A.DynCycles)
      ++Better;
    if (B.DynCycles > A.DynCycles)
      ++Worse;
  }
  EXPECT_GT(Better, 0u) << "hoisting should win somewhere";
  EXPECT_GE(Better, Worse);
}

