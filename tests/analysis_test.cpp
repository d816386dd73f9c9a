//===- tests/analysis_test.cpp - Analysis layer unit tests ----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "ClosureOracle.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/Regions.h"
#include "analysis/Webs.h"
#include "ir/IRBuilder.h"
#include "machine/MachineModel.h"
#include "support/Rng.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace pira;

namespace {

/// Returns the set of (From, To, Kind) edges of \p G for compact asserts.
std::set<std::tuple<unsigned, unsigned, DepKind>>
edgeSet(const DependenceGraph &G) {
  std::set<std::tuple<unsigned, unsigned, DepKind>> S;
  for (const DepEdge &E : G.edges())
    S.insert({E.From, E.To, E.Kind});
  return S;
}

bool hasEdgeOfKind(const DependenceGraph &G, unsigned From, unsigned To,
                   DepKind Kind) {
  return edgeSet(G).count({From, To, Kind}) != 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// DependenceGraph
//===----------------------------------------------------------------------===//

TEST(DependenceGraphTest, FlowEdgesFollowDefUse) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);                    // 0
  Reg C = B.loadImm(2);                    // 1
  Reg S = B.binary(Opcode::Add, A, C);     // 2
  B.ret(S);                                // 3
  MachineModel M = MachineModel::scalar();
  DependenceGraph G(F, 0, M);
  EXPECT_TRUE(hasEdgeOfKind(G, 0, 2, DepKind::Flow));
  EXPECT_TRUE(hasEdgeOfKind(G, 1, 2, DepKind::Flow));
  EXPECT_TRUE(hasEdgeOfKind(G, 2, 3, DepKind::Flow));
  EXPECT_FALSE(G.hasEdge(0, 1));
}

TEST(DependenceGraphTest, SymbolicCodeHasNoAntiOrOutputEdges) {
  // The paper's observation: with one register per value, Et contains
  // exactly the real constraints.
  Function F = paperExample2();
  MachineModel M = MachineModel::paperTwoUnit();
  DependenceGraph G(F, 0, M);
  for (const DepEdge &E : G.edges()) {
    EXPECT_NE(E.Kind, DepKind::Anti);
    EXPECT_NE(E.Kind, DepKind::Output);
  }
}

TEST(DependenceGraphTest, AllocatedCodeGrowsAntiAndOutput) {
  // r0 = li; r1 = add r0,r0; r0 = li  — output (0,2) and anti (1,2).
  Function F("t");
  F.setNumRegs(2);
  F.setAllocated(true);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::Add, 1, {0, 0}));
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 2));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {1}));
  MachineModel M = MachineModel::scalar();
  DependenceGraph G(F, 0, M);
  EXPECT_TRUE(hasEdgeOfKind(G, 0, 2, DepKind::Output));
  EXPECT_TRUE(hasEdgeOfKind(G, 1, 2, DepKind::Anti));
}

TEST(DependenceGraphTest, AntiEdgeHasZeroLatency) {
  Function F("t");
  F.setNumRegs(2);
  F.setAllocated(true);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::Add, 1, {0, 0}));
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 2));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {1}));
  DependenceGraph G(F, 0, MachineModel::scalar());
  for (const DepEdge &E : G.edges())
    if (E.Kind == DepKind::Anti) {
      EXPECT_EQ(E.Latency, 0u);
    }
}

TEST(DependenceGraphTest, MemoryOrderingConservative) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg V = B.loadImm(1);          // 0
  Reg I = B.loadImm(2);          // 1
  B.store("a", V, I, 0);         // 2 store a[i]
  Reg L = B.load("a", NoReg, 3); // 3 load a[3]: may alias (reg index)
  B.ret(L);                      // 4
  DependenceGraph G(F, 0, MachineModel::scalar());
  EXPECT_TRUE(hasEdgeOfKind(G, 2, 3, DepKind::Memory));
}

TEST(DependenceGraphTest, DisjointConstantAddressesIndependent) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg V = B.loadImm(1);           // 0
  B.store("a", V, NoReg, 3);      // 1
  Reg L = B.load("a", NoReg, 4);  // 2: provably disjoint from store
  B.ret(L);                       // 3
  DependenceGraph G(F, 0, MachineModel::scalar());
  EXPECT_FALSE(G.hasEdge(1, 2));
}

TEST(DependenceGraphTest, SameBaseDifferentOffsetDisjoint) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg I = B.loadImm(1);          // 0
  Reg V = B.loadImm(2);          // 1
  B.store("a", V, I, 0);         // 2 a[i+0]
  B.store("a", V, I, 1);         // 3 a[i+1]: same base, distinct offset
  B.ret();                       // 4
  DependenceGraph G(F, 0, MachineModel::scalar());
  EXPECT_FALSE(G.hasEdge(2, 3));
}

TEST(DependenceGraphTest, DifferentArraysIndependent) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg V = B.loadImm(1);       // 0
  B.store("a", V, NoReg, 0);  // 1
  B.store("b", V, NoReg, 0);  // 2
  B.ret();                    // 3
  DependenceGraph G(F, 0, MachineModel::scalar());
  EXPECT_FALSE(G.hasEdge(1, 2));
}

TEST(DependenceGraphTest, LoadsCommute) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg I = B.loadImm(0);      // 0
  Reg A = B.load("a", I, 0); // 1
  Reg C = B.load("a", I, 0); // 2: same address, both loads
  Reg S = B.binary(Opcode::Add, A, C);
  B.ret(S);
  DependenceGraph G(F, 0, MachineModel::scalar());
  EXPECT_FALSE(G.hasEdge(1, 2));
}

//===----------------------------------------------------------------------===//
// DependenceGraph: one edge per (From, To). The first kind wins and the
// largest latency is kept. The Theorem 1 check's kind filter rests on it.
//===----------------------------------------------------------------------===//

namespace {

/// An allocated one-block function over registers r0..r3, with array a.
Function allocatedBlock() {
  Function F("t");
  F.setNumRegs(4);
  F.setAllocated(true);
  F.addBlock("e");
  F.declareArray("a", 4);
  return F;
}

Instruction memoryOp(Opcode Op, Reg Def, UseList Uses,
                     int64_t Offset) {
  Instruction I(Op, Def, std::move(Uses), Offset);
  I.setArraySymbol("a");
  return I;
}

/// Returns the edges of \p G from \p From to \p To.
std::vector<DepEdge> edgesBetween(const DependenceGraph &G, unsigned From,
                                  unsigned To) {
  std::vector<DepEdge> Found;
  for (const DepEdge &E : G.edges())
    if (E.From == From && E.To == To)
      Found.push_back(E);
  return Found;
}

} // namespace

TEST(DependenceGraphTest, FlowBeatsOutput) {
  // r0 = li 1; r1 = li 2; r1 = r1 + r0 — instruction 2 reads and rewrites
  // r1, so the flow edge (1, 2) comes first and the output edge merges in.
  Function F = allocatedBlock();
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::LoadImm, 1, {}, 2));
  F.block(0).append(Instruction(Opcode::Add, 1, {1, 0}));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {1}));
  MachineModel M = MachineModel::rs6000();
  DependenceGraph G(F, 0, M);
  std::vector<DepEdge> Found = edgesBetween(G, 1, 2);
  ASSERT_EQ(Found.size(), 1u);
  EXPECT_EQ(Found[0].Kind, DepKind::Flow);
  EXPECT_EQ(Found[0].Latency, M.latency(Opcode::LoadImm));
  EXPECT_EQ(G.predEdges(2).size(), 2u);
}

TEST(DependenceGraphTest, FlowBeatsAnti) {
  // r0 = li 1; r2 = li 3; r3 = r2 + r0; r2 = r3 * r0 — instruction 3
  // rewrites r2, which instruction 2 read, and reads r3, which it wrote.
  Function F = allocatedBlock();
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::LoadImm, 2, {}, 3));
  F.block(0).append(Instruction(Opcode::Add, 3, {2, 0}));
  F.block(0).append(Instruction(Opcode::Mul, 2, {3, 0}));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {2}));
  MachineModel M = MachineModel::rs6000();
  DependenceGraph G(F, 0, M);
  std::vector<DepEdge> Found = edgesBetween(G, 2, 3);
  ASSERT_EQ(Found.size(), 1u);
  EXPECT_EQ(Found[0].Kind, DepKind::Flow);
  EXPECT_EQ(Found[0].Latency, M.latency(Opcode::Add));
  EXPECT_TRUE(hasEdgeOfKind(G, 1, 3, DepKind::Output));
  for (const DepEdge &E : G.edges())
    EXPECT_NE(E.Kind, DepKind::Anti) << E.From << " -> " << E.To;
}

TEST(DependenceGraphTest, MemoryDuplicateKeepsRegisterKind) {
  // r1 = li 7; a[0] = r1; r1 = a[0]; a[1] = r1. The load rewrites the r1
  // the first store read: an anti edge, whose zero latency the memory
  // edge on the same pair raises to the store's. The second store reads
  // the loaded r1: a flow edge, which its equal-latency memory twin
  // leaves alone.
  Function F = allocatedBlock();
  F.block(0).append(Instruction(Opcode::LoadImm, 1, {}, 7));
  F.block(0).append(memoryOp(Opcode::Store, NoReg, {1}, 0));
  F.block(0).append(memoryOp(Opcode::Load, 1, {}, 0));
  F.block(0).append(memoryOp(Opcode::Store, NoReg, {1}, 0));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {}));
  MachineModel M = MachineModel::rs6000();
  M.setLatency(Opcode::Store, 3);
  DependenceGraph G(F, 0, M);

  std::vector<DepEdge> Anti = edgesBetween(G, 1, 2);
  ASSERT_EQ(Anti.size(), 1u);
  EXPECT_EQ(Anti[0].Kind, DepKind::Anti);
  EXPECT_EQ(Anti[0].Latency, 3u);

  std::vector<DepEdge> Flow = edgesBetween(G, 2, 3);
  ASSERT_EQ(Flow.size(), 1u);
  EXPECT_EQ(Flow[0].Kind, DepKind::Flow);
  EXPECT_EQ(Flow[0].Latency, M.latency(Opcode::Load));

  // The two stores to a[0] keep their plain memory edge.
  std::vector<DepEdge> Stores = edgesBetween(G, 1, 3);
  ASSERT_EQ(Stores.size(), 1u);
  EXPECT_EQ(Stores[0].Kind, DepKind::Memory);
  EXPECT_EQ(Stores[0].Latency, 3u);
}

TEST(DependenceGraphTest, ControlEdgesDedupeAgainstTerminatorFlow) {
  // ret r2: its flow edge from the add comes first, and the control
  // edges then add only the instructions that have no edge to it yet.
  Function F = allocatedBlock();
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::LoadImm, 1, {}, 2));
  F.block(0).append(Instruction(Opcode::Add, 2, {0, 1}));
  F.block(0).append(Instruction(Opcode::Mul, 3, {0, 1}));
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {2}));
  MachineModel M = MachineModel::rs6000();
  DependenceGraph G(F, 0, M);
  unsigned Term = F.block(0).size() - 1;
  ASSERT_TRUE(F.block(0).inst(Term).isTerminator());
  ASSERT_EQ(G.predEdges(Term).size(), Term);
  for (unsigned I = 0; I != Term; ++I) {
    std::vector<DepEdge> Found = edgesBetween(G, I, Term);
    ASSERT_EQ(Found.size(), 1u) << "inst " << I;
    bool ReadByBranch = I == 2;
    EXPECT_EQ(Found[0].Kind, ReadByBranch ? DepKind::Flow : DepKind::Control)
        << "inst " << I;
    EXPECT_EQ(Found[0].Latency,
              ReadByBranch ? M.latency(F.block(0).inst(I).opcode()) : 0u)
        << "inst " << I;
  }
  EXPECT_TRUE(G.hasEdge(3, Term));
  EXPECT_FALSE(G.hasEdge(3, 2));
}

TEST(DependenceGraphTest, EverythingPrecedesTerminator) {
  Function F = paperExample2();
  DependenceGraph G(F, 0, MachineModel::paperTwoUnit());
  unsigned Term = F.block(0).size() - 1;
  for (unsigned I = 0; I != Term; ++I)
    EXPECT_TRUE(G.hasPath(I, Term)) << "inst " << I;
}

TEST(DependenceGraphTest, ReachabilityMatchesHasPath) {
  Function F = livermoreHydro(2);
  DependenceGraph G(F, 1, MachineModel::rs6000());
  BitMatrix R = G.reachability();
  for (unsigned U = 0; U != G.size(); ++U)
    for (unsigned V = 0; V != G.size(); ++V)
      EXPECT_EQ(R.test(U, V), G.hasPath(U, V))
          << "pair " << U << "," << V;
}

//===----------------------------------------------------------------------===//
// Reachability: the one-sweep closure
//===----------------------------------------------------------------------===//

namespace {

/// Requires reachability() to equal word-parallel Warshall and the
/// set-based oracle over a matrix of \p G's edges(), and ancestors() to
/// be its transpose.
void expectSweepMatches(const DependenceGraph &G, const std::string &What) {
  unsigned N = G.size();
  BitMatrix Edges(N);
  for (const DepEdge &E : G.edges())
    Edges.set(E.From, E.To);
  BitMatrix Warshall = Edges;
  Warshall.transitiveClosure();
  BitMatrix Sweep = G.reachability();
  ASSERT_EQ(Sweep, Warshall) << What;
  ASSERT_EQ(Sweep, setBasedClosure(Edges)) << What;
  BitMatrix Anc = G.ancestors();
  ASSERT_EQ(Anc.size(), N) << What;
  for (unsigned U = 0; U != N; ++U)
    for (unsigned V = 0; V != N; ++V)
      ASSERT_EQ(Anc.test(V, U), Sweep.test(U, V))
          << What << ": pair " << U << "," << V;
}

} // namespace

TEST(ReachabilityTest, SweepMatchesWarshallAndSetBased) {
  using Pairs = std::vector<std::pair<unsigned, unsigned>>;
  // Degenerate shapes.
  expectSweepMatches(DependenceGraph(0, {}), "empty");
  expectSweepMatches(DependenceGraph(1, {}), "single node");
  expectSweepMatches(DependenceGraph(17, {}), "disconnected 17");
  Pairs Chain, Components, Sink;
  for (unsigned I = 0; I + 1 < 64; ++I)
    Chain.push_back({I, I + 1});
  expectSweepMatches(DependenceGraph(64, Chain), "chain 64");
  for (unsigned I = 0; I + 1 < 40; I += 2)
    Components.push_back({I, I + 1});
  for (unsigned I = 0; I + 3 < 40; I += 7)
    Components.push_back({I, I + 3});
  expectSweepMatches(DependenceGraph(40, Components), "components");
  for (unsigned I = 0; I + 1 < 12; ++I)
    Sink.push_back({I, 11});
  expectSweepMatches(DependenceGraph(12, Sink), "universal sink");
  DependenceGraph Dup(3, {{0, 1}, {0, 1}, {1, 2}, {1, 2}, {0, 2}});
  EXPECT_EQ(Dup.edges().size(), 3u);
  expectSweepMatches(Dup, "duplicate edges");

  // 200 random DAGs in topological numbering, from sparse chains to
  // dense blobs.
  Rng R(0xDA6CEDu);
  for (unsigned Case = 0; Case != 200; ++Case) {
    unsigned N = 1 + static_cast<unsigned>(R.nextBelow(512));
    double Density = static_cast<double>(R.nextBelow(1000)) / 1000.0 * 0.15;
    Pairs E;
    for (unsigned I = 0; I + 1 < N; ++I)
      if (R.nextBelow(100) < 60)
        E.push_back({I, I + 1});
    auto MaxExtra = static_cast<uint64_t>(Density * N) * 4 + 1;
    for (uint64_t K = R.nextBelow(MaxExtra); K != 0; --K) {
      unsigned A = static_cast<unsigned>(R.nextBelow(N));
      unsigned B = static_cast<unsigned>(R.nextBelow(N));
      if (A != B)
        E.push_back({std::min(A, B), std::max(A, B)});
    }
    expectSweepMatches(DependenceGraph(N, E),
                       "case " + std::to_string(Case) + " (N=" +
                           std::to_string(N) + ")");
  }

  // Every block of the kernels and of every CFG shape, on three machines.
  const MachineModel Machines[] = {MachineModel::paperTwoUnit(),
                                   MachineModel::rs6000(),
                                   MachineModel::vliw4()};
  std::vector<std::pair<std::string, Function>> Inputs =
      standardKernelSuite();
  for (CfgShape Shape : {CfgShape::Straight, CfgShape::Diamond,
                         CfgShape::Loop, CfgShape::NestedDiamond,
                         CfgShape::DoubleLoop}) {
    RandomProgramOptions Gen;
    Gen.Shape = Shape;
    Gen.InstructionsPerBlock = 48;
    Gen.MemoryPercent = 25;
    Gen.Seed = 7 + static_cast<unsigned>(Shape);
    Inputs.push_back({"shape " + std::to_string(static_cast<unsigned>(Shape)),
                      generateRandomProgram(Gen)});
  }
  for (const MachineModel &M : Machines)
    for (const auto &[Name, F] : Inputs)
      for (unsigned B = 0; B != F.numBlocks(); ++B)
        expectSweepMatches(DependenceGraph(F, B, M),
                           Name + " block " + std::to_string(B) + " on " +
                               M.name());
}

TEST(DependenceGraphTest, FlowLatencyTracksMachine) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.load("a", NoReg, 0);          // 0: rs6000 load latency 2
  Reg C = B.binary(Opcode::FMul, A, A);   // 1
  B.ret(C);                               // 2
  DependenceGraph G(F, 0, MachineModel::rs6000());
  bool Found = false;
  for (const DepEdge &E : G.edges())
    if (E.From == 0 && E.To == 1 && E.Kind == DepKind::Flow) {
      EXPECT_EQ(E.Latency, 2u);
      Found = true;
    }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

TEST(LivenessTest, StraightLine) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);
  B.br(1);
  B.startBlock("x");
  B.ret(A);
  Liveness L(F);
  EXPECT_TRUE(L.isLiveOut(0, A));
  EXPECT_TRUE(L.isLiveIn(1, A));
  EXPECT_FALSE(L.isLiveIn(0, A));
}

TEST(LivenessTest, LoopCarriedValueLiveAroundBackEdge) {
  Function F = dotProduct(1);
  Liveness L(F);
  // The accumulator (s0) is live into and out of the loop block.
  EXPECT_TRUE(L.isLiveIn(1, 0));
  EXPECT_TRUE(L.isLiveOut(1, 0));
}

TEST(LivenessTest, ValueDeadAfterLastUse) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);
  Reg C = B.binary(Opcode::Add, A, A); // last use of A
  B.br(1);
  B.startBlock("x");
  B.ret(C);
  Liveness L(F);
  EXPECT_FALSE(L.isLiveOut(0, A));
  EXPECT_TRUE(L.isLiveOut(0, C));
}

TEST(LivenessTest, BranchConditionLive) {
  Function F = figure6Diamond();
  Liveness L(F);
  // c2 (reg 1) is used in blocks 1 and 2; live out of entry.
  EXPECT_TRUE(L.isLiveOut(0, 1));
}

TEST(LivenessTest, UpwardExposedVsDefined) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(1);          // def A
  Reg C = B.binary(Opcode::Add, A, A);
  B.ret(C);
  Liveness L(F);
  EXPECT_TRUE(L.defined(0).test(A));
  EXPECT_FALSE(L.upwardExposed(0).test(A));
}

//===----------------------------------------------------------------------===//
// Webs
//===----------------------------------------------------------------------===//

TEST(WebsTest, StraightLineOneWebPerValue) {
  Function F = paperExample2();
  Webs W(F);
  // s0..s8 each have one def and form distinct webs.
  EXPECT_EQ(W.numWebs(), 9u);
  std::set<unsigned> Ids;
  for (unsigned I = 0; I != 9; ++I)
    Ids.insert(W.webOfDef(0, I));
  EXPECT_EQ(Ids.size(), 9u);
}

TEST(WebsTest, Figure6ThreeDefsMergeIntoOneWeb) {
  Function F = figure6Diamond();
  Webs W(F);
  unsigned W1 = W.webOfDef(0, 2); // entry def of x
  unsigned W2 = W.webOfDef(1, 0); // mid def
  unsigned W3 = W.webOfDef(2, 0); // last def
  EXPECT_EQ(W1, W2);
  EXPECT_EQ(W2, W3);
  // The join's ret reads the same compound web.
  EXPECT_EQ(W.webOfUse(3, 0, 0), W1);
  EXPECT_EQ(W.defsOfWeb(W1).size(), 3u);
}

TEST(WebsTest, IndependentDefsOfSameRegisterSplit) {
  // Two defs of one register with disjoint uses: distinct webs.
  Function F("t");
  F.setNumRegs(2);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 1));
  F.block(0).append(Instruction(Opcode::Copy, 1, {0}));
  F.block(0).append(Instruction(Opcode::LoadImm, 0, {}, 2)); // fresh value
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {0}));
  Webs W(F);
  EXPECT_NE(W.webOfDef(0, 0), W.webOfDef(0, 2));
  EXPECT_EQ(W.webOfUse(0, 3, 0), W.webOfDef(0, 2));
}

TEST(WebsTest, LoopCarriedRegisterFormsOneWeb) {
  Function F = dotProduct(1);
  Webs W(F);
  // Sum (reg 0): defined in entry and in the loop; read in loop and exit.
  unsigned EntryDef = W.webOfDef(0, 0);
  // Find the loop redefinition of reg 0.
  unsigned LoopDefIdx = ~0u;
  const BasicBlock &Loop = F.block(1);
  for (unsigned I = 0; I != Loop.size(); ++I)
    if (Loop.inst(I).hasDef() && Loop.inst(I).def() == 0)
      LoopDefIdx = I;
  ASSERT_NE(LoopDefIdx, ~0u);
  EXPECT_EQ(W.webOfDef(1, LoopDefIdx), EntryDef);
  EXPECT_EQ(W.webOfUse(2, 0, 0), EntryDef) << "exit ret reads the web";
}

TEST(WebsTest, FunctionInputGetsEntryDefWeb) {
  Function F("t");
  F.setNumRegs(1);
  F.addBlock("e");
  F.block(0).append(Instruction(Opcode::Ret, NoReg, {0})); // reads input
  Webs W(F);
  ASSERT_EQ(W.numWebs(), 1u);
  EXPECT_TRUE(W.hasEntryDef(0));
  EXPECT_TRUE(W.defsOfWeb(0).empty());
  EXPECT_EQ(W.numUsesOfWeb(0), 1u);
}

TEST(WebsTest, UnusedRegistersProduceNoWebs) {
  Function F("t");
  F.setNumRegs(8); // seven registers never touched
  IRBuilder B(F);
  B.startBlock("e");
  B.ret();
  Webs W(F);
  EXPECT_EQ(W.numWebs(), 0u);
}

TEST(WebsTest, UseCountsAreExact) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("e");
  Reg A = B.loadImm(2);
  Reg C = B.binary(Opcode::Mul, A, A); // two uses of A
  B.ret(C);                            // one use of C
  Webs W(F);
  EXPECT_EQ(W.numUsesOfWeb(W.webOfDef(0, 0)), 2u);
  EXPECT_EQ(W.numUsesOfWeb(W.webOfDef(0, 1)), 1u);
}

//===----------------------------------------------------------------------===//
// Dominators
//===----------------------------------------------------------------------===//

namespace {

/// entry -> {then, else} -> join -> exit, with a loop join -> then.
Function buildCfgFixture() {
  Function F("cfg");
  IRBuilder B(F);
  B.startBlock("entry"); // 0
  Reg C = B.loadImm(1);
  B.condBr(C, 1, 2);
  B.startBlock("then"); // 1
  B.br(3);
  B.startBlock("else"); // 2
  B.br(3);
  B.startBlock("join"); // 3
  Reg D = B.loadImm(0);
  B.condBr(D, 1, 4); // back edge to then
  B.startBlock("exit"); // 4
  B.ret();
  return F;
}

} // namespace

TEST(DominatorsTest, EntryDominatesEverything) {
  Function F = buildCfgFixture();
  DominatorTree D = DominatorTree::forward(F);
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    EXPECT_TRUE(D.dominates(0, B));
}

TEST(DominatorsTest, DiamondArmsDoNotDominateJoin) {
  Function F = buildCfgFixture();
  DominatorTree D = DominatorTree::forward(F);
  EXPECT_FALSE(D.dominates(1, 3));
  EXPECT_FALSE(D.dominates(2, 3));
  EXPECT_EQ(D.idom(3), 0);
  EXPECT_TRUE(D.dominates(3, 4));
}

TEST(DominatorsTest, DominanceIsReflexive) {
  Function F = buildCfgFixture();
  DominatorTree D = DominatorTree::forward(F);
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    EXPECT_TRUE(D.dominates(B, B));
}

TEST(DominatorsTest, PostdominatorsOfDiamond) {
  Function F = buildCfgFixture();
  DominatorTree P = DominatorTree::postdom(F);
  // join postdominates both arms and entry; exit postdominates join.
  EXPECT_TRUE(P.dominates(3, 1));
  EXPECT_TRUE(P.dominates(3, 2));
  EXPECT_TRUE(P.dominates(3, 0));
  EXPECT_TRUE(P.dominates(4, 3));
  EXPECT_FALSE(P.dominates(1, 0));
}

TEST(DominatorsTest, VirtualExitIsRoot) {
  Function F = buildCfgFixture();
  DominatorTree P = DominatorTree::postdom(F);
  EXPECT_EQ(P.root(), F.numBlocks());
  EXPECT_TRUE(P.dominates(F.numBlocks(), 0));
}

TEST(DominatorsTest, UnreachableBlockHandled) {
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  B.ret();
  B.startBlock("orphan");
  B.ret();
  DominatorTree D = DominatorTree::forward(F);
  EXPECT_FALSE(D.isReachable(1));
  EXPECT_FALSE(D.dominates(0, 1));
  EXPECT_TRUE(D.dominates(1, 1));
}

//===----------------------------------------------------------------------===//
// Regions
//===----------------------------------------------------------------------===//

TEST(RegionsTest, ControlEquivalentChainGroups) {
  // entry -> mid -> exit straight line: all control equivalent, acyclic.
  Function F("t");
  IRBuilder B(F);
  B.startBlock("entry");
  B.br(1);
  B.startBlock("mid");
  B.br(2);
  B.startBlock("exit");
  B.ret();
  RegionAnalysis RA(F);
  EXPECT_TRUE(RA.plausiblePair(0, 1));
  EXPECT_TRUE(RA.plausiblePair(1, 2));
  EXPECT_TRUE(RA.plausiblePair(0, 2));
  EXPECT_EQ(RA.regions().size(), 1u);
  EXPECT_EQ(RA.regions()[0].size(), 3u);
}

TEST(RegionsTest, DiamondArmsNotPlausibleWithEntry) {
  Function F = figure6Diamond();
  RegionAnalysis RA(F);
  // entry does not pair with either conditional arm...
  EXPECT_FALSE(RA.plausiblePair(0, 1));
  EXPECT_FALSE(RA.plausiblePair(0, 2));
  // ...but entry and join are control equivalent.
  EXPECT_TRUE(RA.plausiblePair(0, 3));
}

TEST(RegionsTest, LoopRegionsAreConsistent) {
  Function F = dotProduct(1);
  RegionAnalysis RA(F);
  // Acyclicity is judged with back edges removed, so entry/loop/exit are
  // mutually plausible; what matters here is internal consistency: every
  // pair inside one region is plausible and the partition is exact.
  for (const auto &Region : RA.regions())
    for (unsigned B1 : Region)
      for (unsigned B2 : Region)
        if (B1 != B2) {
          EXPECT_TRUE(RA.plausiblePair(B1, B2));
        }
  // Every block lands in exactly one region.
  std::set<unsigned> Seen;
  for (const auto &Region : RA.regions())
    for (unsigned B : Region)
      EXPECT_TRUE(Seen.insert(B).second);
  EXPECT_EQ(Seen.size(), F.numBlocks());
}

TEST(RegionsTest, SelfPairNeverPlausible) {
  Function F = buildCfgFixture();
  RegionAnalysis RA(F);
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    EXPECT_FALSE(RA.plausiblePair(B, B));
}
