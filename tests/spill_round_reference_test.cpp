//===- tests/spill_round_reference_test.cpp - One spill round's oracle ---===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Every Chaitin, Briggs and Section 4 round rebuilds the webs and the
// interference graph and, when it spills, rewrites the code. The three
// layers now run on flat tables: Webs keeps its operands and def sites
// in offsets-plus-values arrays, InterferenceGraph keeps the live set as
// a list beside a position index, and insertSpillCode finds slots and
// reloads in plain arrays. Their first forms are kept here verbatim as
// ReferenceWebs, ReferenceInterferenceGraph and referenceInsertSpillCode
// (the last but for its telemetry). The two sides must agree exactly:
// every web of every def and use operand, each web's def sites in
// order, its register, entry def and use count; every interference row,
// degree, the edge count, the block live sets and the peak pressure; and
// the rewritten function, the spill counts and the pinned registers. The
// inputs are the kernels on four machines at 3, 6 and 12 registers and
// random programs of every CFG shape, through every round of both
// allocators' color/spill/rebuild loops.
//
//===----------------------------------------------------------------------===//

#include "analysis/Webs.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "ir/Function.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/MachineModel.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/PreScheduler.h"
#include "support/BitVector.h"
#include "support/UndirectedGraph.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

using namespace pira;

namespace {

//===----------------------------------------------------------------------===//
// ReferenceWebs: a vector per instruction, per web and per register.
//===----------------------------------------------------------------------===//

/// Plain union-find over dense ids.
class UnionFind {
public:
  explicit UnionFind(unsigned N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0u);
  }

  unsigned find(unsigned X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  void merge(unsigned A, unsigned B) { Parent[find(A)] = find(B); }

private:
  std::vector<unsigned> Parent;
};

/// One definition record: a real site or a register's virtual entry def.
struct DefRecord {
  Reg R;
  bool Virtual;
  unsigned Block; // real defs only
  unsigned Inst;  // real defs only
};

class ReferenceWebs {
public:
  explicit ReferenceWebs(const Function &F);

  unsigned numWebs() const { return static_cast<unsigned>(WebRegs.size()); }
  Reg webRegister(unsigned Web) const { return WebRegs[Web]; }
  unsigned webOfDef(unsigned Block, unsigned Inst) const;
  unsigned webOfUse(unsigned Block, unsigned Inst, unsigned OpIdx) const;
  const std::vector<DefSite> &defsOfWeb(unsigned Web) const {
    return WebDefs[Web];
  }
  bool hasEntryDef(unsigned Web) const { return WebHasEntryDef[Web]; }
  unsigned numUsesOfWeb(unsigned Web) const { return WebUseCounts[Web]; }

private:
  // Dense maps keyed by (block, inst): index of the def record, and for
  // each use operand its web. Built once in the constructor.
  std::vector<std::vector<int>> DefIndexAt;           // -1 when no def
  std::vector<std::vector<std::vector<unsigned>>> UseWebAt;
  std::vector<unsigned> DefWeb;                       // def record -> web
  std::vector<Reg> WebRegs;
  std::vector<std::vector<DefSite>> WebDefs;
  std::vector<bool> WebHasEntryDef;
  std::vector<unsigned> WebUseCounts;
};

ReferenceWebs::ReferenceWebs(const Function &F) {
  unsigned NumBlocks = F.numBlocks();
  unsigned NumRegs = F.numRegs();

  // Enumerate defs: one virtual entry def per register first (so a web
  // with id order starting at real defs stays deterministic), then real
  // defs in program order.
  std::vector<DefRecord> Defs;
  Defs.reserve(NumRegs + F.totalInstructions());
  for (Reg R = 0; R != NumRegs; ++R)
    Defs.push_back({R, /*Virtual=*/true, 0, 0});

  DefIndexAt.resize(NumBlocks);
  UseWebAt.resize(NumBlocks);
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    DefIndexAt[B].assign(BB.size(), -1);
    UseWebAt[B].resize(BB.size());
    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      const Instruction &Inst = BB.inst(I);
      UseWebAt[B][I].assign(Inst.uses().size(), 0);
      if (!Inst.hasDef())
        continue;
      DefIndexAt[B][I] = static_cast<int>(Defs.size());
      Defs.push_back({Inst.def(), /*Virtual=*/false, B, I});
    }
  }
  unsigned NumDefs = static_cast<unsigned>(Defs.size());

  // Per-block Gen (downward-exposed defs) and Kill (all other defs of the
  // registers the block writes).
  std::vector<BitVector> Gen(NumBlocks, BitVector(NumDefs));
  std::vector<BitVector> Kill(NumBlocks, BitVector(NumDefs));
  std::vector<std::vector<unsigned>> DefsOfReg(NumRegs);
  for (unsigned D = 0; D != NumDefs; ++D)
    DefsOfReg[Defs[D].R].push_back(D);

  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      if (DefIndexAt[B][I] < 0)
        continue;
      unsigned D = static_cast<unsigned>(DefIndexAt[B][I]);
      for (unsigned Other : DefsOfReg[Defs[D].R]) {
        Gen[B].reset(Other);
        Kill[B].set(Other);
      }
      Gen[B].set(D);
      Kill[B].reset(D);
    }
  }

  // Entry fact: every virtual def reaches the entry.
  BitVector EntryFact(NumDefs);
  for (Reg R = 0; R != NumRegs; ++R)
    EntryFact.set(R);

  std::vector<std::vector<unsigned>> Preds = F.predecessors();
  std::vector<BitVector> ReachIn(NumBlocks, BitVector(NumDefs));
  std::vector<BitVector> ReachOut(NumBlocks, BitVector(NumDefs));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 0; B != NumBlocks; ++B) {
      BitVector In(NumDefs);
      if (B == 0)
        In.unionWith(EntryFact);
      for (unsigned P : Preds[B])
        In.unionWith(ReachOut[P]);
      BitVector Out = In;
      Out.subtract(Kill[B]);
      Out.unionWith(Gen[B]);
      if (In != ReachIn[B] || Out != ReachOut[B]) {
        ReachIn[B] = std::move(In);
        ReachOut[B] = std::move(Out);
        Changed = true;
      }
    }
  }

  // Bind each use to its reaching defs and union them. Remember one
  // representative def per use operand for later web lookup.
  UnionFind UF(NumDefs);
  std::vector<std::vector<std::vector<unsigned>>> UseDefAt(NumBlocks);
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    UseDefAt[B].resize(BB.size());
    // LocalDef[R]: def index of the latest in-block def of R seen so far.
    std::vector<int> LocalDef(NumRegs, -1);
    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      const Instruction &Inst = BB.inst(I);
      UseDefAt[B][I].assign(Inst.uses().size(), 0);
      for (unsigned Op = 0, OE = static_cast<unsigned>(Inst.uses().size());
           Op != OE; ++Op) {
        Reg R = Inst.uses()[Op];
        unsigned First = ~0u;
        if (LocalDef[R] >= 0) {
          First = static_cast<unsigned>(LocalDef[R]);
        } else {
          for (unsigned D : DefsOfReg[R]) {
            if (!ReachIn[B].test(D))
              continue;
            if (First == ~0u)
              First = D;
            else
              UF.merge(First, D);
          }
          // Unreachable blocks receive no dataflow facts; bind their uses
          // to the register's virtual entry def.
          if (First == ~0u)
            First = R;
        }
        UseDefAt[B][I][Op] = First;
      }
      if (DefIndexAt[B][I] >= 0)
        LocalDef[Inst.def()] = DefIndexAt[B][I];
    }
  }

  // A virtual entry def whose web has no real def and no bound use is an
  // artifact of modeling; skip such webs entirely.
  BitVector RootReferenced(NumDefs);
  for (unsigned D = NumRegs; D != NumDefs; ++D)
    RootReferenced.set(UF.find(D));
  for (unsigned B = 0; B != NumBlocks; ++B)
    for (unsigned I = 0, E = F.block(B).size(); I != E; ++I)
      for (unsigned D : UseDefAt[B][I])
        RootReferenced.set(UF.find(D));

  // Number webs densely in order of first def id; fill the public tables.
  DefWeb.assign(NumDefs, ~0u);
  std::vector<int> RootToWeb(NumDefs, -1);
  for (unsigned D = 0; D != NumDefs; ++D) {
    unsigned Root = UF.find(D);
    if (!RootReferenced.test(Root))
      continue;
    if (RootToWeb[Root] < 0) {
      RootToWeb[Root] = static_cast<int>(WebRegs.size());
      WebRegs.push_back(Defs[D].R);
      WebDefs.emplace_back();
      WebHasEntryDef.push_back(false);
      WebUseCounts.push_back(0);
    }
    unsigned Web = static_cast<unsigned>(RootToWeb[Root]);
    DefWeb[D] = Web;
    if (Defs[D].Virtual)
      WebHasEntryDef[Web] = true;
    else
      WebDefs[Web].push_back({Defs[D].Block, Defs[D].Inst});
  }

  for (unsigned B = 0; B != NumBlocks; ++B)
    for (unsigned I = 0, E = F.block(B).size(); I != E; ++I)
      for (unsigned Op = 0,
                    OE = static_cast<unsigned>(UseDefAt[B][I].size());
           Op != OE; ++Op) {
        unsigned Web = DefWeb[UseDefAt[B][I][Op]];
        UseWebAt[B][I][Op] = Web;
        ++WebUseCounts[Web];
      }
}

unsigned ReferenceWebs::webOfDef(unsigned Block, unsigned Inst) const {
  assert(Block < DefIndexAt.size() && Inst < DefIndexAt[Block].size() &&
         "instruction out of range");
  int D = DefIndexAt[Block][Inst];
  assert(D >= 0 && "instruction has no def");
  return DefWeb[static_cast<unsigned>(D)];
}

unsigned ReferenceWebs::webOfUse(unsigned Block, unsigned Inst,
                        unsigned OpIdx) const {
  assert(Block < UseWebAt.size() && Inst < UseWebAt[Block].size() &&
         OpIdx < UseWebAt[Block][Inst].size() && "use operand out of range");
  return UseWebAt[Block][Inst][OpIdx];
}

//===----------------------------------------------------------------------===//
// ReferenceInterferenceGraph: each def walks the whole live bit row, and
// the row is popcounted after every instruction.
//===----------------------------------------------------------------------===//

struct ReferenceInterferenceGraph {
  ReferenceInterferenceGraph(const Function &F, const Webs &W);

  UndirectedGraph Graph;
  std::vector<BitVector> LiveInW;
  std::vector<BitVector> LiveOutW;
  unsigned MaxPressure = 0;
};

ReferenceInterferenceGraph::ReferenceInterferenceGraph(const Function &F,
                                                       const Webs &W) {
  unsigned NumBlocks = F.numBlocks();
  unsigned NumWebs = W.numWebs();
  Graph = UndirectedGraph(NumWebs);

  // Web-granularity liveness. The web binding already resolves which
  // definition(s) feed each use, so block-local Use/Def sets over webs
  // give exact may-liveness at web level.
  std::vector<BitVector> UseW(NumBlocks, BitVector(NumWebs));
  std::vector<BitVector> DefW(NumBlocks, BitVector(NumWebs));
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      const Instruction &Inst = BB.inst(I);
      for (unsigned Op = 0, OE = static_cast<unsigned>(Inst.uses().size());
           Op != OE; ++Op) {
        unsigned Web = W.webOfUse(B, I, Op);
        if (!DefW[B].test(Web))
          UseW[B].set(Web);
      }
      if (Inst.hasDef())
        DefW[B].set(W.webOfDef(B, I));
    }
  }

  LiveInW.assign(NumBlocks, BitVector(NumWebs));
  LiveOutW.assign(NumBlocks, BitVector(NumWebs));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = NumBlocks; B-- != 0;) {
      BitVector Out(NumWebs);
      for (unsigned Succ : F.block(B).successors())
        Out.unionWith(LiveInW[Succ]);
      BitVector In = Out;
      In.subtract(DefW[B]);
      In.unionWith(UseW[B]);
      if (Out != LiveOutW[B] || In != LiveInW[B]) {
        LiveOutW[B] = std::move(Out);
        LiveInW[B] = std::move(In);
        Changed = true;
      }
    }
  }

  // Webs carrying function inputs are all "defined" together at entry:
  // any two simultaneously live there interfere even though no textual
  // definition exists.
  const BitVector &EntryLive = LiveInW[0];
  for (int A = EntryLive.findFirst(); A != -1;
       A = EntryLive.findNext(static_cast<unsigned>(A)))
    for (int B = EntryLive.findNext(static_cast<unsigned>(A)); B != -1;
         B = EntryLive.findNext(static_cast<unsigned>(B)))
      Graph.addEdge(static_cast<unsigned>(A), static_cast<unsigned>(B));

  // Interference: walk each block backward; at a definition, the defined
  // web conflicts with everything currently live (minus itself). A value
  // whose last use feeds this very instruction is no longer in Live, which
  // implements the paper's open interval endpoint.
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    BitVector Live = LiveOutW[B];
    MaxPressure = std::max(MaxPressure, Live.count());
    for (unsigned I = BB.size(); I-- != 0;) {
      const Instruction &Inst = BB.inst(I);
      if (Inst.hasDef()) {
        unsigned DefWeb = W.webOfDef(B, I);
        for (int Other = Live.findFirst(); Other != -1;
             Other = Live.findNext(static_cast<unsigned>(Other)))
          if (static_cast<unsigned>(Other) != DefWeb)
            Graph.addEdge(DefWeb, static_cast<unsigned>(Other));
        Live.reset(DefWeb);
      }
      for (unsigned Op = 0, OE = static_cast<unsigned>(Inst.uses().size());
           Op != OE; ++Op)
        Live.set(W.webOfUse(B, I, Op));
      MaxPressure = std::max(MaxPressure, Live.count());
    }
  }
}

//===----------------------------------------------------------------------===//
// referenceInsertSpillCode: slots in a std::map, reloads in a std::map per
// instruction.
//===----------------------------------------------------------------------===//

SpillCode referenceInsertSpillCode(Function &F, const Webs &W,
                                   const std::vector<unsigned> &SpillWebs,
                                   std::set<Reg> &NoSpillRegs) {
  SpillCode Code;
  if (SpillWebs.empty())
    return Code;

  // Assign slots past any slots earlier rounds claimed.
  unsigned FirstSlot = F.arraySize(SpillArrayName);
  std::map<unsigned, unsigned> SlotOfWeb;
  for (unsigned I = 0, E = static_cast<unsigned>(SpillWebs.size()); I != E;
       ++I) {
    SlotOfWeb[SpillWebs[I]] = FirstSlot + I;
    NoSpillRegs.insert(W.webRegister(SpillWebs[I]));
  }
  F.declareArray(SpillArrayName,
                 FirstSlot + static_cast<unsigned>(SpillWebs.size()));

  auto MakeLoad = [&](unsigned Slot) {
    Reg Fresh = F.makeReg();
    NoSpillRegs.insert(Fresh);
    Instruction L(Opcode::Load, Fresh, {}, static_cast<int64_t>(Slot));
    L.setArraySymbol(SpillArrayName);
    ++Code.Loads;
    return std::pair<Instruction, Reg>(std::move(L), Fresh);
  };
  auto MakeStore = [&](unsigned Slot, Reg Value) {
    Instruction S(Opcode::Store, NoReg, {Value},
                  static_cast<int64_t>(Slot));
    S.setArraySymbol(SpillArrayName);
    ++Code.Stores;
    return S;
  };

  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    BasicBlock &BB = F.block(B);
    std::vector<Instruction> NewInsts;
    NewInsts.reserve(BB.size());

    // Function-input values of spilled webs materialize in their register
    // at entry; park them in their slot before anything else runs.
    if (B == 0)
      for (unsigned Web : SpillWebs)
        if (W.hasEntryDef(Web))
          NewInsts.push_back(
              MakeStore(SlotOfWeb[Web], W.webRegister(Web)));

    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      Instruction Inst = BB.inst(I);

      // One reload per distinct spilled web feeding this instruction.
      std::map<unsigned, Reg> ReloadOfWeb;
      for (unsigned Op = 0, OE = static_cast<unsigned>(Inst.uses().size());
           Op != OE; ++Op) {
        unsigned Web = W.webOfUse(B, I, Op);
        auto SlotIt = SlotOfWeb.find(Web);
        if (SlotIt == SlotOfWeb.end())
          continue;
        auto ReloadIt = ReloadOfWeb.find(Web);
        if (ReloadIt == ReloadOfWeb.end()) {
          auto [L, Fresh] = MakeLoad(SlotIt->second);
          NewInsts.push_back(std::move(L));
          ReloadIt = ReloadOfWeb.emplace(Web, Fresh).first;
        }
        Inst.setUse(Op, ReloadIt->second);
      }

      bool StoreAfter = false;
      unsigned Slot = 0;
      if (Inst.hasDef()) {
        auto It = SlotOfWeb.find(W.webOfDef(B, I));
        if (It != SlotOfWeb.end()) {
          StoreAfter = true;
          Slot = It->second;
        }
      }
      Reg DefReg = Inst.hasDef() ? Inst.def() : NoReg;
      NewInsts.push_back(std::move(Inst));
      if (StoreAfter)
        NewInsts.push_back(MakeStore(Slot, DefReg));
    }
    BB.instructions() = std::move(NewInsts);
  }
  return Code;
}

//===----------------------------------------------------------------------===//
// Comparisons
//===----------------------------------------------------------------------===//

/// Tallies over a sweep, so a test can show it reached the cases it is
/// meant to cover.
struct RoundTally {
  unsigned Rounds = 0;
  unsigned SpillRounds = 0;
  unsigned MultiDefWebs = 0;
  unsigned EntryDefWebs = 0;
  unsigned SharedReloads = 0; // one reload feeding two operands
  unsigned MultiBlockFunctions = 0;
};

void expectSameWebs(const Function &F, const Webs &Lib,
                    const ReferenceWebs &Ref, const std::string &Where,
                    RoundTally &Tally) {
  ASSERT_EQ(Lib.numWebs(), Ref.numWebs()) << Where;
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    const BasicBlock &BB = F.block(B);
    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      const Instruction &Inst = BB.inst(I);
      if (Inst.hasDef()) {
        ASSERT_EQ(Lib.webOfDef(B, I), Ref.webOfDef(B, I))
            << "def " << B << ":" << I << " " << Where;
      }
      ASSERT_EQ(Lib.websOfUses(B, I).size(), Inst.uses().size()) << Where;
      for (unsigned Op = 0, OE = static_cast<unsigned>(Inst.uses().size());
           Op != OE; ++Op) {
        ASSERT_EQ(Lib.webOfUse(B, I, Op), Ref.webOfUse(B, I, Op))
            << "use " << B << ":" << I << "." << Op << " " << Where;
        ASSERT_EQ(Lib.websOfUses(B, I)[Op], Ref.webOfUse(B, I, Op)) << Where;
      }
    }
  }
  for (unsigned Web = 0, N = Ref.numWebs(); Web != N; ++Web) {
    std::span<const DefSite> Sites = Lib.defsOfWeb(Web);
    EXPECT_EQ(std::vector<DefSite>(Sites.begin(), Sites.end()),
              Ref.defsOfWeb(Web))
        << "web " << Web << " " << Where;
    EXPECT_EQ(Lib.webRegister(Web), Ref.webRegister(Web)) << Where;
    EXPECT_EQ(Lib.hasEntryDef(Web), Ref.hasEntryDef(Web)) << Where;
    EXPECT_EQ(Lib.numUsesOfWeb(Web), Ref.numUsesOfWeb(Web)) << Where;
    Tally.MultiDefWebs += Sites.size() > 1;
    Tally.EntryDefWebs += Lib.hasEntryDef(Web);
  }
}

void expectSameInterference(const Function &F, const InterferenceGraph &Lib,
                            const ReferenceInterferenceGraph &Ref,
                            const std::string &Where) {
  const UndirectedGraph &G = Lib.graph();
  ASSERT_EQ(G.numVertices(), Ref.Graph.numVertices()) << Where;
  EXPECT_EQ(G.numEdges(), Ref.Graph.numEdges()) << Where;
  for (unsigned V = 0, N = G.numVertices(); V != N; ++V) {
    EXPECT_EQ(G.neighbors(V), Ref.Graph.neighbors(V))
        << "row " << V << " " << Where;
    EXPECT_EQ(G.degree(V), Ref.Graph.degree(V))
        << "degree " << V << " " << Where;
  }
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    EXPECT_EQ(Lib.liveIn(B), Ref.LiveInW[B]) << "block " << B << " " << Where;
    EXPECT_EQ(Lib.liveOut(B), Ref.LiveOutW[B])
        << "block " << B << " " << Where;
  }
  EXPECT_EQ(Lib.maxLivePressure(), Ref.MaxPressure) << Where;
}

/// Spills \p SpillWebs both ways, on copies of \p F and \p NoSpillRegs.
void expectSameSpillCode(const Function &F, const Webs &W,
                         const std::vector<unsigned> &SpillWebs,
                         const std::set<Reg> &NoSpillRegs,
                         const std::string &Where, RoundTally &Tally) {
  Function LibF = F, RefF = F;
  std::set<Reg> LibPinned = NoSpillRegs, RefPinned = NoSpillRegs;
  SpillCode Lib = insertSpillCode(LibF, W, SpillWebs, LibPinned);
  SpillCode Ref = referenceInsertSpillCode(RefF, W, SpillWebs, RefPinned);
  EXPECT_EQ(functionToString(LibF), functionToString(RefF)) << Where;
  EXPECT_EQ(LibF.numRegs(), RefF.numRegs()) << Where;
  EXPECT_EQ(Lib.Stores, Ref.Stores) << Where;
  EXPECT_EQ(Lib.Loads, Ref.Loads) << Where;
  EXPECT_EQ(LibPinned, RefPinned) << Where;

  std::vector<bool> Spilled(W.numWebs());
  for (unsigned Web : SpillWebs)
    Spilled[Web] = true;
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B)
    for (unsigned I = 0, E = F.block(B).size(); I != E; ++I) {
      std::span<const unsigned> Uses = W.websOfUses(B, I);
      for (unsigned Op = 0; Op != Uses.size(); ++Op)
        Tally.SharedReloads +=
            Spilled[Uses[Op]] &&
            std::find(Uses.begin(), Uses.begin() + Op, Uses[Op]) !=
                Uses.begin() + Op;
    }
}

/// Checks all three layers on \p F as one round sees it. \p SpillWebs is
/// the round's spill list; every third web is spilled too, so a round
/// that colors still rewrites code, entry-def webs included.
void expectSameRound(const Function &F, const std::vector<unsigned> &Spills,
                     const std::set<Reg> &NoSpillRegs,
                     const std::string &Where, RoundTally &Tally) {
  Webs W(F);
  ReferenceWebs RefW(F);
  expectSameWebs(F, W, RefW, Where, Tally);
  InterferenceGraph IG(F, W);
  ReferenceInterferenceGraph RefIG(F, W);
  expectSameInterference(F, IG, RefIG, Where);
  if (!Spills.empty())
    expectSameSpillCode(F, W, Spills, NoSpillRegs, Where + " spills",
                        Tally);
  std::vector<unsigned> EveryThird;
  for (unsigned Web = 0; Web < W.numWebs(); Web += 3)
    EveryThird.push_back(Web);
  expectSameSpillCode(F, W, EveryThird, NoSpillRegs, Where + " every third",
                      Tally);
  ++Tally.Rounds;
  Tally.MultiBlockFunctions += F.numBlocks() > 1;
}

/// Replays chaitinAllocate's loop on \p Base at \p NumRegs registers and
/// compares the layers before each round's coloring.
void compareChaitinRounds(const Function &Base, unsigned NumRegs,
                          const std::string &Where, RoundTally &Tally) {
  constexpr unsigned MaxRounds = 8;
  Function F = Base;
  std::set<Reg> NoSpillRegs;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    Webs W(F);
    InterferenceGraph IG(F, W);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)))
        Costs[Web] = std::numeric_limits<double>::infinity();
    Allocation A = chaitinColor(IG.graph(), Costs, NumRegs);
    expectSameRound(F, A.SpilledWebs, NoSpillRegs,
                    Where + " chaitin round " + std::to_string(Round), Tally);
    // A broken layer would snowball through later rounds; one report is
    // enough.
    if (A.fullyColored() || ::testing::Test::HasFailure())
      return;
    ++Tally.SpillRounds;
    insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
  }
}

/// The same for pinterAllocate's loop on \p M, its EP pre-ordering
/// included.
void comparePinterRounds(const Function &Base, const MachineModel &M,
                         unsigned NumRegs, const std::string &Where,
                         RoundTally &Tally) {
  constexpr unsigned MaxRounds = 8;
  Function F = Base;
  PinterOptions Opts;
  preScheduleFunction(F, M);
  std::set<Reg> NoSpillRegs;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    Webs W(F);
    InterferenceGraph IG(F, W);
    ParallelInterferenceGraph PIG(F, W, IG, M);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)))
        Costs[Web] = std::numeric_limits<double>::infinity();
    Allocation A = pinterColor(PIG, Costs, NumRegs, Opts);
    expectSameRound(F, A.SpilledWebs, NoSpillRegs,
                    Where + " pinter round " + std::to_string(Round), Tally);
    // A broken layer would snowball through later rounds; one report is
    // enough.
    if (A.fullyColored() || ::testing::Test::HasFailure())
      return;
    ++Tally.SpillRounds;
    insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
  }
}

MachineModel machineNumber(unsigned I) {
  switch (I) {
  case 0:
    return MachineModel::paperTwoUnit();
  case 1:
    return MachineModel::rs6000();
  case 2:
    return MachineModel::vliw4();
  default:
    return MachineModel::scalar();
  }
}

/// Number of machines machineNumber() covers.
constexpr unsigned NumMachines = 4;

const CfgShape AllShapes[] = {CfgShape::Straight, CfgShape::Diamond,
                              CfgShape::Loop, CfgShape::NestedDiamond,
                              CfgShape::DoubleLoop};

} // namespace

TEST(SpillRoundReference, MatchesOnEveryKernel) {
  RoundTally Tally;
  for (unsigned MachineIdx = 0; MachineIdx != NumMachines; ++MachineIdx) {
    MachineModel M = machineNumber(MachineIdx);
    for (const auto &[Name, Kernel] : standardKernelSuite())
      for (unsigned R : {3u, 6u, 12u}) {
        std::string Where = Name + " " + M.name() + " r=" + std::to_string(R);
        // Chaitin's loop takes the kernel in the order this machine's
        // pre-ordering gives it, Section 4's pre-orders it itself.
        Function Ordered = Kernel;
        preScheduleFunction(Ordered, M);
        compareChaitinRounds(Ordered, R, Where, Tally);
        comparePinterRounds(Kernel, M, R, Where, Tally);
      }
  }
  EXPECT_GT(Tally.SpillRounds, 0u);
  EXPECT_GT(Tally.MultiDefWebs, 0u);
  EXPECT_GT(Tally.SharedReloads, 0u);
  EXPECT_GT(Tally.MultiBlockFunctions, 0u);
}

TEST(SpillRoundReference, MatchesOnEveryShape) {
  RoundTally Tally;
  for (unsigned ShapeIdx = 0; ShapeIdx != 5; ++ShapeIdx)
    for (unsigned Seed = 0; Seed != 2; ++Seed) {
      RandomProgramOptions Gen;
      Gen.Shape = AllShapes[ShapeIdx];
      Gen.InstructionsPerBlock = 12 + 9 * Seed + ShapeIdx % 3;
      Gen.FloatPercent = 40;
      Gen.MemoryPercent = 25;
      Gen.Seed = 29 + ShapeIdx * 7919 + Seed * 104729;
      Function Base = generateRandomProgram(Gen);
      for (unsigned MachineIdx = 0; MachineIdx != NumMachines; ++MachineIdx) {
        MachineModel M = machineNumber(MachineIdx);
        for (unsigned R : {3u, 6u}) {
          std::string Where = "shape " + std::to_string(ShapeIdx) + " seed " +
                              std::to_string(Seed) + " " + M.name() +
                              " r=" + std::to_string(R);
          if (MachineIdx == 0)
            compareChaitinRounds(Base, R, Where, Tally);
          comparePinterRounds(Base, M, R, Where, Tally);
        }
      }
    }
  EXPECT_GT(Tally.SpillRounds, 0u);
  EXPECT_GT(Tally.MultiDefWebs, 0u);
  EXPECT_GT(Tally.MultiBlockFunctions, 0u);
}

TEST(SpillRoundReference, MatchesOnPaperExamplesAndFunctionInputs) {
  // The kernels and generated programs define every register before its
  // first read. This one reads three function inputs, one of them around
  // a loop that redefines it, so entry defs and their parking stores are
  // exercised too.
  Function Inputs;
  std::string Error;
  ASSERT_TRUE(parseFunction("func @inputs regs 6 {\n"
                            "block entry:\n"
                            "  %s3 = add %s0, %s1\n"
                            "  %s4 = mul %s3, %s0\n"
                            "  br loop\n"
                            "block loop:\n"
                            "  %s5 = add %s4, %s2\n"
                            "  %s2 = add %s5, %s0\n"
                            "  %s4 = mul %s2, %s2\n"
                            "  cbr %s5, loop, exit\n"
                            "block exit:\n"
                            "  ret %s4\n"
                            "}\n",
                            Inputs, Error))
      << Error;
  RoundTally Tally;
  for (const Function &F : {paperExample1(), paperExample2(),
                            figure6Diamond(), Inputs})
    for (unsigned R : {1u, 2u, 3u}) {
      compareChaitinRounds(F, R, F.name() + " r=" + std::to_string(R), Tally);
      comparePinterRounds(F, MachineModel::paperTwoUnit(), R,
                          F.name() + " r=" + std::to_string(R), Tally);
    }
  EXPECT_GT(Tally.SpillRounds, 0u);
  EXPECT_GT(Tally.EntryDefWebs, 0u);
  EXPECT_GT(Tally.MultiDefWebs, 0u);
}
