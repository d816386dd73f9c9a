//===- analysis/Webs.cpp - Right-number-of-names live ranges --------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "analysis/Webs.h"

#include "ir/Function.h"
#include "support/BitVector.h"

#include <numeric>
#include <span>

using namespace pira;

namespace {

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

} // namespace

Webs::Webs(const Function &F) {
  unsigned NumBlocks = F.numBlocks();
  unsigned NumRegs = F.numRegs();

  // Global instruction ids and the operand offsets of each instruction.
  BlockStart.resize(NumBlocks + 1);
  unsigned NumInsts = 0, NumUses = 0;
  for (unsigned B = 0; B != NumBlocks; ++B) {
    BlockStart[B] = NumInsts;
    NumInsts += F.block(B).size();
  }
  BlockStart[NumBlocks] = NumInsts;
  UseStart.resize(NumInsts + 1);
  for (unsigned B = 0, Id = 0; B != NumBlocks; ++B)
    for (const Instruction &Inst : F.block(B).instructions()) {
      UseStart[Id++] = NumUses;
      NumUses += static_cast<unsigned>(Inst.uses().size());
    }
  UseStart[NumInsts] = NumUses;

  // Enumerate defs: one virtual entry def per register first (so a web
  // with id order starting at real defs stays deterministic), then real
  // defs in program order. Until the webs are numbered, DefWebAt holds
  // each instruction's def record.
  std::vector<DefRecord> Defs;
  Defs.reserve(NumRegs + NumInsts);
  for (Reg R = 0; R != NumRegs; ++R)
    Defs.push_back({R, /*Virtual=*/true, 0, 0});
  DefWebAt.assign(NumInsts, NoWeb);
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      const Instruction &Inst = BB.inst(I);
      if (!Inst.hasDef())
        continue;
      DefWebAt[BlockStart[B] + I] = static_cast<unsigned>(Defs.size());
      Defs.push_back({Inst.def(), /*Virtual=*/false, B, I});
    }
  }
  unsigned NumDefs = static_cast<unsigned>(Defs.size());

  // The defs of each register in id order, as offsets plus values.
  std::vector<unsigned> RegStart(NumRegs + 1, 0);
  for (const DefRecord &D : Defs)
    ++RegStart[D.R + 1];
  for (Reg R = 0; R != NumRegs; ++R)
    RegStart[R + 1] += RegStart[R];
  std::vector<unsigned> RegDefs(NumDefs);
  {
    std::vector<unsigned> Fill(RegStart.begin(), RegStart.end() - 1);
    for (unsigned D = 0; D != NumDefs; ++D)
      RegDefs[Fill[Defs[D].R]++] = D;
  }
  auto DefsOfReg = [&](Reg R) {
    return std::span<const unsigned>(RegDefs.data() + RegStart[R],
                                     RegStart[R + 1] - RegStart[R]);
  };

  // Per-block Gen (downward-exposed defs) and Kill (all other defs of the
  // registers the block writes).
  std::vector<BitVector> Gen(NumBlocks, BitVector(NumDefs));
  std::vector<BitVector> Kill(NumBlocks, BitVector(NumDefs));
  for (unsigned B = 0; B != NumBlocks; ++B)
    for (unsigned Id = BlockStart[B], E = BlockStart[B + 1]; Id != E; ++Id) {
      unsigned D = DefWebAt[Id];
      if (D == NoWeb)
        continue;
      for (unsigned Other : DefsOfReg(Defs[D].R)) {
        Gen[B].reset(Other);
        Kill[B].set(Other);
      }
      Gen[B].set(D);
      Kill[B].reset(D);
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
  // representative def per use operand for later web lookup; UseWebs
  // holds it until the webs are numbered.
  UnionFind UF(NumDefs);
  UseWebs.resize(NumUses);
  // LocalDef[R]: def index of the latest in-block def of R seen so far.
  // Each block clears the entries it set.
  std::vector<int> LocalDef(NumRegs, -1);
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      const Instruction &Inst = BB.inst(I);
      unsigned Id = BlockStart[B] + I;
      for (unsigned Op = 0, OE = static_cast<unsigned>(Inst.uses().size());
           Op != OE; ++Op) {
        Reg R = Inst.uses()[Op];
        unsigned First = ~0u;
        if (LocalDef[R] >= 0) {
          First = static_cast<unsigned>(LocalDef[R]);
        } else {
          for (unsigned D : DefsOfReg(R)) {
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
        UseWebs[UseStart[Id] + Op] = First;
      }
      if (DefWebAt[Id] != NoWeb)
        LocalDef[Inst.def()] = static_cast<int>(DefWebAt[Id]);
    }
    for (const Instruction &Inst : BB.instructions())
      if (Inst.hasDef())
        LocalDef[Inst.def()] = -1;
  }

  // A virtual entry def whose web has no real def and no bound use is an
  // artifact of modeling; skip such webs entirely.
  BitVector RootReferenced(NumDefs);
  for (unsigned D = NumRegs; D != NumDefs; ++D)
    RootReferenced.set(UF.find(D));
  for (unsigned D : UseWebs)
    RootReferenced.set(UF.find(D));

  // Number webs densely in order of first def id; fill the public tables.
  std::vector<unsigned> DefWeb(NumDefs, NoWeb);
  std::vector<int> RootToWeb(NumDefs, -1);
  WebDefStart.assign(1, 0);
  for (unsigned D = 0; D != NumDefs; ++D) {
    unsigned Root = UF.find(D);
    if (!RootReferenced.test(Root))
      continue;
    if (RootToWeb[Root] < 0) {
      RootToWeb[Root] = static_cast<int>(WebRegs.size());
      WebRegs.push_back(Defs[D].R);
      WebDefStart.push_back(0);
      WebHasEntryDef.push_back(false);
    }
    unsigned Web = static_cast<unsigned>(RootToWeb[Root]);
    DefWeb[D] = Web;
    if (Defs[D].Virtual)
      WebHasEntryDef[Web] = true;
    else
      ++WebDefStart[Web + 1];
  }
  unsigned NumWebs = numWebs();
  for (unsigned Web = 0; Web != NumWebs; ++Web)
    WebDefStart[Web + 1] += WebDefStart[Web];
  // Real defs arrive in program order, so each web's sites do too.
  WebDefSites.resize(WebDefStart[NumWebs]);
  {
    std::vector<unsigned> Fill(WebDefStart.begin(), WebDefStart.end() - 1);
    for (unsigned D = NumRegs; D != NumDefs; ++D)
      WebDefSites[Fill[DefWeb[D]]++] = {Defs[D].Block, Defs[D].Inst};
  }

  for (unsigned &Web : DefWebAt)
    if (Web != NoWeb)
      Web = DefWeb[Web];
  WebUseCounts.assign(NumWebs, 0);
  for (unsigned &Web : UseWebs) {
    Web = DefWeb[Web];
    ++WebUseCounts[Web];
  }
}
