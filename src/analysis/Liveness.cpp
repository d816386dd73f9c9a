//===- analysis/Liveness.cpp - Global live-variable analysis --------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "ir/Function.h"

using namespace pira;

void pira::solveLiveness(const Function &F, const std::vector<BitVector> &Use,
                         const std::vector<BitVector> &Def,
                         std::vector<BitVector> &LiveIn,
                         std::vector<BitVector> &LiveOut) {
  unsigned NumBlocks = F.numBlocks();
  unsigned Width = NumBlocks == 0 ? 0 : Use[0].size();
  LiveIn.assign(NumBlocks, BitVector(Width));
  LiveOut.assign(NumBlocks, BitVector(Width));
  // Iterate to the (unique) fixed point; reverse block order converges
  // quickly on reducible CFGs.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = NumBlocks; B-- != 0;) {
      BitVector Out(Width);
      for (unsigned Succ : F.block(B).successors())
        Out.unionWith(LiveIn[Succ]);
      BitVector In = Out;
      In.subtract(Def[B]);
      In.unionWith(Use[B]);
      if (Out != LiveOut[B] || In != LiveIn[B]) {
        LiveOut[B] = std::move(Out);
        LiveIn[B] = std::move(In);
        Changed = true;
      }
    }
  }
}

Liveness::Liveness(const Function &F) {
  unsigned NumBlocks = F.numBlocks();
  unsigned NumRegs = F.numRegs();
  UseSets.assign(NumBlocks, BitVector(NumRegs));
  DefSets.assign(NumBlocks, BitVector(NumRegs));
  for (unsigned B = 0; B != NumBlocks; ++B) {
    for (const Instruction &I : F.block(B).instructions()) {
      for (Reg U : I.uses())
        if (!DefSets[B].test(U))
          UseSets[B].set(U);
      if (I.hasDef())
        DefSets[B].set(I.def());
    }
  }
  solveLiveness(F, UseSets, DefSets, LiveInSets, LiveOutSets);
}
