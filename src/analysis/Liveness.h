//===- analysis/Liveness.h - Global live-variable analysis ------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward may-liveness over the CFG. Live ranges feed the
/// interference graph; per the paper, the statement of a value's last use
/// is *not* part of its live interval, which lets the register be reused
/// by that very statement.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_ANALYSIS_LIVENESS_H
#define PIRA_ANALYSIS_LIVENESS_H

#include "ir/Instruction.h"
#include "support/BitVector.h"

#include <vector>

namespace pira {

class Function;

/// Solves LiveOut[B] = the union of LiveIn over B's successors and
/// LiveIn[B] = Use[B] + (LiveOut[B] - Def[B]) over \p F's CFG to the
/// least fixed point. \p Use and \p Def hold one set per block, all of
/// one width, over registers (Liveness) or webs (InterferenceGraph).
void solveLiveness(const Function &F, const std::vector<BitVector> &Use,
                   const std::vector<BitVector> &Def,
                   std::vector<BitVector> &LiveIn,
                   std::vector<BitVector> &LiveOut);

/// Live-in / live-out register sets per block.
class Liveness {
public:
  /// Runs the iterative dataflow on \p F.
  explicit Liveness(const Function &F);

  /// Registers live on entry to block \p B.
  const BitVector &liveIn(unsigned B) const { return LiveInSets[B]; }

  /// Registers live on exit from block \p B.
  const BitVector &liveOut(unsigned B) const { return LiveOutSets[B]; }

  /// Returns true when register \p R is live on entry to block \p B.
  bool isLiveIn(unsigned B, Reg R) const { return LiveInSets[B].test(R); }

  /// Returns true when register \p R is live on exit from block \p B.
  bool isLiveOut(unsigned B, Reg R) const { return LiveOutSets[B].test(R); }

  /// Registers read before any write within block \p B (upward-exposed).
  const BitVector &upwardExposed(unsigned B) const { return UseSets[B]; }

  /// Registers written within block \p B.
  const BitVector &defined(unsigned B) const { return DefSets[B]; }

private:
  std::vector<BitVector> UseSets;
  std::vector<BitVector> DefSets;
  std::vector<BitVector> LiveInSets;
  std::vector<BitVector> LiveOutSets;
};

} // namespace pira

#endif // PIRA_ANALYSIS_LIVENESS_H
