//===- core/FalseDepChecker.h - Post-allocation validation ------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detects false dependences in allocated code, implementing the paper's
/// definition directly: an edge (u, v) of the post-allocation scheduling
/// graph is false iff u and v could be scheduled together according to
/// the schedule graph of the code in symbolic-register form (Lemma 1:
/// iff {u, v} ∈ Ef). Theorem 1 validation and the strategy benchmarks
/// both rest on this checker.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_CORE_FALSEDEPCHECKER_H
#define PIRA_CORE_FALSEDEPCHECKER_H

#include "analysis/DependenceGraph.h"

#include <vector>

namespace pira {

class Function;
class MachineModel;

/// One false dependence found in allocated code.
struct FalseDep {
  unsigned Block;
  unsigned From; ///< Instruction index within the block.
  unsigned To;
  DepKind Kind;  ///< Output (see FalseDepChecker for why anti edges are
                 ///< excluded).
};

/// The Theorem 1 check one block at a time, for a caller that already
/// holds each block's allocated schedule graph: a compile builds it once,
/// list-schedules the block from it and hands it here. Each block costs
/// one symbolic Gs and one backward walk per target of an output or anti
/// edge, shared by both kinds. findFalseDependences and
/// countAntiOrderingLosses run this same pass over every block.
///
/// Allocation introduces anti and output register dependences. Only
/// output dependences can forbid scheduling two instructions *together*
/// (two writes of one register cannot share a cycle): an anti edge
/// permits same-cycle issue because a superscalar reads operands before
/// writing results. This matches the paper exactly — its Figure 5
/// assignment itself creates an anti edge between co-issuable
/// instructions (`r2 = r1*r2` reads the r1 that `r1 = load x`
/// overwrites), and the Theorem 1 proof's anti-dependence case argues
/// such reuse is harmless rather than absent. So a false dependence is
/// an *output* edge whose endpoints are in the symbolic code's Ef, and an
/// anti edge whose endpoints are there is an ordering loss.
class FalseDepChecker {
public:
  /// Checks \p Allocated against its pre-allocation twin \p Symbolic
  /// (same blocks, same instruction positions — allocation is a pure
  /// operand renaming) on \p Machine.
  FalseDepChecker(const Function &Symbolic, const Function &Allocated,
                  const MachineModel &Machine);

  /// False on a single-issue machine, which serializes every pair: no
  /// edge is false and no ordering is lost, and checkBlock does nothing.
  bool needsGraphs() const;

  /// Checks block \p Block, whose allocated schedule graph is \p After:
  /// appends its false dependences to falseDeps() in edges() order and
  /// adds its ordering losses to antiOrderingLosses().
  void checkBlock(unsigned Block, const DependenceGraph &After);

  /// The false dependences of the blocks checked so far, block by block.
  const std::vector<FalseDep> &falseDeps() const { return FalseDeps; }

  /// The ordering losses of the blocks checked so far.
  unsigned antiOrderingLosses() const { return AntiLosses; }

private:
  const Function &Symbolic;
  const MachineModel &Machine;
  std::vector<FalseDep> FalseDeps;
  unsigned AntiLosses = 0;
  /// Walk scratch, reused across blocks.
  std::vector<unsigned> Mark;
  std::vector<unsigned> Stack;
};

/// Runs FalseDepChecker over every block of \p Allocated and returns
/// every false dependence edge, block by block.
std::vector<FalseDep> findFalseDependences(const Function &Symbolic,
                                           const Function &Allocated,
                                           const MachineModel &Machine);

/// Count of scheduling orderings lost to anti edges: anti dependences in
/// \p Allocated whose endpoints could symbolically issue in the same
/// cycle. Not false dependences (co-issue survives), but they do forbid
/// issuing the writer strictly before the reader; reported separately so
/// benchmarks can show the full picture. Runs FalseDepChecker over every
/// block.
unsigned countAntiOrderingLosses(const Function &Symbolic,
                                 const Function &Allocated,
                                 const MachineModel &Machine);

} // namespace pira

#endif // PIRA_CORE_FALSEDEPCHECKER_H
