//===- core/RegionFalseDeps.h - Cross-block Ef pairs ------------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-block false-dependence discovery for one acyclic
/// control-equivalent region, the PIG's global extension: a conservative
/// combined schedule graph over the region's instructions, closed and
/// complemented like the single-block construction.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_CORE_REGIONFALSEDEPS_H
#define PIRA_CORE_REGIONFALSEDEPS_H

#include "support/BitMatrix.h"

#include <utility>
#include <vector>

namespace pira {

class Function;
class Instruction;
class MachineModel;
class Webs;

/// The region's instructions as (block, index) nodes in region order,
/// with the closed ordering relation between them.
class RegionFalseDeps {
public:
  RegionFalseDeps(const Function &F, const Webs &W,
                  const std::vector<unsigned> &Blocks);

  /// Returns true when nodes \p A and \p B (region indices) may issue in
  /// the same cycle under \p Machine.
  bool canIssueTogether(unsigned A, unsigned B,
                        const MachineModel &Machine) const;

  const std::vector<std::pair<unsigned, unsigned>> &nodes() const {
    return Nodes;
  }

  const Instruction &instAt(unsigned Node) const;

private:
  /// Decides whether region node A must precede region node B (A earlier
  /// in region order). \p Intervening(From, To, Pred) tells whether a
  /// block outside the region that lies on a path from block From to
  /// block To holds an instruction satisfying Pred.
  template <typename InterveningFn>
  bool orders(const Webs &W, unsigned A, const Instruction &IA, unsigned B,
              const Instruction &IB, bool SameBlock,
              InterveningFn &&Intervening) const;

  const Function &F;
  std::vector<std::pair<unsigned, unsigned>> Nodes;
  /// IndexDefBefore entry of a node whose index register has no def
  /// before it in the region.
  static constexpr unsigned NoDef = ~0u;
  /// Per memory node with an index register, the region position of that
  /// register's latest def before the node, or NoDef.
  std::vector<unsigned> IndexDefBefore;
  BitMatrix Deps;
};

} // namespace pira

#endif // PIRA_CORE_REGIONFALSEDEPS_H
