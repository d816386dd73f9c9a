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
  /// in region order).
  template <typename BarrierFn>
  bool orders(const Webs &W, unsigned A, const Instruction &IA, unsigned B,
              const Instruction &IB, bool SameBlock,
              BarrierFn &&InterveningStoreTo) const;

  const Function &F;
  std::vector<std::pair<unsigned, unsigned>> Nodes;
  BitMatrix Deps;
};

} // namespace pira

#endif // PIRA_CORE_REGIONFALSEDEPS_H
