//===- analysis/Regions.h - Plausible block pairs and regions ---*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper schedules across block boundaries by treating two blocks as
/// one when they are "plausible for being scheduled together": one
/// executes iff the other does. Its stated criterion — B1 dominates B2
/// and B2 postdominates B1 — is verified on the dominator and
/// postdominator trees. A region here is a maximal chain of pairwise
/// plausible blocks forming an acyclic fragment; acyclicity is judged on
/// the CFG with back edges (u -> v where v dominates u) removed, so a
/// region never spans two iterations of a loop but may cover blocks
/// inside one body.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_ANALYSIS_REGIONS_H
#define PIRA_ANALYSIS_REGIONS_H

#include "support/BitMatrix.h"

#include <vector>

namespace pira {

class Function;

/// Groups blocks into acyclic control-equivalent regions.
class RegionAnalysis {
public:
  /// Analyzes \p F.
  explicit RegionAnalysis(const Function &F);

  /// Returns true when blocks \p A and \p B (A != B) are plausible for
  /// joint scheduling: one dominates the other, the other postdominates
  /// the first, and the pair is acyclic (no path back from the dominated
  /// block to the dominator).
  bool plausiblePair(unsigned A, unsigned B) const;

  /// Regions as ordered block lists (dominator first). Every block
  /// appears in exactly one region; isolated blocks form singletons.
  const std::vector<std::vector<unsigned>> &regions() const {
    return RegionList;
  }

private:
  BitMatrix Reach;    // block-level reachability (nonempty paths)
  BitMatrix Plausible;
  std::vector<std::vector<unsigned>> RegionList;
  std::vector<unsigned> RegionOf;
};

} // namespace pira

#endif // PIRA_ANALYSIS_REGIONS_H
