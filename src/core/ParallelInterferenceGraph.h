//===- core/ParallelInterferenceGraph.h - The paper's PIG -------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallelizable interference graph G = (V, E) — the paper's central
/// construction. V is the set of live-range vertices (webs); E is the
/// union of the interference edges Er and, for every false-dependence
/// pair {ui, vj} in some block's Ef whose instructions both define a
/// value, an edge between the defs' webs. Theorem 1: any coloring of G
/// spills no live value and introduces no false dependence; Theorem 2: no
/// proper subgraph has that property.
///
/// With UseRegions enabled, Ef pairs are also collected across the blocks
/// of each acyclic control-equivalent region (the paper's global
/// extension over "plausible" block pairs), with conservative cross-block
/// memory and flow constraints.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_CORE_PARALLELINTERFERENCEGRAPH_H
#define PIRA_CORE_PARALLELINTERFERENCEGRAPH_H

#include "regalloc/ColoringEngine.h"
#include "support/UndirectedGraph.h"

#include <vector>

namespace pira {

class Function;
class InterferenceGraph;
class MachineModel;
class ThreadPool;
class Webs;

/// The PIG over webs, keeping the two edge families separate so the
/// Section-4 heuristics can weigh them differently (Lemmas 2 and 3).
///
/// Both families are bit rows; no per-pair list is kept. A web with one
/// defining instruction has that instruction's critical-path height, and
/// a parallel edge between two such webs in one block has benefit
/// H(def A) + H(def B). Only the edges whose benefit is not that sum are
/// listed (explicitEdges()).
class ParallelInterferenceGraph {
public:
  /// defHeight() of a web with several defining instructions, or none.
  static constexpr unsigned NoHeight = ParallelFamily::NoHeight;

  /// Builds the PIG of \p F. \p IG must be the interference graph of the
  /// same function/web partition. When \p UseRegions is true, parallel
  /// edges are additionally collected across plausible block pairs.
  /// \p ClosurePool, when non-null, parallelizes the per-block closure;
  /// the graph is byte-identical either way.
  ParallelInterferenceGraph(const Function &F, const Webs &W,
                            const InterferenceGraph &IG,
                            const MachineModel &Machine,
                            bool UseRegions = false,
                            ThreadPool *ClosurePool = nullptr);

  /// Returns the number of vertices (webs).
  unsigned numWebs() const { return Interference.numVertices(); }

  /// The interference family Er.
  const UndirectedGraph &interference() const { return Interference; }

  /// The parallel family: web pairs whose defining instructions may issue
  /// in the same cycle somewhere. May overlap Er (Lemma 3 edges).
  const UndirectedGraph &parallel() const { return Parallel; }

  /// The full edge set E = Er ∪ parallel, as one graph.
  const UndirectedGraph &combined() const { return Combined; }

  /// Scheduling benefit of parallel edge {\p A, \p B}: the largest summed
  /// critical-path height over the instruction pairs that induced it.
  /// Edges with small benefit are the cheapest parallelism to give away
  /// under register pressure. Zero for non-parallel edges.
  double parallelBenefit(unsigned A, unsigned B) const;

  /// Critical-path height, in its block's schedule graph, of \p Web's
  /// only defining instruction; NoHeight for any other web.
  unsigned defHeight(unsigned Web) const { return DefHeight[Web]; }

  /// defHeight() of every web, indexed by web.
  const std::vector<unsigned> &defHeights() const { return DefHeight; }

  /// The parallel edges whose benefit is not the defHeight() sum of their
  /// ends, sorted by (A, B), each carrying the largest benefit any
  /// inducing pair gave it: every edge with a multi-def end, and every
  /// region edge (cross-block, benefit 1). Includes the Lemma 3 edges
  /// that are also interference edges.
  const std::vector<ParallelEdge> &explicitEdges() const { return Explicit; }

  /// Number of parallel edges that are not interference edges.
  unsigned numParallelOnlyEdges() const {
    return Combined.numEdges() - Interference.numEdges();
  }

private:
  UndirectedGraph Interference;
  UndirectedGraph Parallel;
  UndirectedGraph Combined;
  std::vector<unsigned> DefHeight;
  std::vector<ParallelEdge> Explicit;
};

} // namespace pira

#endif // PIRA_CORE_PARALLELINTERFERENCEGRAPH_H
