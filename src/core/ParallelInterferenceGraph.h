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
#include "support/BitMatrix.h"
#include "support/UndirectedGraph.h"

#include <ostream>
#include <string>
#include <vector>

namespace pira {

class Function;
class InterferenceGraph;
class MachineModel;
class Webs;

/// The PIG over webs, keeping the two edge families separate so the
/// Section-4 heuristics can weigh them differently (Lemmas 2 and 3).
///
/// The parallel family is kept as the complement of Et, never as
/// adjacency (ParallelFamily in regalloc/ColoringEngine.h): per-(block,
/// unit kind) groups of the webs with one def, per such web its Et
/// pairs, and an explicit list of the edges with a multi-def end or
/// across blocks. Every count is arithmetic on that form, so nothing of
/// size N^2 is built; parallel() and combined() build the adjacency on
/// request, for the figures, the DOT dumps and the tests.
///
/// Er is not copied: the PIG refers to \p IG's graph, which must outlive
/// it, as the arrays family() views must outlive the coloring.
class ParallelInterferenceGraph {
public:
  /// defHeight() of a web with several defining instructions, or none.
  static constexpr unsigned NoHeight = ParallelFamily::NoHeight;

  /// Builds the PIG of \p F. \p IG must be the interference graph of the
  /// same function/web partition and outlive the PIG. When \p UseRegions
  /// is true, parallel edges are additionally collected across plausible
  /// block pairs.
  ParallelInterferenceGraph(const Function &F, const Webs &W,
                            const InterferenceGraph &IG,
                            const MachineModel &Machine,
                            bool UseRegions = false);

  /// A temporary \p IG would not outlive the PIG.
  ParallelInterferenceGraph(const Function &F, const Webs &W,
                            const InterferenceGraph &&IG,
                            const MachineModel &Machine,
                            bool UseRegions = false) = delete;

  /// Returns the number of vertices (webs).
  unsigned numWebs() const { return Interference.numVertices(); }

  /// The interference family Er: \p IG's graph.
  const UndirectedGraph &interference() const { return Interference; }

  /// The parallel family as adjacency: web pairs whose defining
  /// instructions may issue in the same cycle somewhere. May overlap Er
  /// (Lemma 3 edges). Built on each call in O(N^2).
  UndirectedGraph parallel() const;

  /// The full edge set E = Er ∪ parallel, as one graph. Built on each
  /// call in O(N^2).
  UndirectedGraph combined() const;

  /// The parallel family in group form, for the Section 4 coloring.
  ParallelFamily family() const;

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

  /// The parallel edges that are not implicit: every edge with a
  /// multi-def end, and every region edge (cross-block, benefit 1),
  /// sorted by (A, B), each carrying the largest benefit any inducing
  /// pair gave it. Includes the Lemma 3 edges that are also interference
  /// edges.
  const std::vector<ParallelEdge> &explicitEdges() const { return Explicit; }

  /// Number of parallel edges that are not interference edges.
  unsigned numParallelOnlyEdges() const { return NumParallel - NumLemma3; }

  /// Number of parallel edges that are also interference edges (Ef ∩ Er,
  /// the edges that weigh twice in h*, Lemma 3).
  unsigned numLemma3Edges() const { return NumLemma3; }

  /// Number of Et pairs: pairs of webs with one def each, defined in one
  /// block by instructions whose unit kinds may co-issue, that the
  /// closure of Gs relates. The implicit edges are the compatible pairs
  /// less these.
  unsigned numEtPairs() const {
    return static_cast<unsigned>(EtPartners.size() / 2);
  }

private:
  /// True when {\p A, \p B} (A != B) is an implicit edge: two members
  /// of compatible groups that form no Et pair.
  bool isImplicitEdge(unsigned A, unsigned B) const;

  /// The parallel rows, Er's rows added when \p WithInterference.
  BitMatrix parallelRows(bool WithInterference) const;

  const UndirectedGraph &Interference;
  std::vector<unsigned> DefHeight;
  std::vector<unsigned> GroupOf;
  std::vector<unsigned> CompatibleStart;
  std::vector<unsigned> Compatible;
  std::vector<unsigned> EtStart;
  std::vector<unsigned> EtPartners;
  std::vector<ParallelEdge> Explicit;
  std::vector<unsigned> BothDegree;
  unsigned NumParallel = 0;
  unsigned NumLemma3 = 0;
};

/// Writes \p PIG as the undirected DOT graph \p Name on \p OS, drawing
/// its first Labels.size() webs, web I labelled \p Labels[I]: the
/// interference edges among them solid, the parallel-only ones dashed
/// blue.
void writePigDot(std::ostream &OS, const std::string &Name,
                 const ParallelInterferenceGraph &PIG,
                 const std::vector<std::string> &Labels);

} // namespace pira

#endif // PIRA_CORE_PARALLELINTERFERENCEGRAPH_H
