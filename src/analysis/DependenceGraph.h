//===- analysis/DependenceGraph.h - Per-block schedule graph ----*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's schedule graph Gs for one basic block: one vertex per
/// instruction and a directed edge (u, v) whenever u must execute before
/// v — register data dependences (flow, and anti/output once registers are
/// reused), conservative memory ordering, and terminator placement. With
/// symbolic registers (one register per value) no anti or output register
/// dependence exists, exactly as the paper observes, so Et then "contains
/// exactly the real constraints on the scheduler."
///
/// Every edge satisfies From < To: dependences always point from an earlier
/// instruction to a later one, so node order is a topological order. The
/// one-sweep closures behind reachability() and ancestors(), and the
/// Theorem 1 check's bounded backward walks, rely on this invariant.
///
/// Adjacency is stored in CSR form, built once after construction: one
/// buffer of exactly the successor and predecessor offsets and the
/// successor edge indices. Edges are stored grouped by target, so a
/// node's incoming edges are one run of edge indices and need no index
/// array. Nothing of size N^2 is kept.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_ANALYSIS_DEPENDENCEGRAPH_H
#define PIRA_ANALYSIS_DEPENDENCEGRAPH_H

#include "support/BitMatrix.h"

#include <memory>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

namespace pira {

class BasicBlock;
class Function;
class Instruction;
class MachineModel;

/// Classifies why one instruction must precede another.
enum class DepKind : unsigned {
  Flow,    ///< Register written by From is read by To.
  Anti,    ///< Register read by From is rewritten by To.
  Output,  ///< Register written by From is rewritten by To.
  Memory,  ///< Possible same-location memory access ordering.
  Control, ///< Terminator must remain at the block end.
};

/// Returns a printable name for \p Kind.
const char *depKindName(DepKind Kind);

/// Returns true when memory instructions \p A and \p B of \p F provably
/// access disjoint locations under the interpreter's wrap-modulo-size
/// addressing.
///
/// Sound rules only: different arrays never alias. Within one array of
/// nonzero declared size, two accesses are disjoint when they use the same
/// index register (or are both direct) and have distinct constant offsets
/// that both lie inside the declared bounds: wrapping is then the
/// identity, and equal index values shift both offsets alike. Anything
/// else (an undeclared or empty array, different index registers, an
/// offset out of bounds) may alias.
///
/// Precondition: the shared index register holds one value at both
/// accesses, that is, no def of it lies between them. The instructions
/// alone cannot tell; a caller that orders two accesses of one array
/// through a register redefined in between must treat them as aliasing.
bool memoryProvablyDisjoint(const Function &F, const Instruction &A,
                            const Instruction &B);

/// One precedence edge of the schedule graph.
struct DepEdge {
  unsigned From;
  unsigned To;
  DepKind Kind;
  /// Minimum issue-cycle separation: To may issue no earlier than
  /// cycle(From) + Latency. Zero permits same-cycle issue (anti
  /// dependences under read-before-write register semantics).
  unsigned Latency;
};

/// The schedule graph of one basic block.
class DependenceGraph {
public:
  /// Builds the graph for \p BB of \p F with \p Machine's latencies.
  /// \p BlockIdx selects the block within the function.
  DependenceGraph(const Function &F, unsigned BlockIdx,
                  const MachineModel &Machine);

  /// Builds a graph of \p NumNodes nodes with one Flow edge of latency 1
  /// per distinct pair of \p EdgePairs, which must all run From < To:
  /// any DAG in topological numbering, for closure tests and benches.
  DependenceGraph(unsigned NumNodes,
                  std::vector<std::pair<unsigned, unsigned>> EdgePairs);

  DependenceGraph(const DependenceGraph &) = delete;
  DependenceGraph &operator=(const DependenceGraph &) = delete;

  /// Returns the number of instructions (vertices).
  unsigned size() const { return NumNodes; }

  /// Returns all edges in deterministic order.
  const std::vector<DepEdge> &edges() const { return Edges; }

  /// Returns the indices into edges() of edges leaving \p Node, in
  /// insertion order.
  std::span<const unsigned> succEdges(unsigned Node) const {
    return {SuccIdx + SuccOff[Node], SuccOff[Node + 1] - SuccOff[Node]};
  }

  /// Returns the indices into edges() of edges entering \p Node, in
  /// insertion order: one run, since edges() is grouped by target.
  std::ranges::iota_view<unsigned, unsigned> predEdges(unsigned Node) const {
    return std::views::iota(PredOff[Node], PredOff[Node + 1]);
  }

  /// Returns true when an edge (\p From, \p To) of any kind exists. A
  /// scan of \p From's edges.
  bool hasEdge(unsigned From, unsigned To) const;

  /// Returns directed reachability (the transitive closure of the edge
  /// relation). Entry (u, v) is set iff a nonempty path u -> v exists.
  ///
  /// One sweep from the last node to the first: every successor V of U
  /// has V > U, so its row is final when U's row absorbs {V} and it.
  BitMatrix reachability() const;

  /// Returns the transpose of reachability(): entry (v, u) is set iff a
  /// nonempty path u -> v exists. The mirror sweep, first node to last
  /// over predEdges(), so nothing is transposed.
  BitMatrix ancestors() const;

private:
  void addEdge(unsigned From, unsigned To, DepKind Kind, unsigned Latency);
  /// Freezes the per-node edge lists into CSR arrays; called once at the
  /// end of construction.
  void buildCsr();

  unsigned NumNodes = 0;
  /// Grouped by target, ascending; in insertion order within a target.
  std::vector<DepEdge> Edges;

  /// CSR adjacency over edge indices: SuccOff and PredOff (N + 1 each)
  /// and SuccIdx (one per edge), in one buffer of exactly that size.
  std::unique_ptr<unsigned[]> Csr;
  const unsigned *SuccOff = nullptr;
  const unsigned *SuccIdx = nullptr;
  const unsigned *PredOff = nullptr;

  /// Construction-only duplicate detection (freed by buildCsr): the
  /// index of the last edge each node added, or ~0u.
  std::vector<unsigned> LastEdge;
};

} // namespace pira

#endif // PIRA_ANALYSIS_DEPENDENCEGRAPH_H
