//===- core/FalseDependenceGraph.h - The paper's Gf ------------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The false dependence graph Gf of a basic block (paper Section 3). Its
/// edge set Ef is the complement of Et, where Et is the undirected
/// transitive closure of the schedule graph Gs (built on symbolic
/// registers) plus all non-precedence machine constraints — pairs of
/// instructions that cannot share a cycle because they contend for a
/// single functional unit. By Lemma 1, a register-allocation-induced edge
/// (u, v) is a false dependence iff {u, v} is in Ef; equivalently, Ef
/// lists exactly the instruction pairs that may issue in the same cycle.
///
/// This dense form serves the graph dumps, the figures and the augmented
/// PIG. The PIG itself keeps Ef as per-(block, unit kind) groups of webs
/// minus their Et pairs and never builds Ef
/// (core/ParallelInterferenceGraph.h).
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_CORE_FALSEDEPENDENCEGRAPH_H
#define PIRA_CORE_FALSEDEPENDENCEGRAPH_H

#include "support/UndirectedGraph.h"

namespace pira {

class DependenceGraph;
class Function;
class MachineModel;

/// Gf for one basic block, along with the constraint set Et it derives
/// from.
class FalseDependenceGraph {
public:
  /// Builds Gf for block \p BlockIdx of \p F (which must be in symbolic
  /// form so Gs carries no anti/output register dependences) under
  /// \p Machine's constraints.
  FalseDependenceGraph(const Function &F, unsigned BlockIdx,
                       const MachineModel &Machine);

  /// As above but reuses an already-built schedule graph \p Gs.
  FalseDependenceGraph(const Function &F, unsigned BlockIdx,
                       const DependenceGraph &Gs,
                       const MachineModel &Machine);

  /// Returns the number of instructions (vertices).
  unsigned size() const { return ParallelPairs.numVertices(); }

  /// Returns true when instructions \p U and \p V may issue in the same
  /// cycle ({U, V} in Ef).
  bool canIssueTogether(unsigned U, unsigned V) const {
    return ParallelPairs.hasEdge(U, V);
  }

  /// The edge set Ef as an undirected graph over instruction indices.
  const UndirectedGraph &parallelPairs() const { return ParallelPairs; }

  /// The constraint set Et: undirected closure edges plus machine
  /// constraint pairs. complement(Et) == Ef by construction.
  const UndirectedGraph &constraints() const { return Constraints; }

  /// Constraint pairs that came from machine contention rather than
  /// precedence (useful for rendering the paper's figures).
  const UndirectedGraph &machinePairs() const { return MachinePairs; }

private:
  void build(const Function &F, unsigned BlockIdx,
             const DependenceGraph &Gs, const MachineModel &Machine);

  UndirectedGraph Constraints;   // Et
  UndirectedGraph MachinePairs;  // machine-contention subset of Et
  UndirectedGraph ParallelPairs; // Ef
};

} // namespace pira

#endif // PIRA_CORE_FALSEDEPENDENCEGRAPH_H
