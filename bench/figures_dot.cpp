//===- bench/figures_dot.cpp - GraphViz export of every exhibit -----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Emits DOT renderings of the paper's graph exhibits so they can be
// compared against the figures visually:
//   Figure 1  — schedule-graph dependence edges of Example 2
//   Figure 2  — Gs data edges, Et, and Gr of Example 1
//   Figure 3  — parallelizable interference graph of Example 1
//   Figure 4  — interference graph of Example 2
//   Figure 5  — PIG of Example 2 (interference solid, parallel dashed)
//
// Pipe the output into `dot -Tsvg` per graph, or split on "digraph" /
// "graph" boundaries.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "core/FalseDependenceGraph.h"
#include "core/ParallelInterferenceGraph.h"
#include "machine/MachineModel.h"
#include "regalloc/InterferenceGraph.h"
#include "support/DotWriter.h"
#include "workloads/Kernels.h"

#include <iostream>
#include <string>

using namespace pira;

/// The paper's names s1..sN of the first \p N statements.
static std::vector<std::string> paperNames(unsigned N) {
  std::vector<std::string> Names;
  for (unsigned V = 0; V != N; ++V)
    Names.push_back("s" + std::to_string(V + 1));
  return Names;
}

/// Emits one undirected exhibit over the paper's s1..sN naming.
static void emitUndirected(const std::string &Name,
                           const UndirectedGraph &G, unsigned Limit,
                           const std::string &Attrs = "") {
  DotWriter W(std::cout, Name, /*Directed=*/false);
  for (unsigned V = 0; V != Limit; ++V)
    W.node(V, "s" + std::to_string(V + 1));
  for (const auto &[A, B] : G.edgeList())
    if (A < Limit && B < Limit)
      W.edge(A, B, Attrs);
}

int main() {
  MachineModel M = MachineModel::paperTwoUnit();

  // Figure 1: directed dependence edges of Example 2.
  {
    Function F = paperExample2();
    DependenceGraph Gs(F, 0, M);
    DotWriter W(std::cout, "figure1_example2_gs", /*Directed=*/true);
    for (unsigned V = 0; V != 9; ++V)
      W.node(V, "s" + std::to_string(V + 1));
    for (const DepEdge &E : Gs.edges())
      if (E.Kind == DepKind::Flow && E.To < 9)
        W.edge(E.From, E.To);
  }

  // Figure 2: Example 1 exhibits.
  {
    Function F = paperExample1();
    DependenceGraph Gs(F, 0, M);
    {
      DotWriter W(std::cout, "figure2a_example1_gs", /*Directed=*/true);
      for (unsigned V = 0; V != 5; ++V)
        W.node(V, "s" + std::to_string(V + 1));
      for (const DepEdge &E : Gs.edges())
        if (E.Kind == DepKind::Flow && E.To < 5)
          W.edge(E.From, E.To);
    }
    FalseDependenceGraph FDG(F, 0, Gs, M);
    emitUndirected("figure2b_example1_et", FDG.constraints(), 5);
    emitUndirected("figure2b_example1_ef", FDG.parallelPairs(), 5,
                   "style=dashed");
    Webs W(F);
    InterferenceGraph IG(F, W);
    emitUndirected("figure2c_example1_gr", IG.graph(), 5);

    // Figure 3: the PIG (interference solid, parallel-only dashed).
    writePigDot(std::cout, "figure3_example1_pig",
                ParallelInterferenceGraph(F, W, IG, M), paperNames(5));
  }

  // Figures 4 and 5: Example 2 interference graph and PIG.
  {
    Function F = paperExample2();
    Webs W(F);
    InterferenceGraph IG(F, W);
    emitUndirected("figure4_example2_gr", IG.graph(), 9);
    writePigDot(std::cout, "figure5_example2_pig",
                ParallelInterferenceGraph(F, W, IG, M), paperNames(9));
  }
  return 0;
}
