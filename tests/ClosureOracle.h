//===- tests/ClosureOracle.h - Set-based closure reference ------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transitive closure over per-node std::set adjacency: the
/// representation the closure used before the packed-bitset rewrite,
/// kept as an independent oracle for the closure tests and as the
/// baseline of BM_TransitiveClosureSetBased. Not used by the library.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_TESTS_CLOSUREORACLE_H
#define PIRA_TESTS_CLOSUREORACLE_H

#include "support/BitMatrix.h"

#include <set>
#include <vector>

namespace pira {

/// Returns the reflexive-free transitive closure of \p M, computed
/// Warshall-style over std::set rows.
inline BitMatrix setBasedClosure(const BitMatrix &M) {
  unsigned N = M.size();
  std::vector<std::set<unsigned>> Reach(N);
  for (unsigned I = 0; I != N; ++I)
    M.row(I).forEachSetBit([&](unsigned J) { Reach[I].insert(J); });
  for (unsigned K = 0; K != N; ++K) {
    const std::set<unsigned> KReach = Reach[K];
    for (unsigned I = 0; I != N; ++I)
      if (Reach[I].count(K))
        Reach[I].insert(KReach.begin(), KReach.end());
  }
  BitMatrix Out(N);
  for (unsigned I = 0; I != N; ++I)
    for (unsigned J : Reach[I])
      Out.set(I, J);
  return Out;
}

} // namespace pira

#endif // PIRA_TESTS_CLOSUREORACLE_H
