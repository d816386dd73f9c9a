//===- support/BitMatrix.h - Square boolean matrix --------------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A square boolean matrix built from BitVector rows. Used as the relation
/// representation for schedule-graph reachability (transitive closure) and
/// for dense undirected adjacency.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_BITMATRIX_H
#define PIRA_SUPPORT_BITMATRIX_H

#include "support/BitVector.h"

#include <cassert>
#include <vector>

namespace pira {

/// A square NxN boolean matrix with word-parallel row operations.
class BitMatrix {
public:
  BitMatrix() = default;

  /// Creates an all-zero \p N x \p N matrix.
  explicit BitMatrix(unsigned N) : N(N), Rows(N, BitVector(N)) {}

  /// Returns the number of rows (== columns).
  unsigned size() const { return N; }

  /// Reads entry (\p Row, \p Col).
  bool test(unsigned Row, unsigned Col) const {
    assert(Row < N && Col < N && "matrix index out of range");
    return Rows[Row].test(Col);
  }

  /// Sets entry (\p Row, \p Col) to one.
  void set(unsigned Row, unsigned Col) {
    assert(Row < N && Col < N && "matrix index out of range");
    Rows[Row].set(Col);
  }

  /// Clears entry (\p Row, \p Col).
  void reset(unsigned Row, unsigned Col) {
    assert(Row < N && Col < N && "matrix index out of range");
    Rows[Row].reset(Col);
  }

  /// Sets both (\p A, \p B) and (\p B, \p A); convenience for undirected use.
  void setSymmetric(unsigned A, unsigned B) {
    set(A, B);
    set(B, A);
  }

  /// Returns row \p Row as a bit vector over column indices.
  const BitVector &row(unsigned Row) const {
    assert(Row < N && "row index out of range");
    return Rows[Row];
  }

  /// Mutable access to row \p Row.
  BitVector &row(unsigned Row) {
    assert(Row < N && "row index out of range");
    return Rows[Row];
  }

  /// Replaces the matrix with its reflexive-free transitive closure.
  ///
  /// Runs word-parallel Warshall: for each intermediate K, every row that
  /// reaches K absorbs K's row. O(N^2 * N/64) bit operations; fine for the
  /// basic-block sizes (tens to low thousands of instructions) this library
  /// targets.
  void transitiveClosure() {
    for (unsigned K = 0; K != N; ++K) {
      const BitVector KRow = Rows[K];
      for (unsigned I = 0; I != N; ++I)
        if (Rows[I].test(K))
          Rows[I].unionWith(KRow);
    }
  }

  /// Makes the relation symmetric: M |= transpose(M).
  void symmetrize() {
    for (unsigned I = 0; I != N; ++I)
      for (int J = Rows[I].findFirst(); J != -1;
           J = Rows[I].findNext(static_cast<unsigned>(J)))
        Rows[static_cast<unsigned>(J)].set(I);
  }

  /// Complements every off-diagonal entry; the diagonal is forced to zero.
  ///
  /// This is exactly the paper's step from the constraint set Et to the
  /// false-dependence edge set Ef (pairs that may issue in the same cycle).
  void complementOffDiagonal() {
    for (unsigned I = 0; I != N; ++I) {
      Rows[I].flipAll();
      Rows[I].reset(I);
    }
  }

  /// Counts set entries over the whole matrix.
  unsigned count() const {
    unsigned Total = 0;
    for (const BitVector &Row : Rows)
      Total += Row.count();
    return Total;
  }

  bool operator==(const BitMatrix &RHS) const {
    return N == RHS.N && Rows == RHS.Rows;
  }

private:
  unsigned N = 0;
  std::vector<BitVector> Rows;
};

} // namespace pira

#endif // PIRA_SUPPORT_BITMATRIX_H
