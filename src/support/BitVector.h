//===- support/BitVector.h - Fixed-size dense bit vector -------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact dynamic bit vector used for liveness sets, adjacency rows, and
/// transitive-closure rows. Word-parallel set operations are the workhorse
/// of the dataflow and closure algorithms.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_BITVECTOR_H
#define PIRA_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pira {

/// A dense, resizable vector of bits with word-parallel set algebra.
class BitVector {
public:
  BitVector() = default;

  /// Creates a vector of \p NumBits bits, all initialized to \p Value.
  explicit BitVector(unsigned NumBits, bool Value = false)
      : NumBits(NumBits),
        Words((NumBits + WordBits - 1) / WordBits,
              Value ? ~uint64_t(0) : uint64_t(0)) {
    clearUnusedBits();
  }

  /// Returns the number of bits in the vector.
  unsigned size() const { return NumBits; }

  /// Returns true if no bit is set.
  bool none() const {
    for (uint64_t W : Words)
      if (W != 0)
        return false;
    return true;
  }

  /// Returns true if any bit is set.
  bool any() const { return !none(); }

  /// Returns the number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += static_cast<unsigned>(__builtin_popcountll(W));
    return N;
  }

  /// Reads bit \p Idx.
  bool test(unsigned Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (Words[Idx / WordBits] >> (Idx % WordBits)) & 1;
  }

  /// Sets bit \p Idx to one.
  void set(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / WordBits] |= uint64_t(1) << (Idx % WordBits);
  }

  /// Clears bit \p Idx.
  void reset(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / WordBits] &= ~(uint64_t(1) << (Idx % WordBits));
  }

  /// Clears all bits.
  void resetAll() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Sets all bits.
  void setAll() {
    for (uint64_t &W : Words)
      W = ~uint64_t(0);
    clearUnusedBits();
  }

  /// Resizes to \p NewSize bits; new bits are zero.
  void resize(unsigned NewSize) {
    Words.resize((NewSize + WordBits - 1) / WordBits, 0);
    NumBits = NewSize;
    clearUnusedBits();
  }

  /// In-place union; both vectors must have equal size.
  /// \returns true if this vector changed.
  bool unionWith(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch in union");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= RHS.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// In-place intersection; both vectors must have equal size.
  void intersectWith(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch in intersect");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= RHS.Words[I];
  }

  /// In-place set difference (this &= ~RHS); sizes must match.
  void subtract(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch in subtract");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= ~RHS.Words[I];
  }

  /// Returns true when this vector and \p RHS share any set bit; sizes
  /// must match. Word-parallel, no allocation.
  bool intersects(const BitVector &RHS) const {
    assert(NumBits == RHS.NumBits && "size mismatch in intersects");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if ((Words[I] & RHS.Words[I]) != 0)
        return true;
    return false;
  }

  /// Flips every bit (one's complement within the declared size).
  void flipAll() {
    for (uint64_t &W : Words)
      W = ~W;
    clearUnusedBits();
  }

  /// Returns the index of the first set bit, or -1 when empty.
  int findFirst() const {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I] != 0)
        return static_cast<int>(I * WordBits +
                                __builtin_ctzll(Words[I]));
    return -1;
  }

  /// Returns the index of the first set bit strictly after \p Prev,
  /// or -1 when none remains. Use with findFirst for ascending iteration.
  int findNext(unsigned Prev) const {
    unsigned Idx = Prev + 1;
    if (Idx >= NumBits)
      return -1;
    size_t WordIdx = Idx / WordBits;
    uint64_t Word = Words[WordIdx] & (~uint64_t(0) << (Idx % WordBits));
    while (true) {
      if (Word != 0)
        return static_cast<int>(WordIdx * WordBits + __builtin_ctzll(Word));
      if (++WordIdx == Words.size())
        return -1;
      Word = Words[WordIdx];
    }
  }

  /// Calls \p Fn(Idx) for every set bit in ascending order, clearing one
  /// bit of a word copy per step rather than re-seeking like findNext.
  /// \p Fn must not modify this vector.
  template <typename FnT> void forEachSetBit(FnT &&Fn) const {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      for (uint64_t Word = Words[I]; Word != 0; Word &= Word - 1)
        Fn(static_cast<unsigned>(I * WordBits + __builtin_ctzll(Word)));
  }

  bool operator==(const BitVector &RHS) const {
    return NumBits == RHS.NumBits && Words == RHS.Words;
  }
  bool operator!=(const BitVector &RHS) const { return !(*this == RHS); }

private:
  static constexpr unsigned WordBits = 64;

  void clearUnusedBits() {
    unsigned Tail = NumBits % WordBits;
    if (Tail != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << Tail) - 1;
  }

  unsigned NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace pira

#endif // PIRA_SUPPORT_BITVECTOR_H
