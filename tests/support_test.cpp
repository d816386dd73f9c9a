//===- tests/support_test.cpp - Support ADT unit tests --------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "ClosureOracle.h"
#include "JsonParser.h"

#include "support/BitMatrix.h"
#include "support/BitVector.h"
#include "support/DotWriter.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/SmallVector.h"
#include "support/StringInterner.h"
#include "support/Parallel.h"
#include "support/UndirectedGraph.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

using namespace pira;

//===----------------------------------------------------------------------===//
// BitVector
//===----------------------------------------------------------------------===//

TEST(BitVectorTest, StartsEmpty) {
  BitVector V(100);
  EXPECT_EQ(V.size(), 100u);
  EXPECT_TRUE(V.none());
  EXPECT_FALSE(V.any());
  EXPECT_EQ(V.count(), 0u);
  EXPECT_EQ(V.findFirst(), -1);
}

TEST(BitVectorTest, SetTestReset) {
  BitVector V(130);
  V.set(0);
  V.set(63);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(63));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(129));
  EXPECT_FALSE(V.test(1));
  EXPECT_EQ(V.count(), 4u);
  V.reset(63);
  EXPECT_FALSE(V.test(63));
  EXPECT_EQ(V.count(), 3u);
}

TEST(BitVectorTest, ConstructAllOnes) {
  BitVector V(70, true);
  EXPECT_EQ(V.count(), 70u);
  EXPECT_TRUE(V.test(69));
}

TEST(BitVectorTest, SetAllRespectsSize) {
  BitVector V(70);
  V.setAll();
  EXPECT_EQ(V.count(), 70u);
}

TEST(BitVectorTest, FindFirstAndNextIterateAscending) {
  BitVector V(200);
  std::set<unsigned> Expected = {3, 64, 65, 127, 128, 199};
  for (unsigned B : Expected)
    V.set(B);
  std::set<unsigned> Seen;
  for (int I = V.findFirst(); I != -1;
       I = V.findNext(static_cast<unsigned>(I)))
    Seen.insert(static_cast<unsigned>(I));
  EXPECT_EQ(Seen, Expected);
}

TEST(BitVectorTest, ForEachSetBitVisitsAscending) {
  BitVector V(200);
  const std::vector<unsigned> Expected = {0, 3, 63, 64, 65, 127, 128, 199};
  for (unsigned B : Expected)
    V.set(B);
  std::vector<unsigned> Seen;
  V.forEachSetBit([&](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, Expected);
  Seen.clear();
  BitVector(130).forEachSetBit([&](unsigned I) { Seen.push_back(I); });
  EXPECT_TRUE(Seen.empty());
}

TEST(BitVectorTest, FindNextPastEndReturnsMinusOne) {
  BitVector V(64);
  V.set(63);
  EXPECT_EQ(V.findNext(63), -1);
}

TEST(BitVectorTest, UnionReportsChange) {
  BitVector A(64), B(64);
  B.set(7);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B));
  EXPECT_TRUE(A.test(7));
}

TEST(BitVectorTest, IntersectAndSubtract) {
  BitVector A(64), B(64);
  A.set(1);
  A.set(2);
  A.set(3);
  B.set(2);
  B.set(3);
  B.set(4);
  BitVector I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.count(), 2u);
  EXPECT_TRUE(I.test(2));
  EXPECT_TRUE(I.test(3));
  BitVector D = A;
  D.subtract(B);
  EXPECT_EQ(D.count(), 1u);
  EXPECT_TRUE(D.test(1));
}

TEST(BitVectorTest, RangeCountsAndCommonBitsMatchBitByBit) {
  // Ranges that start and end inside words, on word boundaries, span
  // several words or none, against a bit-by-bit count.
  BitVector A(200), B(200);
  for (unsigned I = 0; I != 200; ++I) {
    if (I % 3 == 0 || I == 63 || I == 64 || I == 127)
      A.set(I);
    if (I % 5 == 0 || I == 64 || I == 199)
      B.set(I);
  }
  const std::pair<unsigned, unsigned> Ranges[] = {
      {0, 0},   {0, 200},   {1, 63},    {63, 65},  {64, 128},
      {5, 190}, {127, 128}, {130, 130}, {199, 200}};
  for (auto [Begin, End] : Ranges) {
    unsigned InA = 0, InBoth = 0;
    for (unsigned I = Begin; I != End; ++I) {
      InA += A.test(I);
      InBoth += A.test(I) && B.test(I);
    }
    EXPECT_EQ(A.count(Begin, End), InA) << Begin << ".." << End;
    EXPECT_EQ(A.countCommon(B, Begin, End), InBoth) << Begin << ".." << End;
  }
  std::vector<unsigned> Common, Want;
  A.forEachCommonSetBit(B, [&](unsigned I) { Common.push_back(I); });
  for (unsigned I = 0; I != 200; ++I)
    if (A.test(I) && B.test(I))
      Want.push_back(I);
  EXPECT_EQ(Common, Want);
}

TEST(BitVectorTest, FlipAllStaysInDeclaredSize) {
  BitVector V(70);
  V.set(0);
  V.flipAll();
  EXPECT_EQ(V.count(), 69u);
  EXPECT_FALSE(V.test(0));
  EXPECT_TRUE(V.test(69));
}

TEST(BitVectorTest, ResizePreservesAndZeroExtends) {
  BitVector V(10);
  V.set(9);
  V.resize(100);
  EXPECT_TRUE(V.test(9));
  EXPECT_EQ(V.count(), 1u);
  EXPECT_FALSE(V.test(99));
}

TEST(BitVectorTest, EqualityComparesSizeAndBits) {
  BitVector A(10), B(10), C(11);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  B.set(3);
  EXPECT_NE(A, B);
}

//===----------------------------------------------------------------------===//
// BitMatrix
//===----------------------------------------------------------------------===//

TEST(BitMatrixTest, SetAndTest) {
  BitMatrix M(5);
  M.set(1, 3);
  EXPECT_TRUE(M.test(1, 3));
  EXPECT_FALSE(M.test(3, 1));
  M.setSymmetric(2, 4);
  EXPECT_TRUE(M.test(2, 4));
  EXPECT_TRUE(M.test(4, 2));
}

TEST(BitMatrixTest, TransitiveClosureChain) {
  BitMatrix M(4);
  M.set(0, 1);
  M.set(1, 2);
  M.set(2, 3);
  M.transitiveClosure();
  EXPECT_TRUE(M.test(0, 2));
  EXPECT_TRUE(M.test(0, 3));
  EXPECT_TRUE(M.test(1, 3));
  EXPECT_FALSE(M.test(3, 0));
  EXPECT_FALSE(M.test(0, 0));
}

TEST(BitMatrixTest, TransitiveClosureCycleIncludesSelf) {
  BitMatrix M(3);
  M.set(0, 1);
  M.set(1, 0);
  M.transitiveClosure();
  EXPECT_TRUE(M.test(0, 0));
  EXPECT_TRUE(M.test(1, 1));
  EXPECT_FALSE(M.test(2, 2));
}

TEST(BitMatrixTest, SymmetrizeAddsTranspose) {
  BitMatrix M(3);
  M.set(0, 2);
  M.symmetrize();
  EXPECT_TRUE(M.test(2, 0));
  EXPECT_TRUE(M.test(0, 2));
}

TEST(BitMatrixTest, ComplementOffDiagonal) {
  BitMatrix M(3);
  M.set(0, 1);
  M.complementOffDiagonal();
  EXPECT_FALSE(M.test(0, 1));
  EXPECT_TRUE(M.test(1, 0));
  EXPECT_TRUE(M.test(0, 2));
  EXPECT_FALSE(M.test(0, 0));
  EXPECT_FALSE(M.test(1, 1));
}

TEST(BitMatrixTest, CountSumsAllEntries) {
  BitMatrix M(4);
  M.set(0, 1);
  M.set(2, 3);
  M.set(3, 2);
  EXPECT_EQ(M.count(), 3u);
}

//===----------------------------------------------------------------------===//
// UndirectedGraph
//===----------------------------------------------------------------------===//

TEST(UndirectedGraphTest, AddRemoveEdge) {
  UndirectedGraph G(4);
  EXPECT_TRUE(G.addEdge(0, 1));
  EXPECT_FALSE(G.addEdge(1, 0)) << "duplicate edge must be rejected";
  EXPECT_TRUE(G.hasEdge(0, 1));
  EXPECT_TRUE(G.hasEdge(1, 0));
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.degree(0), 1u);
  EXPECT_TRUE(G.removeEdge(0, 1));
  EXPECT_FALSE(G.removeEdge(0, 1));
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(G.degree(0), 0u);
}

TEST(UndirectedGraphTest, NeighborListAscending) {
  UndirectedGraph G(5);
  G.addEdge(2, 4);
  G.addEdge(2, 0);
  G.addEdge(2, 3);
  std::vector<unsigned> Expected = {0, 3, 4};
  EXPECT_EQ(G.neighborList(2), Expected);
}

TEST(UndirectedGraphTest, EdgeListLexicographic) {
  UndirectedGraph G(4);
  G.addEdge(3, 1);
  G.addEdge(0, 2);
  G.addEdge(1, 0);
  std::vector<std::pair<unsigned, unsigned>> Expected = {
      {0, 1}, {0, 2}, {1, 3}};
  EXPECT_EQ(G.edgeList(), Expected);
}

TEST(UndirectedGraphTest, UnionWithMergesEdges) {
  UndirectedGraph A(3), B(3);
  A.addEdge(0, 1);
  B.addEdge(1, 2);
  B.addEdge(0, 1);
  A.unionWith(B);
  EXPECT_EQ(A.numEdges(), 2u);
  EXPECT_TRUE(A.hasEdge(1, 2));
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(12345), B(12345);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I != 16 && !AnyDifferent; ++I)
    AnyDifferent = A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(7);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, ZeroSeedIsRemapped) {
  Rng R(0);
  EXPECT_NE(R.next(), 0u);
}

//===----------------------------------------------------------------------===//
// DotWriter
//===----------------------------------------------------------------------===//

TEST(DotWriterTest, EmitsWellFormedGraph) {
  std::ostringstream OS;
  {
    DotWriter W(OS, "g", /*Directed=*/false);
    W.node(0, "a");
    W.node(1, "b", "shape=box");
    W.edge(0, 1, "style=dashed");
  }
  std::string S = OS.str();
  EXPECT_NE(S.find("graph g {"), std::string::npos);
  EXPECT_NE(S.find("n0 [label=\"a\"];"), std::string::npos);
  EXPECT_NE(S.find("shape=box"), std::string::npos);
  EXPECT_NE(S.find("n0 -- n1 [style=dashed];"), std::string::npos);
  EXPECT_NE(S.find("}"), std::string::npos);
}

TEST(DotWriterTest, DirectedUsesArrows) {
  std::ostringstream OS;
  {
    DotWriter W(OS, "d", /*Directed=*/true);
    W.edge(2, 5);
  }
  EXPECT_NE(OS.str().find("digraph d {"), std::string::npos);
  EXPECT_NE(OS.str().find("n2 -> n5;"), std::string::npos);
}

TEST(DotWriterTest, AllEdgesDumpsGraph) {
  UndirectedGraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  std::ostringstream OS;
  {
    DotWriter W(OS, "g", false);
    W.allEdges(G);
  }
  EXPECT_NE(OS.str().find("n0 -- n1"), std::string::npos);
  EXPECT_NE(OS.str().find("n1 -- n2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Transitive closure: packed-bitset vs. set-based reference
//===----------------------------------------------------------------------===//

namespace {

/// A random DAG on \p N nodes: edges only from lower to higher index,
/// each present with probability \p EdgePercent.
BitMatrix randomDag(unsigned N, unsigned EdgePercent, uint64_t Seed) {
  Rng R(Seed);
  BitMatrix M(N);
  for (unsigned I = 0; I != N; ++I)
    for (unsigned J = I + 1; J != N; ++J)
      if (R.chancePercent(EdgePercent))
        M.set(I, J);
  return M;
}

} // namespace

TEST(TransitiveClosureTest, BitsetMatchesSetBasedReferenceOnRandomDags) {
  // Sizes straddle the word width and reach the 512-node blocks the
  // closure benchmark times; densities cover sparse through near-dense.
  for (unsigned N : {1u, 7u, 63u, 64u, 65u, 200u, 512u})
    for (unsigned Density : {2u, 10u, 40u}) {
      BitMatrix Dag = randomDag(N, Density, N * 1000 + Density);
      BitMatrix Reference = setBasedClosure(Dag);
      BitMatrix Packed = Dag;
      Packed.transitiveClosure();
      EXPECT_EQ(Packed, Reference)
          << "closures diverge at N=" << N << " density=" << Density << "%";
    }
}

TEST(TransitiveClosureTest, SetBasedReferenceLeavesInputUntouched) {
  BitMatrix Dag = randomDag(50, 20, 99);
  BitMatrix Copy = Dag;
  (void)setBasedClosure(Dag);
  EXPECT_EQ(Dag, Copy);
}

TEST(TransitiveClosureTest, ClosureOfChainIsFullUpperTriangle) {
  unsigned N = 130;
  BitMatrix Chain(N);
  for (unsigned I = 0; I + 1 != N; ++I)
    Chain.set(I, I + 1);
  BitMatrix Reference = setBasedClosure(Chain);
  Chain.transitiveClosure();
  EXPECT_EQ(Chain, Reference);
  EXPECT_EQ(Chain.count(), N * (N - 1) / 2);
}

//===----------------------------------------------------------------------===//
// UndirectedGraph::fromSymmetric
//===----------------------------------------------------------------------===//

TEST(UndirectedGraphTest, FromSymmetricMatchesIncrementalConstruction) {
  Rng R(4242);
  unsigned N = 150;
  UndirectedGraph Incremental(N);
  BitMatrix M(N);
  for (unsigned I = 0; I != N; ++I)
    for (unsigned J = I + 1; J != N; ++J)
      if (R.chancePercent(15)) {
        Incremental.addEdge(I, J);
        M.setSymmetric(I, J);
      }
  UndirectedGraph Bulk = UndirectedGraph::fromSymmetric(std::move(M));
  ASSERT_EQ(Bulk.numVertices(), Incremental.numVertices());
  EXPECT_EQ(Bulk.numEdges(), Incremental.numEdges());
  for (unsigned V = 0; V != N; ++V) {
    EXPECT_EQ(Bulk.degree(V), Incremental.degree(V)) << "vertex " << V;
    EXPECT_EQ(Bulk.neighbors(V), Incremental.neighbors(V)) << "vertex " << V;
  }
  EXPECT_EQ(Bulk.edgeList(), Incremental.edgeList());
}

TEST(UndirectedGraphTest, FromSymmetricEmptyAndComplete) {
  UndirectedGraph Empty = UndirectedGraph::fromSymmetric(BitMatrix(40));
  EXPECT_EQ(Empty.numEdges(), 0u);
  BitMatrix Full(40);
  for (unsigned I = 0; I != 40; ++I)
    for (unsigned J = 0; J != 40; ++J)
      if (I != J)
        Full.set(I, J);
  UndirectedGraph Complete = UndirectedGraph::fromSymmetric(std::move(Full));
  EXPECT_EQ(Complete.numEdges(), 40u * 39u / 2);
  EXPECT_EQ(Complete.degree(17), 39u);
}

//===----------------------------------------------------------------------===//
// Json parser edge cases
//===----------------------------------------------------------------------===//

namespace {

/// Parses \p Text, asserting success, and returns the value.
json::Value parseOk(const std::string &Text) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, V, Error)) << Error;
  return V;
}

/// Parses \p Text, asserting failure, and returns the error message.
std::string parseErr(const std::string &Text) {
  json::Value V;
  std::string Error;
  EXPECT_FALSE(json::parse(Text, V, Error));
  return Error;
}

/// Builds Depth nested arrays around a zero: [[[...0...]]].
std::string nestedArrays(unsigned Depth) {
  std::string S;
  S.append(Depth, '[');
  S += '0';
  S.append(Depth, ']');
  return S;
}

} // namespace

TEST(JsonEdgeTest, MalformedUtf8BytesPassThroughStrings) {
  // The parser treats strings as byte sequences; invalid UTF-8 (a lone
  // continuation byte, an overlong-start byte) must neither crash nor be
  // altered on a write/parse round trip. Telemetry reports embed function
  // names that ultimately come from arbitrary user input.
  std::string Raw = std::string("a\x80") + "\xC3" + "b\xFF";
  json::Value V(Raw);
  std::string Serialized = V.toString();
  json::Value Back = parseOk(Serialized);
  ASSERT_TRUE(Back.isString());
  EXPECT_EQ(Back.asString(), Raw);
}

TEST(JsonEdgeTest, ControlCharactersEscapeAndRoundTrip) {
  std::string Raw = "tab\there\nnewline\x01unit";
  json::Value Back = parseOk(json::Value(Raw).toString());
  ASSERT_TRUE(Back.isString());
  EXPECT_EQ(Back.asString(), Raw);
}

TEST(JsonEdgeTest, DeepNestingWithinLimitParses) {
  json::Value V = parseOk(nestedArrays(150));
  unsigned Depth = 0;
  const json::Value *Cur = &V;
  while (Cur->isArray()) {
    ASSERT_EQ(Cur->size(), 1u);
    Cur = &Cur->elements().front();
    ++Depth;
  }
  EXPECT_EQ(Depth, 150u);
  ASSERT_TRUE(Cur->isInt());
  EXPECT_EQ(Cur->asInt(), 0);
}

TEST(JsonEdgeTest, NestingBeyondLimitIsRejectedNotOverflowed) {
  // The recursive-descent parser must refuse pathological inputs with a
  // clean error instead of exhausting the stack.
  EXPECT_NE(parseErr(nestedArrays(300)).find("nesting too deep"),
            std::string::npos);
  EXPECT_NE(parseErr(nestedArrays(5000)).find("nesting too deep"),
            std::string::npos);
}

TEST(JsonEdgeTest, DuplicateObjectKeysLastValueWins) {
  json::Value V = parseOk(R"({"k": 1, "other": true, "k": 2})");
  ASSERT_TRUE(V.isObject());
  // The duplicate collapses into the member's original slot: one entry,
  // holding the last value, with insertion order otherwise preserved.
  ASSERT_EQ(V.size(), 2u);
  EXPECT_EQ(V.members()[0].first, "k");
  EXPECT_EQ(V.members()[1].first, "other");
  const json::Value *K = V.find("k");
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(K->asInt(), 2);
}

TEST(JsonEdgeTest, NegativeZeroIntegerParsesAsZero) {
  json::Value V = parseOk("-0");
  ASSERT_TRUE(V.isInt());
  EXPECT_EQ(V.asInt(), 0);
}

TEST(JsonEdgeTest, NegativeZeroDoubleKeepsItsSign) {
  json::Value V = parseOk("-0.0");
  ASSERT_FALSE(V.isInt());
  ASSERT_TRUE(V.isNumber());
  EXPECT_EQ(V.asDouble(), 0.0);
  EXPECT_TRUE(std::signbit(V.asDouble()));
}

TEST(JsonEdgeTest, Int64ExtremesRoundTripExactly) {
  // Counters are int64; both extremes must survive write/parse without
  // drifting through a double.
  for (int64_t I : {INT64_MAX, INT64_MIN, int64_t{0}, int64_t{-1}}) {
    json::Value Back = parseOk(json::Value(I).toString());
    ASSERT_TRUE(Back.isInt()) << I;
    EXPECT_EQ(Back.asInt(), I);
  }
}

TEST(JsonEdgeTest, IntegerOverflowIsAnErrorNotSilentWrap) {
  EXPECT_NE(parseErr("9223372036854775808").find("number out of range"),
            std::string::npos);
  EXPECT_NE(parseErr("-9223372036854775809").find("number out of range"),
            std::string::npos);
}

namespace {

/// Switches LC_NUMERIC to a comma-decimal locale for one test and
/// restores the previous locale on destruction. Valid() is false when no
/// such locale is installed (common in minimal containers); tests skip
/// then, and CI installs de_DE.UTF-8 so the path actually runs there.
class ScopedCommaLocale {
public:
  ScopedCommaLocale() {
    const char *Prev = std::setlocale(LC_NUMERIC, nullptr);
    Saved = Prev ? Prev : "C";
    for (const char *Name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                             "fr_FR.utf8", "de_DE", "fr_FR"})
      if (std::setlocale(LC_NUMERIC, Name)) {
        // Only count it if the locale really uses a comma decimal point.
        if (*std::localeconv()->decimal_point == ',') {
          Active = true;
          return;
        }
        std::setlocale(LC_NUMERIC, Saved.c_str());
      }
  }
  ~ScopedCommaLocale() {
    if (Active)
      std::setlocale(LC_NUMERIC, Saved.c_str());
  }
  bool valid() const { return Active; }

private:
  std::string Saved;
  bool Active = false;
};

} // namespace

TEST(JsonLocaleTest, DoubleRoundTripUnderCommaDecimalLocale) {
  // Regression test: number formatting went through snprintf("%g") and
  // parsing through std::stod, both of which honor LC_NUMERIC. Under a
  // comma-decimal locale that wrote "0,5" (invalid JSON) and failed to
  // read "0.5". The writer/parser now use std::to_chars/std::from_chars,
  // which are locale-independent by construction.
  ScopedCommaLocale Locale;
  if (!Locale.valid())
    GTEST_SKIP() << "no comma-decimal locale installed";

  for (double D : {0.5, -3.25, 1e-9, 6.02e23, 0.1}) {
    json::Value V(D);
    std::string Text = V.toString();
    // The serialized form must use '.' regardless of locale, and must
    // not contain a comma (which would also break array separators).
    EXPECT_EQ(Text.find(','), std::string::npos) << Text;
    json::Value Back = parseOk(Text);
    ASSERT_TRUE(Back.isNumber()) << Text;
    EXPECT_EQ(Back.asDouble(), D) << Text;
  }

  // A full report-shaped document round-trips too: parsing locale-neutral
  // input must not be confused by the ambient locale either.
  json::Value Doc = parseOk(R"({"hit_rate": 0.75, "xs": [1.5, 2.25]})");
  EXPECT_EQ(Doc.find("hit_rate")->asDouble(), 0.75);
  EXPECT_EQ(Doc.find("xs")->elements()[1].asDouble(), 2.25);
}

//===----------------------------------------------------------------------===//
// SHA-256 (perfbench check digests)
//===----------------------------------------------------------------------===//

namespace {

std::string sha256Hex(std::string_view Data) {
  hash::Sha256 H;
  H.update(Data);
  return H.hexDigest();
}

} // namespace

TEST(HashTest, Sha256KnownAnswers) {
  // FIPS 180-2 test vectors.
  EXPECT_EQ(sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(sha256Hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");

  // Byte-at-a-time updates equal a one-shot hash across the padding
  // boundaries: 55/56 bytes (the length field just fits / spills into a
  // second block), 63/64/65 (one block exactly), and their two-block
  // counterparts.
  for (unsigned Len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string Msg;
    for (unsigned I = 0; I != Len; ++I)
      Msg += static_cast<char>('a' + (I * 7) % 26);
    hash::Sha256 Bytewise;
    for (char C : Msg)
      Bytewise.update(&C, 1);
    EXPECT_EQ(Bytewise.hexDigest(), sha256Hex(Msg)) << "length " << Len;
  }
}

//===----------------------------------------------------------------------===//
// Job-count bound
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, PiraJobsAboveTheCapIsIgnored) {
  // Only defaultJobCount() runs here: no loop runs, so no thread is
  // started whatever the variable says.
  std::optional<std::string> Saved;
  if (const char *Old = std::getenv("PIRA_JOBS"))
    Saved = Old;
  setenv("PIRA_JOBS", "100000", 1);
  EXPECT_LE(defaultJobCount(), MaxJobs);
  setenv("PIRA_JOBS", "256", 1);
  EXPECT_EQ(defaultJobCount(), MaxJobs);
  if (Saved)
    setenv("PIRA_JOBS", Saved->c_str(), 1);
  else
    unsetenv("PIRA_JOBS");
}

//===----------------------------------------------------------------------===//
// SmallVector / string interner (the data-oriented IR layer)
//===----------------------------------------------------------------------===//

TEST(SmallVectorTest, InlineThenSpill) {
  SmallVector<unsigned, 3> V;
  EXPECT_TRUE(V.empty());
  // Stay inline: no heap allocation observable, values intact.
  V.push_back(10);
  V.push_back(20);
  V.push_back(30);
  EXPECT_EQ(V.size(), 3u);
  EXPECT_EQ(V[0], 10u);
  EXPECT_EQ(V.back(), 30u);
  // Cross the inline capacity and keep growing well past it.
  for (unsigned I = 0; I < 100; ++I)
    V.push_back(I);
  ASSERT_EQ(V.size(), 103u);
  EXPECT_EQ(V[0], 10u);
  EXPECT_EQ(V[3], 0u);
  EXPECT_EQ(V[102], 99u);
  V.pop_back();
  EXPECT_EQ(V.size(), 102u);
  V.clear();
  EXPECT_TRUE(V.empty());
}

TEST(SmallVectorTest, CopyMoveAndEquality) {
  SmallVector<unsigned, 2> A{1, 2, 3, 4};
  SmallVector<unsigned, 2> B(A);
  EXPECT_TRUE(A == B);
  SmallVector<unsigned, 2> C(std::move(A));
  EXPECT_TRUE(C == B);
  // Converting construction from std::vector, both inline and spilled.
  SmallVector<unsigned, 4> D(std::vector<unsigned>{7, 8});
  ASSERT_EQ(D.size(), 2u);
  EXPECT_EQ(D[1], 8u);
  SmallVector<unsigned, 1> E(std::vector<unsigned>{5, 6, 7});
  ASSERT_EQ(E.size(), 3u);
  EXPECT_EQ(E[2], 7u);
  SmallVector<unsigned, 2> F{1, 2, 3, 4};
  SmallVector<unsigned, 2> G{1, 2, 3, 5};
  EXPECT_FALSE(F == G);
  G = F;
  EXPECT_TRUE(F == G);
  // Range-for iterates in order.
  unsigned Sum = 0;
  for (unsigned X : F)
    Sum += X;
  EXPECT_EQ(Sum, 10u);
}

TEST(StringInternerTest, PointerIdentityPerContent) {
  Symbol A = internString("alpha");
  Symbol B = internString(std::string("al") + "pha");
  Symbol C = internString("beta");
  EXPECT_EQ(A, B);  // same content, same pointer
  EXPECT_NE(A, C);
  EXPECT_EQ(*A, "alpha");
  EXPECT_EQ(*C, "beta");
  EXPECT_EQ(internString(""), emptySymbol());
  EXPECT_EQ(*emptySymbol(), "");
}
