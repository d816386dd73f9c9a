//===- tests/hardening_test.cpp - Parser/verifier hostile-input tests -----===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Hostile-input hardening for the textual front end: a corpus of
// malformed IR that must produce diagnostics (never crashes), the
// Status-flavored parse/verify entry points, and a seeded
// random-mutation round-trip — print a generated program, corrupt
// random bytes, and push whatever survives parsing and verification
// through the guarded pipeline.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

using namespace pira;

namespace {

/// Malformed inputs and a short tag naming what is wrong with each.
/// Every one of these must be rejected — by the parser or by the
/// verifier — with a diagnostic, and must never crash.
const std::pair<const char *, const char *> MalformedCorpus[] = {
    {"empty", ""},
    {"whitespace-only", "   \n\t\n"},
    {"not-ir", "this is not IR\n"},
    {"missing-func", "@f regs 4 { block e: ret %s0 }\n"},
    {"missing-name", "func regs 4 {\nblock e:\n  ret %s0\n}\n"},
    {"unclosed-body", "func @f regs 4 {\nblock e:\n  %s0 = li 1\n"},
    {"no-blocks", "func @f regs 4 {\n}\n"},
    {"inst-before-block", "func @f regs 4 {\n  %s0 = li 1\n}\n"},
    {"bad-opcode",
     "func @f regs 4 {\nblock e:\n  %s0 = frobnicate 1\n  ret %s0\n}\n"},
    {"bad-register",
     "func @f regs 4 {\nblock e:\n  %x9 = li 1\n  ret %x9\n}\n"},
    {"bad-operand",
     "func @f regs 4 {\nblock e:\n  %s0 = add %s1,\n  ret %s0\n}\n"},
    {"duplicate-label",
     "func @f regs 4 {\nblock e:\n  %s0 = li 1\n  br e2\nblock e2:\n  br "
     "e2b\nblock e2:\n  ret %s0\nblock e2b:\n  ret %s0\n}\n"},
    {"undefined-branch-target",
     "func @f regs 4 {\nblock e:\n  %s0 = li 1\n  br nowhere\n}\n"},
    {"missing-terminator",
     "func @f regs 4 {\nblock e:\n  %s0 = li 1\nblock d:\n  ret %s0\n}\n"},
    {"terminator-mid-block",
     "func @f regs 4 {\nblock e:\n  ret %s0\n  %s0 = li 1\n}\n"},
    {"register-out-of-space",
     "func @f regs 2 {\nblock e:\n  %s7 = li 1\n  ret %s7\n}\n"},
};

} // namespace

TEST(HardeningTest, MalformedCorpusYieldsDiagnosticsNotCrashes) {
  for (const auto &[Tag, Text] : MalformedCorpus) {
    Expected<Function> F = parseFunctionEx(Text, Tag);
    if (!F.ok()) {
      EXPECT_EQ(F.status().code(), ErrorCode::ParseError) << Tag;
      EXPECT_FALSE(F.status().message().empty()) << Tag;
      continue;
    }
    // Parsed: the verifier must catch it instead.
    Status S = verifyFunctionStatus(*F);
    EXPECT_FALSE(S.ok()) << Tag << ": accepted malformed input";
    EXPECT_EQ(S.code(), ErrorCode::VerifyError) << Tag;
    EXPECT_FALSE(S.message().empty()) << Tag;
  }
}

TEST(HardeningTest, ParseExCarriesTheInputName) {
  Expected<Function> Bad = parseFunctionEx("junk", "broken.pir");
  ASSERT_FALSE(Bad.ok());
  ASSERT_EQ(Bad.status().context().size(), 1u);
  EXPECT_EQ(Bad.status().context()[0], "input broken.pir");

  Expected<Function> Anon = parseFunctionEx("junk");
  ASSERT_FALSE(Anon.ok());
  EXPECT_EQ(Anon.status().context()[0], "input <input>");

  Expected<Function> Good = parseFunctionEx(
      "func @ok regs 4 {\nblock e:\n  %s0 = li 1\n  ret %s0\n}\n", "ok.pir");
  ASSERT_TRUE(Good.ok()) << Good.status().toString();
  EXPECT_EQ(Good->name(), "ok");
}

TEST(HardeningTest, VerifyStatusNamesTheFunction) {
  Function F;
  std::string Error;
  ASSERT_TRUE(parseFunction(
      "func @f regs 4 {\nblock e:\n  %s0 = li 1\nblock d:\n  ret %s0\n}\n", F,
      Error))
      << Error;
  Status S = verifyFunctionStatus(F);
  ASSERT_FALSE(S.ok());
  ASSERT_EQ(S.context().size(), 1u);
  EXPECT_EQ(S.context()[0], "function @f");

  Function Ok;
  ASSERT_TRUE(parseFunction(
      "func @g regs 4 {\nblock e:\n  %s0 = li 1\n  ret %s0\n}\n", Ok, Error));
  EXPECT_TRUE(verifyFunctionStatus(Ok).ok());
}

TEST(HardeningTest, ParseEnterFaultSiteFires) {
  std::string ConfigError;
  ASSERT_TRUE(faultinject::configure("parse.enter:1", ConfigError))
      << ConfigError;
  Expected<Function> F = parseFunctionEx(
      "func @ok regs 4 {\nblock e:\n  %s0 = li 1\n  ret %s0\n}\n", "ok.pir");
  faultinject::reset();
  ASSERT_FALSE(F.ok());
  EXPECT_EQ(F.status().code(), ErrorCode::FaultInjected);
}

TEST(HardeningTest, SignedOverflowProgramCompilesUnderEveryStrategy) {
  // A verified program whose values overflow: the add reaches INT64_MIN
  // and the div then computes INT64_MIN / -1, which traps as a native
  // division. Integer arithmetic wraps, so the quotient is INT64_MIN and
  // the compile (interpreter and simulator included) must succeed.
  const char *Text = "func @f regs 4 {\n"
                     "block e:\n"
                     "  %s0 = li -9223372036854775807\n"
                     "  %s1 = li -1\n"
                     "  %s2 = add %s0, %s1\n"
                     "  %s3 = div %s2, %s1\n"
                     "  ret %s3\n"
                     "}\n";
  Expected<Function> F = parseFunctionEx(Text, "overflow.pir");
  ASSERT_TRUE(F.ok()) << F.status().toString();
  ASSERT_TRUE(verifyFunctionStatus(*F).ok());
  MachineModel M = MachineModel::rs6000();
  for (StrategyKind K : {StrategyKind::AllocFirst, StrategyKind::SchedFirst,
                         StrategyKind::IntegratedPrepass,
                         StrategyKind::Combined}) {
    BatchOptions BOpts;
    BOpts.Strategy = K;
    GuardedResult G = compileFunctionGuarded(*F, M, BOpts);
    ASSERT_TRUE(G.Result.Success)
        << strategyName(K) << ": " << G.Result.Diag.toString();
    EXPECT_FALSE(G.Outcome.Degraded) << strategyName(K);
    EXPECT_TRUE(G.Result.SemanticsPreserved) << strategyName(K);
  }
}

//===----------------------------------------------------------------------===//
// Seeded random-mutation round-trip
//===----------------------------------------------------------------------===//

namespace {

/// Corrupts up to \p Mutations bytes of \p Text, seeded. Digits mutate
/// to digits (register numbers, constants, addresses — corruptions that
/// often still parse, pushing the damage into later layers); everything
/// else mutates to an arbitrary printable character.
std::string mutate(std::string Text, uint64_t Seed, unsigned Mutations) {
  static const char Alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789%@{}[]:=,+ \n";
  static const char Digits[] = "0123456789";
  Rng R(Seed);
  for (unsigned I = 0; I != Mutations && !Text.empty(); ++I) {
    size_t Pos = static_cast<size_t>(R.nextBelow(Text.size()));
    Text[Pos] = std::isdigit(static_cast<unsigned char>(Text[Pos]))
                    ? Digits[R.nextBelow(10)]
                    : Alphabet[R.nextBelow(sizeof(Alphabet) - 1)];
  }
  return Text;
}

} // namespace

TEST(HardeningTest, MutatedProgramsNeverCrashTheFrontEndOrThePipeline) {
  MachineModel M = MachineModel::rs6000();
  unsigned Parsed = 0, Compiled = 0;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    RandomProgramOptions Opts;
    Opts.Shape = static_cast<CfgShape>(Seed % 5);
    Opts.Seed = Seed * 2654435761u;
    Opts.InstructionsPerBlock = 8;
    Function Original = generateRandomProgram(Opts);
    std::ostringstream OS;
    printFunction(Original, OS);
    std::string Text =
        mutate(OS.str(), Seed * 97, /*Mutations=*/1 + Seed % 4);

    // Whatever the mutation produced, the front end must answer with a
    // value or a diagnostic — nothing may throw or crash.
    Expected<Function> F =
        parseFunctionEx(Text, "mutant-" + std::to_string(Seed));
    if (!F.ok()) {
      EXPECT_FALSE(F.status().message().empty());
      continue;
    }
    if (!verifyFunctionStatus(*F).ok())
      continue;
    ++Parsed;

    // A mutant that still parses and verifies is just a program; the
    // guarded pipeline must compile it or diagnose it, never throw.
    BatchOptions BOpts;
    BOpts.Strategy = StrategyKind::Combined;
    GuardedResult G = compileFunctionGuarded(*F, M, BOpts);
    if (G.Result.Success) {
      ++Compiled;
      EXPECT_TRUE(G.Result.SemanticsPreserved)
          << "seed " << Seed << ": compiled code diverged from the mutant's "
          << "own reference semantics";
    } else {
      EXPECT_FALSE(G.Result.Diag.ok()) << "seed " << Seed;
    }
  }
  // The sweep must exercise both rejection and the full-compile path;
  // a mutation scheme that kills (or misses) everything tests nothing.
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Compiled, 0u);
  RecordProperty("parsed", static_cast<int>(Parsed));
  RecordProperty("compiled", static_cast<int>(Compiled));
}
