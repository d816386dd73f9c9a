//===- tests/cache_test.cpp - Compilation-cache tests ---------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The content-addressed compilation cache (pipeline/Cache.h): key
// sensitivity to every compile-relevant input (and insensitivity to the
// irrelevant ones), entry encode/decode round trips, both tiers, the
// corrupt-entry-is-a-miss rule, Verify-mode tamper detection, the
// never-cache-degraded rule, warm-run byte identity across worker
// counts, and disk-tier trimming under --cache-max-mb.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Cache.h"
#include "pipeline/Report.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pira;

namespace {

/// A tiny well-formed function; \p Name keeps keys distinct per test.
Function smallFunction(const std::string &Name = "t") {
  std::string Text = "func @" + Name + R"( regs 8 {
  array a 4
block entry:
  %s0 = li 1
  %s1 = li 2
  %s2 = add %s0, %s1
  %s3 = fmul %s2, %s1
  store a[0], %s3
  ret %s3
}
)";
  Function F;
  std::string Error;
  EXPECT_TRUE(parseFunction(Text, F, Error)) << Error;
  return F;
}

std::string keyOf(const Function &F, const MachineModel &M = MachineModel::rs6000(),
                  const BatchOptions &Opts = {}) {
  return computeCacheKey(F, M, Opts);
}

/// A fresh per-test scratch directory under the gtest temp root.
std::filesystem::path scratchDir(const std::string &Tag) {
  std::filesystem::path Dir =
      std::filesystem::path(testing::TempDir()) / ("pira_cache_" + Tag);
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Fault tests disarm the harness on the way out so armed sites never
/// leak into the rest of the binary.
class CacheFaultTest : public testing::Test {
protected:
  void TearDown() override { faultinject::reset(); }

  static void arm(const std::string &Spec) {
    std::string Error;
    ASSERT_TRUE(faultinject::configure(Spec, Error)) << Error;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Mode names
//===----------------------------------------------------------------------===//

TEST(CacheModeTest, NamesRoundTrip) {
  for (CacheMode M : {CacheMode::Off, CacheMode::On, CacheMode::Verify}) {
    Expected<CacheMode> Back = cacheModeFromName(cacheModeName(M));
    ASSERT_TRUE(Back);
    EXPECT_EQ(*Back, M);
  }
  Expected<CacheMode> Bad = cacheModeFromName("sometimes");
  ASSERT_FALSE(Bad);
  EXPECT_EQ(Bad.status().code(), ErrorCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Key sensitivity
//===----------------------------------------------------------------------===//

TEST(CacheKeyTest, KeyIsStableHex) {
  Function F = smallFunction();
  std::string A = keyOf(F);
  std::string B = keyOf(F);
  EXPECT_EQ(A, B);
  ASSERT_EQ(A.size(), 64u);
  for (char C : A)
    EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')) << C;
}

TEST(CacheKeyTest, WhitespaceAndCommentDifferencesCollapse) {
  // The key hashes the canonical *printed* IR, so formatting noise in
  // the source text never fragments the cache.
  std::string Tidy = R"(func @f regs 8 {
block entry:
  %s0 = li 1
  %s1 = add %s0, %s0
  ret %s1
}
)";
  std::string Messy = R"(# a leading comment
func @f    regs 8 {
block entry:
    %s0 = li 1      # one
  %s1 =   add %s0, %s0

  ret %s1   # done
}
)";
  Function A, B;
  std::string Error;
  ASSERT_TRUE(parseFunction(Tidy, A, Error)) << Error;
  ASSERT_TRUE(parseFunction(Messy, B, Error)) << Error;
  EXPECT_EQ(keyOf(A), keyOf(B));
}

TEST(CacheKeyTest, OneIrTokenChangesTheKey) {
  std::string Base = R"(func @f regs 8 {
block entry:
  %s0 = li 1
  %s1 = add %s0, %s0
  ret %s1
}
)";
  std::string Changed = Base;
  size_t Pos = Changed.find("li 1");
  ASSERT_NE(Pos, std::string::npos);
  Changed.replace(Pos, 4, "li 2");
  Function A, B;
  std::string Error;
  ASSERT_TRUE(parseFunction(Base, A, Error)) << Error;
  ASSERT_TRUE(parseFunction(Changed, B, Error)) << Error;
  EXPECT_NE(keyOf(A), keyOf(B));
}

TEST(CacheKeyTest, MachineConfigurationChangesTheKey) {
  Function F = smallFunction();
  std::string Base = keyOf(F, MachineModel::rs6000());
  EXPECT_NE(Base, keyOf(F, MachineModel::mipsR3000()));
  EXPECT_NE(Base, keyOf(F, MachineModel::vliw4()));
  // Same machine, different register file.
  EXPECT_NE(Base, keyOf(F, MachineModel::rs6000(8)));
}

TEST(CacheKeyTest, StrategyAndOptionsChangeTheKey) {
  Function F = smallFunction();
  MachineModel M = MachineModel::rs6000();
  BatchOptions Base;
  std::string BaseKey = keyOf(F, M, Base);

  BatchOptions O = Base;
  O.Strategy = StrategyKind::AllocFirst;
  EXPECT_NE(BaseKey, keyOf(F, M, O));

  O = Base;
  O.Pinter.ParallelWeight = 2.0;
  EXPECT_NE(BaseKey, keyOf(F, M, O));

  O = Base;
  O.Pinter.PreSchedule = false;
  EXPECT_NE(BaseKey, keyOf(F, M, O));

  O = Base;
  O.Budget.MaxInstructions = 1000;
  EXPECT_NE(BaseKey, keyOf(F, M, O));

  O = Base;
  O.Budget.DeadlineMs = 5000;
  EXPECT_NE(BaseKey, keyOf(F, M, O));

  O = Base;
  O.Measure = false;
  EXPECT_NE(BaseKey, keyOf(F, M, O));

  O = Base;
  O.Seed = 7;
  EXPECT_NE(BaseKey, keyOf(F, M, O));

  O = Base;
  O.Degrade = false;
  EXPECT_NE(BaseKey, keyOf(F, M, O));
}

TEST(CacheKeyTest, WorkerCountAndCachePointerAreIrrelevant) {
  // Results are worker-count-invariant by the determinism contract, so
  // --jobs must not fragment keys; neither may the cache object itself.
  Function F = smallFunction();
  MachineModel M = MachineModel::rs6000();
  BatchOptions A, B;
  A.Jobs = 1;
  B.Jobs = 8;
  CompilationCache Cache(CacheMode::On);
  B.Cache = &Cache;
  EXPECT_EQ(keyOf(F, M, A), keyOf(F, M, B));
}

TEST_F(CacheFaultTest, ArmedFaultSpecChangesTheKey) {
  // A fault-injected compile can produce a different (degraded) result,
  // so the armed spec must partition the key space; with a spec armed
  // the per-thread fault key joins too (batch position changes which
  // sites fire). Disarmed, neither contributes.
  Function F = smallFunction();
  std::string Clean = keyOf(F);
  {
    faultinject::ScopedKey K(1);
    EXPECT_EQ(Clean, keyOf(F)) << "fault key leaked into a disarmed key";
  }
  arm("alloc.pinter:3");
  std::string Armed = keyOf(F);
  EXPECT_NE(Clean, Armed);
  {
    faultinject::ScopedKey K(1);
    EXPECT_NE(Armed, keyOf(F)) << "fault key ignored while armed";
  }
  faultinject::reset();
  EXPECT_EQ(Clean, keyOf(F));
}

//===----------------------------------------------------------------------===//
// Entry encode / decode
//===----------------------------------------------------------------------===//

TEST(CacheEntryTest, EncodeDecodeRoundTripsByteIdentically) {
  Function F = smallFunction("rt");
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  GuardedResult G = compileFunctionGuarded(F, M, Opts);
  ASSERT_TRUE(G.Result.Success) << G.Result.Error;

  std::string Key = computeCacheKey(F, M, Opts);
  json::Value Entry = encodeCacheEntry(G.Result, Key);
  Expected<PipelineResult> Back = decodeCacheEntry(Entry);
  ASSERT_TRUE(Back) << Back.status().toString();

  // The decoded result must re-encode to the same bytes — that identity
  // is what makes Verify mode a real oracle.
  EXPECT_EQ(Entry.toString(-1), encodeCacheEntry(*Back, Key).toString(-1));
  EXPECT_EQ(Back->DynCycles, G.Result.DynCycles);
  EXPECT_EQ(Back->RegistersUsed, G.Result.RegistersUsed);
  EXPECT_EQ(functionToString(Back->Final), functionToString(G.Result.Final));
}

TEST(CacheEntryTest, DecodeRejectsStructuralCorruption) {
  Function F = smallFunction("bad");
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  GuardedResult G = compileFunctionGuarded(F, M, Opts);
  ASSERT_TRUE(G.Result.Success);
  json::Value Good = encodeCacheEntry(G.Result, "k");

  json::Value WrongSchema = Good;
  WrongSchema.set("schema", "pira.trace");
  EXPECT_FALSE(decodeCacheEntry(WrongSchema));

  json::Value WrongVersion = Good;
  WrongVersion.set("version", CacheSchemaVersion + 1);
  EXPECT_FALSE(decodeCacheEntry(WrongVersion));

  json::Value BadIr = Good;
  BadIr.set("final", "func @broken regs {");
  EXPECT_FALSE(decodeCacheEntry(BadIr));

  json::Value NoSchedule = Good;
  NoSchedule.set("schedule", json::Value::array());
  EXPECT_FALSE(decodeCacheEntry(NoSchedule));
}

//===----------------------------------------------------------------------===//
// Tiers
//===----------------------------------------------------------------------===//

TEST(CompilationCacheTest, MemoryTierCatchesIntraBatchDuplicates) {
  // Two batch items with identical functions share one key; serially
  // (Jobs=1) the second must be a memory hit.
  std::vector<BatchItem> Batch;
  Batch.push_back({"a.pir", smallFunction("dup")});
  Batch.push_back({"b.pir", smallFunction("dup")});
  CompilationCache Cache(CacheMode::On);
  BatchOptions Opts;
  Opts.Jobs = 1;
  Opts.Cache = &Cache;
  BatchResult BR = compileBatch(Batch, MachineModel::rs6000(), Opts);
  ASSERT_EQ(BR.Succeeded, 2u);
  CompilationCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.MemoryHits, 1u);
  EXPECT_EQ(S.Inserts, 1u);
  // The cached copy is indistinguishable from the compiled one.
  EXPECT_EQ(functionToString(BR.Results[0].Final),
            functionToString(BR.Results[1].Final));
  EXPECT_EQ(BR.Results[0].DynCycles, BR.Results[1].DynCycles);
}

TEST(CompilationCacheTest, DiskTierPersistsAcrossCacheObjects) {
  std::filesystem::path Dir = scratchDir("disk");
  std::vector<BatchItem> Batch;
  Batch.push_back({"a.pir", smallFunction("persist")});
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  Opts.Jobs = 1;

  CompilationCache Cold(CacheMode::On, Dir.string());
  Opts.Cache = &Cold;
  BatchResult First = compileBatch(Batch, M, Opts);
  ASSERT_EQ(First.Succeeded, 1u);
  EXPECT_EQ(Cold.stats().Misses, 1u);
  EXPECT_EQ(Cold.stats().Inserts, 1u);

  // A brand-new cache object (a new process, in effect) hits on disk.
  CompilationCache Warm(CacheMode::On, Dir.string());
  Opts.Cache = &Warm;
  BatchResult Second = compileBatch(Batch, M, Opts);
  ASSERT_EQ(Second.Succeeded, 1u);
  CompilationCache::Stats S = Warm.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.Misses, 0u);
  EXPECT_EQ(functionToString(First.Results[0].Final),
            functionToString(Second.Results[0].Final));
  std::filesystem::remove_all(Dir);
}

TEST(CompilationCacheTest, AbandonedTempFileNeverShadowsTheKey) {
  // A writer that dies between the temp write and the atomic rename —
  // or a power loss before the fsync landed — leaves a torn *.tmp.*
  // file, never a torn entry. That litter must be invisible: lookups
  // under the live key miss cleanly and a recompile re-inserts over it.
  std::filesystem::path Dir = scratchDir("litter");
  std::filesystem::create_directories(Dir);
  Function F = smallFunction("litter");
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  Opts.Jobs = 1;
  std::string Key = computeCacheKey(F, M, Opts);
  std::ofstream(Dir / (Key + ".json.tmp.0.12345"))
      << "{\"schema\": \"pira.cach"; // torn mid-write

  std::vector<BatchItem> Batch;
  Batch.push_back({"a.pir", smallFunction("litter")});
  CompilationCache Cache(CacheMode::On, Dir.string());
  Opts.Cache = &Cache;
  ASSERT_EQ(compileBatch(Batch, M, Opts).Succeeded, 1u);
  CompilationCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);      // The litter never read as an entry.
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.CorruptEntries, 0u);
  EXPECT_EQ(S.Inserts, 1u);
  // The real entry landed next to the corpse and decodes.
  CompilationCache Fresh(CacheMode::On, Dir.string());
  EXPECT_TRUE(Fresh.lookup(Key).has_value());
  std::filesystem::remove_all(Dir);
}

TEST(CompilationCacheTest, CorruptDiskEntryIsAMissNotAnError) {
  std::filesystem::path Dir = scratchDir("corrupt");
  Function F = smallFunction("mangle");
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  Opts.Jobs = 1;
  std::string Key = computeCacheKey(F, M, Opts);

  std::vector<BatchItem> Batch;
  Batch.push_back({"a.pir", smallFunction("mangle")});
  {
    CompilationCache Cache(CacheMode::On, Dir.string());
    Opts.Cache = &Cache;
    ASSERT_EQ(compileBatch(Batch, M, Opts).Succeeded, 1u);
    ASSERT_EQ(Cache.stats().Inserts, 1u);
  }

  // Truncate the entry mid-JSON, as a crashed writer without the atomic
  // rename would have. The next run must shrug, recompile, and succeed.
  std::filesystem::path Entry = Dir / (Key + ".json");
  ASSERT_TRUE(std::filesystem::exists(Entry));
  std::ofstream(Entry, std::ios::trunc) << "{\"schema\": \"pira.cach";

  CompilationCache Cache(CacheMode::On, Dir.string());
  Opts.Cache = &Cache;
  BatchResult BR = compileBatch(Batch, M, Opts);
  ASSERT_EQ(BR.Succeeded, 1u);
  CompilationCache::Stats S = Cache.stats();
  EXPECT_EQ(S.CorruptEntries, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.DiskHits, 0u);
  // The recompile re-inserted a good entry over the corpse.
  EXPECT_EQ(S.Inserts, 1u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Verify mode and the never-cache-degraded rule
//===----------------------------------------------------------------------===//

TEST(CompilationCacheTest, VerifyModePassesOnHonestEntries) {
  std::filesystem::path Dir = scratchDir("verify");
  std::vector<BatchItem> Batch;
  Batch.push_back({"a.pir", smallFunction("honest")});
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  Opts.Jobs = 1;

  CompilationCache Cold(CacheMode::On, Dir.string());
  Opts.Cache = &Cold;
  ASSERT_EQ(compileBatch(Batch, M, Opts).Succeeded, 1u);

  CompilationCache Verify(CacheMode::Verify, Dir.string());
  Opts.Cache = &Verify;
  ASSERT_EQ(compileBatch(Batch, M, Opts).Succeeded, 1u);
  CompilationCache::Stats S = Verify.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.VerifyMismatches, 0u);
  std::filesystem::remove_all(Dir);
}

TEST(CompilationCacheTest, VerifyModeCatchesTamperedEntries) {
  std::filesystem::path Dir = scratchDir("tamper");
  Function F = smallFunction("tampered");
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  Opts.Jobs = 1;
  std::string Key = computeCacheKey(F, M, Opts);

  std::vector<BatchItem> Batch;
  Batch.push_back({"a.pir", smallFunction("tampered")});
  {
    CompilationCache Cache(CacheMode::On, Dir.string());
    Opts.Cache = &Cache;
    ASSERT_EQ(compileBatch(Batch, M, Opts).Succeeded, 1u);
  }

  // Falsify one stat in the stored entry; it still decodes cleanly, so
  // only the byte-identity cross-check can notice.
  std::filesystem::path EntryPath = Dir / (Key + ".json");
  std::ostringstream SS;
  SS << std::ifstream(EntryPath).rdbuf();
  json::Value Entry;
  std::string Error;
  ASSERT_TRUE(json::parse(SS.str(), Entry, Error)) << Error;
  const json::Value *Pipeline = Entry.find("pipeline");
  ASSERT_NE(Pipeline, nullptr);
  json::Value Forged = *Pipeline;
  ASSERT_TRUE(Forged.has("dyn_cycles"));
  Forged.set("dyn_cycles", Forged.find("dyn_cycles")->asInt() + 1);
  Entry.set("pipeline", Forged);
  std::ofstream(EntryPath, std::ios::trunc) << Entry.toString(-1);

  CompilationCache Verify(CacheMode::Verify, Dir.string());
  Opts.Cache = &Verify;
  BatchResult BR = compileBatch(Batch, M, Opts);
  ASSERT_EQ(BR.Succeeded, 1u);
  EXPECT_EQ(Verify.stats().VerifyMismatches, 1u);
  // The fresh compile wins: the forged cycle count is not in the result.
  GuardedResult Fresh = compileFunctionGuarded(F, M, BatchOptions{});
  EXPECT_EQ(BR.Results[0].DynCycles, Fresh.Result.DynCycles);
  std::filesystem::remove_all(Dir);
}

TEST_F(CacheFaultTest, DegradedResultsAreNeverCached) {
  // alloc.pinter:1 fails the combined rung for every fault key, so the
  // single item degrades to alloc-first — and must not be inserted.
  arm("alloc.pinter:1");
  std::vector<BatchItem> Batch;
  Batch.push_back({"a.pir", smallFunction("degraded")});
  CompilationCache Cache(CacheMode::On);
  BatchOptions Opts;
  Opts.Jobs = 1;
  Opts.Cache = &Cache;
  BatchResult BR = compileBatch(Batch, MachineModel::rs6000(), Opts);
  ASSERT_EQ(BR.Succeeded, 1u);
  ASSERT_TRUE(BR.Outcomes[0].Degraded);
  CompilationCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Inserts, 0u) << "a degraded result was fossilized";

  // Re-running the identical batch misses again: the ladder re-walks.
  BatchResult Again = compileBatch(Batch, MachineModel::rs6000(), Opts);
  ASSERT_EQ(Again.Succeeded, 1u);
  EXPECT_EQ(Cache.stats().Misses, 2u);
  EXPECT_EQ(Cache.stats().MemoryHits, 0u);
}

//===----------------------------------------------------------------------===//
// Warm-run determinism across worker counts
//===----------------------------------------------------------------------===//

namespace {

/// The batch stats report with the legitimately-varying sections
/// neutralized: "timers" always differ (wall clock), and "counters" plus
/// "cache" differ between cold and warm runs (hits skip compile phases).
std::string reportFingerprint(const std::vector<BatchItem> &Batch,
                              const MachineModel &M, BatchOptions Opts) {
  telemetry::reset();
  BatchResult BR = compileBatch(Batch, M, Opts);
  json::Value Report =
      makeBatchStatsReport(BR, Batch, strategyName(Opts.Strategy), M, {},
                           Opts.Cache);
  Report.set("timers", json::Value::array());
  Report.set("counters", json::Value::object());
  Report.set("histograms", json::Value::object());
  Report.set("cache", json::Value::object());
  return Report.toString();
}

} // namespace

TEST(CompilationCacheTest, WarmRunsAreByteIdenticalAcrossWorkerCounts) {
  std::filesystem::path Dir = scratchDir("warm");
  std::vector<BatchItem> Batch;
  for (unsigned I = 0; I != 12; ++I)
    Batch.push_back({"f" + std::to_string(I) + ".pir",
                     smallFunction("w" + std::to_string(I))});
  MachineModel M = MachineModel::rs6000();

  BatchOptions Opts;
  Opts.Jobs = 1;
  CompilationCache Cold(CacheMode::On, Dir.string());
  Opts.Cache = &Cold;
  std::string ColdPrint = reportFingerprint(Batch, M, Opts);
  ASSERT_EQ(Cold.stats().Inserts, 12u);

  for (unsigned Jobs : {1u, 2u, 8u}) {
    CompilationCache Warm(CacheMode::On, Dir.string());
    BatchOptions WarmOpts;
    WarmOpts.Jobs = Jobs;
    WarmOpts.Cache = &Warm;
    std::string WarmPrint = reportFingerprint(Batch, M, WarmOpts);
    EXPECT_EQ(ColdPrint, WarmPrint) << "jobs=" << Jobs;
    CompilationCache::Stats S = Warm.stats();
    EXPECT_EQ(S.DiskHits, 12u) << "jobs=" << Jobs;
    EXPECT_EQ(S.Misses, 0u) << "jobs=" << Jobs;
  }
  telemetry::reset();
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Disk-tier trimming (--cache-max-mb)
//===----------------------------------------------------------------------===//

namespace {

/// A compiled function and the key it is filed under.
struct Artifact {
  std::string Key;
  PipelineResult Result;
};

Artifact makeArtifact(const std::string &Name) {
  Artifact A;
  Function F = smallFunction(Name);
  MachineModel M = MachineModel::rs6000();
  BatchOptions Opts;
  GuardedResult G = compileFunctionGuarded(F, M, Opts);
  EXPECT_TRUE(G.Result.Success) << G.Result.Error;
  A.Key = computeCacheKey(F, M, Opts);
  A.Result = G.Result;
  return A;
}

void writeFile(const std::filesystem::path &P, size_t Bytes) {
  std::ofstream(P) << std::string(Bytes, 'x');
}

} // namespace

TEST(CacheTrimTest, OldestEntriesGoFirst) {
  std::filesystem::path Dir = scratchDir("trim_oldest");
  std::filesystem::create_directories(Dir);
  // Three settled entries from "previous runs", oldest first; the mtime
  // spacing makes the eviction order unambiguous.
  writeFile(Dir / "aa.json", 40000);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  writeFile(Dir / "bb.json", 40000);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  writeFile(Dir / "cc.json", 40000);

  CompilationCache Cache(CacheMode::On, Dir.string());
  Cache.setDiskLimitBytes(100000);
  Artifact A = makeArtifact("trim_oldest");
  Cache.insert(A.Key, A.Result);

  // One eviction suffices, and it takes the oldest file.
  EXPECT_FALSE(std::filesystem::exists(Dir / "aa.json"));
  EXPECT_TRUE(std::filesystem::exists(Dir / "bb.json"));
  EXPECT_TRUE(std::filesystem::exists(Dir / "cc.json"));
  EXPECT_TRUE(std::filesystem::exists(Dir / (A.Key + ".json")));
  EXPECT_EQ(Cache.stats().TrimmedEntries, 1u);
  std::filesystem::remove_all(Dir);
}

TEST(CacheTrimTest, OwnEntriesAndTempFilesAreNeverEvicted) {
  std::filesystem::path Dir = scratchDir("trim_own");
  std::filesystem::create_directories(Dir);
  writeFile(Dir / "old.json", 100);            // Evictable.
  writeFile(Dir / "x.json.tmp.3.17", 100);     // In-flight: untouchable.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  CompilationCache Cache(CacheMode::On, Dir.string());
  Cache.setDiskLimitBytes(1); // Impossible bound: evict all it may.
  Artifact A = makeArtifact("trim_own");
  Cache.insert(A.Key, A.Result);

  // The stranger was evicted; this instance's own entry and the temp
  // file survived even though the directory still exceeds the bound.
  EXPECT_FALSE(std::filesystem::exists(Dir / "old.json"));
  EXPECT_TRUE(std::filesystem::exists(Dir / "x.json.tmp.3.17"));
  EXPECT_TRUE(std::filesystem::exists(Dir / (A.Key + ".json")));
  EXPECT_EQ(Cache.stats().TrimmedEntries, 1u);

  // The entry it refused to evict still serves.
  CompilationCache Fresh(CacheMode::On, Dir.string());
  EXPECT_TRUE(Fresh.lookup(A.Key).has_value());
  std::filesystem::remove_all(Dir);
}

TEST(CacheTrimTest, AFreshInstanceMayEvictAPredecessorsEntries) {
  std::filesystem::path Dir = scratchDir("trim_fresh");
  Artifact Old = makeArtifact("trim_old");
  Artifact New = makeArtifact("trim_new");
  {
    CompilationCache First(CacheMode::On, Dir.string());
    First.insert(Old.Key, Old.Result);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The next process run is not bound by the first one's written-keys
  // protection — exactly how a shared directory shrinks over time.
  CompilationCache Second(CacheMode::On, Dir.string());
  Second.setDiskLimitBytes(1);
  Second.insert(New.Key, New.Result);
  EXPECT_FALSE(std::filesystem::exists(Dir / (Old.Key + ".json")));
  EXPECT_TRUE(std::filesystem::exists(Dir / (New.Key + ".json")));
  EXPECT_EQ(Second.stats().TrimmedEntries, 1u);
  std::filesystem::remove_all(Dir);
}
