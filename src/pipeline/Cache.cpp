//===- pipeline/Cache.cpp - Content-addressed compilation cache -----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Cache.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/MachineConfig.h"
#include "machine/MachineModel.h"
#include "pipeline/Report.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "support/Io.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace pira;

PIRA_STAT(NumCacheMemoryHits, "Cache hits served from the in-memory tier");
PIRA_STAT(NumCacheDiskHits, "Cache hits served from the on-disk tier");
PIRA_STAT(NumCacheMisses, "Cache lookups that found no usable entry");
PIRA_STAT(NumCacheInserts, "Cache entries inserted");
PIRA_STAT(NumCacheCorruptEntries,
          "On-disk cache entries rejected as corrupt (treated as misses)");
PIRA_STAT(NumCacheWriteFailures, "Cache entries that failed to land on disk");
PIRA_STAT(NumCacheVerifyMismatches,
          "Verify-mode recompiles that did not match the cached entry");
PIRA_STAT(NumCacheTrimmedEntries,
          "On-disk cache entries evicted by the size bound");

PIRA_HIST(CacheLookupLatency,
          "One cache lookup: memory probe, and the disk read when it "
          "misses there");

const char *pira::cacheModeName(CacheMode Mode) {
  switch (Mode) {
  case CacheMode::Off:
    return "off";
  case CacheMode::On:
    return "on";
  case CacheMode::Verify:
    return "verify";
  }
  return "unknown";
}

Expected<CacheMode> pira::cacheModeFromName(std::string_view Name) {
  if (Name == "off")
    return CacheMode::Off;
  if (Name == "on")
    return CacheMode::On;
  if (Name == "verify")
    return CacheMode::Verify;
  return Status::error(ErrorCode::InvalidArgument, "cache",
                       "unknown cache mode '" + std::string(Name) +
                           "' (expected off, on, or verify)");
}

namespace {

/// Locale-independent shortest-round-trip rendering of \p D for the key
/// blob (PinterOptions carries doubles).
std::string formatDoubleForKey(double D) {
  char Buf[40];
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  auto [Ptr, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), D);
  (void)Ec;
  return std::string(Buf, Ptr);
#else
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  for (char *P = Buf; *P; ++P)
    if (*P == ',')
      *P = '.';
  return Buf;
#endif
}

} // namespace

std::string pira::computeCacheKey(const Function &Input,
                                  const MachineModel &Machine,
                                  const BatchOptions &Opts) {
  PIRA_TIME_SCOPE("cache/key");
  hash::Sha256 H;
  // Length-framed fields: no concatenation of two different field lists
  // can produce the same byte stream.
  auto Field = [&H](std::string_view Tag, std::string_view Value) {
    H.update(Tag);
    H.update(":");
    H.update(std::to_string(Value.size()));
    H.update(":");
    H.update(Value);
    H.update("\n");
  };
  Field("format", std::string(CacheSchemaName) + "/" +
                      std::to_string(CacheSchemaVersion));
  Field("ir", functionToString(Input));
  Field("machine", machineModelToString(Machine));
  Field("strategy", strategyName(Opts.Strategy));
  Field("pinter.interference-weight",
        formatDoubleForKey(Opts.Pinter.InterferenceWeight));
  Field("pinter.parallel-weight",
        formatDoubleForKey(Opts.Pinter.ParallelWeight));
  Field("pinter.pre-schedule", Opts.Pinter.PreSchedule ? "1" : "0");
  Field("pinter.use-regions", Opts.Pinter.UseRegions ? "1" : "0");
  Field("pinter.max-rounds", std::to_string(Opts.Pinter.MaxRounds));
  Field("oracle.max-instructions",
        std::to_string(Opts.Oracle.MaxInstructions));
  Field("oracle.node-budget", std::to_string(Opts.Oracle.NodeBudget));
  Field("budget.max-instructions",
        std::to_string(Opts.Budget.MaxInstructions));
  Field("budget.max-blocks", std::to_string(Opts.Budget.MaxBlocks));
  Field("budget.deadline-ms", std::to_string(Opts.Budget.DeadlineMs));
  Field("measure", Opts.Measure ? "1" : "0");
  Field("seed", std::to_string(Opts.Seed));
  Field("degrade", Opts.Degrade ? "1" : "0");
  // Armed faults change outcomes as a function of (spec, fault key), so
  // both join the key; with the harness disarmed neither contributes and
  // identical functions share entries across batch positions.
  std::string FaultSpec = faultinject::currentSpec();
  Field("fault.spec", FaultSpec);
  if (!FaultSpec.empty())
    Field("fault.key", std::to_string(faultinject::currentKey()));
  return H.hexDigest();
}

json::Value pira::encodeCacheEntry(const PipelineResult &R,
                                   const std::string &Key) {
  json::Value Entry = json::Value::object();
  Entry.set("schema", CacheSchemaName);
  Entry.set("version", CacheSchemaVersion);
  Entry.set("key", Key);
  Entry.set("final", functionToString(R.Final));
  Entry.set("symbolic", functionToString(R.SymbolicTwin));
  json::Value Sched = json::Value::array();
  for (const BlockSchedule &B : R.Sched.Blocks) {
    json::Value One = json::Value::object();
    One.set("makespan", B.Makespan);
    json::Value Cycles = json::Value::array();
    for (unsigned C : B.CycleOf)
      Cycles.push(C);
    One.set("cycles", std::move(Cycles));
    Sched.push(std::move(One));
  }
  Entry.set("schedule", std::move(Sched));
  Entry.set("pipeline", pipelineResultToJson(R));
  return Entry;
}

namespace {

/// Reads an unsigned integer member of \p Obj; false when absent or not
/// a non-negative integer.
bool readUnsigned(const json::Value &Obj, const char *Name, uint64_t &Out) {
  const json::Value *V = Obj.find(Name);
  if (V == nullptr || !V->isInt() || V->asInt() < 0)
    return false;
  Out = static_cast<uint64_t>(V->asInt());
  return true;
}

Status corrupt(const std::string &What) {
  return Status::error(ErrorCode::ParseError, "cache",
                       "corrupt cache entry: " + What);
}

} // namespace

Expected<PipelineResult> pira::decodeCacheEntry(const json::Value &Entry) {
  if (!Entry.isObject())
    return corrupt("not a JSON object");
  const json::Value *Schema = Entry.find("schema");
  const json::Value *Version = Entry.find("version");
  if (Schema == nullptr || !Schema->isString() ||
      Schema->asString() != CacheSchemaName)
    return corrupt("wrong schema");
  if (Version == nullptr || !Version->isInt() ||
      Version->asInt() != CacheSchemaVersion)
    return corrupt("wrong version");

  const json::Value *Final = Entry.find("final");
  const json::Value *Symbolic = Entry.find("symbolic");
  const json::Value *Sched = Entry.find("schedule");
  const json::Value *Pipe = Entry.find("pipeline");
  if (Final == nullptr || !Final->isString() || Symbolic == nullptr ||
      !Symbolic->isString() || Sched == nullptr || !Sched->isArray() ||
      Pipe == nullptr || !Pipe->isObject())
    return corrupt("missing field");

  PipelineResult R;
  Expected<Function> F = parseFunctionEx(Final->asString(), "<cache:final>");
  if (!F)
    return corrupt("final IR does not parse (" + F.status().message() + ")");
  R.Final = F.take();
  Expected<Function> Twin =
      parseFunctionEx(Symbolic->asString(), "<cache:symbolic>");
  if (!Twin)
    return corrupt("symbolic IR does not parse (" + Twin.status().message() +
                   ")");
  R.SymbolicTwin = Twin.take();

  if (Sched->size() != R.Final.numBlocks())
    return corrupt("schedule block count mismatch");
  for (unsigned B = 0; B != R.Final.numBlocks(); ++B) {
    const json::Value &One = Sched->elements()[B];
    uint64_t Makespan = 0;
    if (!One.isObject() || !readUnsigned(One, "makespan", Makespan))
      return corrupt("bad schedule block");
    const json::Value *Cycles = One.find("cycles");
    if (Cycles == nullptr || !Cycles->isArray() ||
        Cycles->size() != R.Final.block(B).size())
      return corrupt("schedule length mismatch");
    BlockSchedule BS;
    BS.Makespan = static_cast<unsigned>(Makespan);
    BS.CycleOf.reserve(Cycles->size());
    for (const json::Value &C : Cycles->elements()) {
      if (!C.isInt() || C.asInt() < 0 ||
          static_cast<uint64_t>(C.asInt()) >= Makespan)
        return corrupt("schedule cycle out of range");
      BS.CycleOf.push_back(static_cast<unsigned>(C.asInt()));
    }
    R.Sched.Blocks.push_back(std::move(BS));
  }

  const json::Value *Success = Pipe->find("success");
  if (Success == nullptr || !Success->isBool() || !Success->asBool())
    return corrupt("entry is not a successful compile");
  uint64_t U = 0;
  auto ReadField = [&](const char *Name, auto &Out) {
    if (!readUnsigned(*Pipe, Name, U))
      return false;
    Out = static_cast<std::remove_reference_t<decltype(Out)>>(U);
    return true;
  };
  const json::Value *Sem = Pipe->find("semantics_preserved");
  if (!ReadField("registers_used", R.RegistersUsed) ||
      !ReadField("spilled_webs", R.SpilledWebs) ||
      !ReadField("spill_instructions", R.SpillInstructions) ||
      !ReadField("false_deps", R.FalseDeps) ||
      !ReadField("anti_ordering_losses", R.AntiOrderingLosses) ||
      !ReadField("parallel_edges_dropped", R.ParallelEdgesDropped) ||
      !ReadField("static_cycles", R.StaticCycles) ||
      !ReadField("dyn_cycles", R.DynCycles) ||
      !ReadField("dyn_instructions", R.DynInstructions) || Sem == nullptr ||
      !Sem->isBool())
    return corrupt("bad pipeline stats");
  R.SemanticsPreserved = Sem->asBool();
  R.Success = true;
  return R;
}

//===----------------------------------------------------------------------===//
// CompilationCache
//===----------------------------------------------------------------------===//

CompilationCache::CompilationCache(CacheMode Mode, std::string DiskDir)
    : Mode(Mode), DiskDir(std::move(DiskDir)) {}

std::string CompilationCache::filePathFor(const std::string &Key) const {
  if (DiskDir.empty())
    return std::string();
  return DiskDir + "/" + Key + ".json";
}

std::optional<PipelineResult>
CompilationCache::lookup(const std::string &Key, std::string *SerializedOut) {
  PIRA_TIME_SCOPE("cache/lookup");
  telemetry::HistTimer Latency(CacheLookupLatency);
  std::shared_ptr<const json::Value> Entry;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Memory.find(Key);
    if (It != Memory.end())
      Entry = It->second;
  }
  bool FromDisk = false;
  if (!Entry) {
    std::string Path = filePathFor(Key);
    std::ifstream In(Path);
    if (Path.empty() || !In) {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Tally.Misses;
      ++NumCacheMisses;
      return std::nullopt;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    json::Value Parsed;
    std::string Error;
    if (!json::parse(SS.str(), Parsed, Error)) {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Tally.CorruptEntries;
      ++NumCacheCorruptEntries;
      ++Tally.Misses;
      ++NumCacheMisses;
      return std::nullopt;
    }
    Entry = std::make_shared<const json::Value>(std::move(Parsed));
    FromDisk = true;
  }

  Expected<PipelineResult> Decoded = decodeCacheEntry(*Entry);
  if (!Decoded) {
    // Structurally broken (or truncated mid-JSON but still parsable)
    // entries read as misses; a recompile will overwrite them.
    std::lock_guard<std::mutex> Lock(Mutex);
    if (FromDisk) {
      ++Tally.CorruptEntries;
      ++NumCacheCorruptEntries;
    } else {
      Memory.erase(Key);
    }
    ++Tally.Misses;
    ++NumCacheMisses;
    return std::nullopt;
  }

  if (SerializedOut != nullptr)
    *SerializedOut = Entry->toString(-1);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (FromDisk) {
      Memory.emplace(Key, Entry);
      ++Tally.DiskHits;
      ++NumCacheDiskHits;
    } else {
      ++Tally.MemoryHits;
      ++NumCacheMemoryHits;
    }
  }
  return Decoded.take();
}

void CompilationCache::insert(const std::string &Key,
                              const PipelineResult &R) {
  PIRA_TIME_SCOPE("cache/insert");
  auto Entry =
      std::make_shared<const json::Value>(encodeCacheEntry(R, Key));
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Memory[Key] = Entry;
    ++Tally.Inserts;
    ++NumCacheInserts;
  }
  std::string Path = filePathFor(Key);
  if (Path.empty())
    return;

  // One file per key, written to a unique temp name in the same
  // directory, fsync'd, and renamed into place: readers see either no
  // entry or a complete one, and concurrent writers of the same key
  // race to identical content. The fsync before the rename matters —
  // without it a power loss can leave the *renamed* file truncated,
  // which is exactly the torn entry the atomic rename exists to
  // prevent. (Truncated entries still read as misses, but durability
  // should not depend on that backstop.) The directory fsync makes the
  // rename itself durable. Failures degrade to memory-only (counted).
  static std::atomic<uint64_t> TempCounter{0};
  std::error_code Ec;
  std::filesystem::create_directories(DiskDir, Ec);
  std::string Temp = Path + ".tmp." +
                     std::to_string(TempCounter.fetch_add(1)) + "." +
                     std::to_string(reinterpret_cast<uintptr_t>(this));
  std::string Payload = Entry->toString(0) + "\n";
  bool Ok = false;
  int Fd = ::open(Temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd >= 0) {
    Ok = io::writeFull(Fd, Payload.data(), Payload.size());
    Ok = Ok && ::fsync(Fd) == 0;
    Ok = (::close(Fd) == 0) && Ok;
  }
  if (Ok) {
    std::filesystem::rename(Temp, Path, Ec);
    Ok = !Ec;
  }
  if (Ok) {
    int DirFd = ::open(DiskDir.c_str(), O_RDONLY);
    if (DirFd >= 0) {
      ::fsync(DirFd);
      ::close(DirFd);
    }
    std::lock_guard<std::mutex> Lock(Mutex);
    WrittenKeys.insert(Key);
    trimDiskLocked();
  } else {
    std::filesystem::remove(Temp, Ec);
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Tally.WriteFailures;
    ++NumCacheWriteFailures;
  }
}

void CompilationCache::trimDiskLocked() {
  if (DiskDir.empty() || DiskLimitBytes == 0)
    return;
  namespace fs = std::filesystem;
  struct DiskEntry {
    int64_t MtimeTicks;
    std::string Name;
    uint64_t Size;
  };
  std::vector<DiskEntry> Entries;
  uint64_t Total = 0;
  std::error_code Ec;
  fs::directory_iterator It(DiskDir, Ec);
  if (Ec)
    return;
  for (const fs::directory_entry &DE : It) {
    std::error_code E2;
    if (!DE.is_regular_file(E2) || E2)
      continue;
    std::string Name = DE.path().filename().string();
    // In-flight temp files belong to a concurrent writer; only settled
    // "<key>.json" entries are trim candidates.
    if (Name.size() < 6 || Name.substr(Name.size() - 5) != ".json")
      continue;
    uint64_t Size = DE.file_size(E2);
    if (E2)
      continue;
    auto Mtime = DE.last_write_time(E2);
    if (E2)
      continue;
    Total += Size;
    Entries.push_back(
        {static_cast<int64_t>(Mtime.time_since_epoch().count()),
         std::move(Name), Size});
  }
  if (Total <= DiskLimitBytes)
    return;
  // Oldest first; the name breaks mtime ties so the order is total and
  // two racing trimmers pick the same victims.
  std::sort(Entries.begin(), Entries.end(),
            [](const DiskEntry &A, const DiskEntry &B) {
              return A.MtimeTicks != B.MtimeTicks ? A.MtimeTicks < B.MtimeTicks
                                                  : A.Name < B.Name;
            });
  for (const DiskEntry &E : Entries) {
    if (Total <= DiskLimitBytes)
      break;
    std::string Key = E.Name.substr(0, E.Name.size() - 5);
    // Never evict what this instance wrote: the running batch (or a
    // Verify pass right behind it) may still be counting on it.
    if (WrittenKeys.count(Key) != 0)
      continue;
    std::error_code E3;
    if (fs::remove(DiskDir + "/" + E.Name, E3) && !E3) {
      Total -= E.Size;
      ++Tally.TrimmedEntries;
      ++NumCacheTrimmedEntries;
    }
  }
}

void CompilationCache::noteVerifyMismatch() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Tally.VerifyMismatches;
  ++NumCacheVerifyMismatches;
}

CompilationCache::Stats CompilationCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Tally;
}

json::Value CompilationCache::statsToJson() const {
  Stats S = stats();
  json::Value Out = json::Value::object();
  Out.set("mode", cacheModeName(Mode));
  Out.set("disk", !DiskDir.empty());
  Out.set("memory_hits", S.MemoryHits);
  Out.set("disk_hits", S.DiskHits);
  Out.set("misses", S.Misses);
  Out.set("inserts", S.Inserts);
  Out.set("corrupt_entries", S.CorruptEntries);
  Out.set("write_failures", S.WriteFailures);
  Out.set("verify_mismatches", S.VerifyMismatches);
  Out.set("trimmed_entries", S.TrimmedEntries);
  uint64_t Hits = S.MemoryHits + S.DiskHits;
  uint64_t Lookups = Hits + S.Misses;
  Out.set("hit_rate", Lookups == 0 ? 0.0
                                   : static_cast<double>(Hits) /
                                         static_cast<double>(Lookups));
  return Out;
}
