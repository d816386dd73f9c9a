//===- pipeline/Cache.h - Content-addressed compilation cache ---*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoizes compileBatch() results across duplicate functions and across
/// process runs. The premise is the determinism contract (DESIGN.md §7):
/// a compile is a pure function of (canonical IR, machine, strategy,
/// options), so a cached result is exactly the result a recompile would
/// produce — which makes cached reuse safe and byte-level verification
/// (CacheMode::Verify) meaningful.
///
/// The key is the SHA-256 of a framed blob covering everything that can
/// change the output: the canonical *printed* IR (so whitespace and
/// comment differences in source text collapse onto one key), the full
/// machine description (units, width, registers, non-default latencies),
/// the strategy, PinterOptions, resource budgets, Measure/Seed/Degrade,
/// the armed fault-injection spec plus the thread's fault key, and a
/// cache-format version salt. Worker count is deliberately excluded —
/// results are identical for any --jobs value.
///
/// The value is the full compiled artifact, serialized via support/Json
/// ("pira.cache" schema): printed final and symbolic-twin IR, the
/// per-block schedule, and the scalar stats block. Decoding re-parses
/// the IR, so a hit reconstructs a PipelineResult that serializes
/// byte-identically to a fresh compile's.
///
/// Two tiers: an in-memory map (intra-process; catches duplicate
/// functions inside one batch) and an optional on-disk directory, one
/// file per key, written to a temp name, fsync'd (file and directory),
/// and atomically renamed so a crashed or racing writer — or a power
/// loss mid-write — can never leave a torn entry under a live key.
/// Corrupt or truncated disk entries are treated as misses and
/// recompiled — the degradation philosophy of DESIGN.md §8 applied to
/// the cache itself.
///
/// Only verifier-clean, non-degraded successes are ever inserted: a
/// degraded or failed function must re-walk the ladder every time, so a
/// transient failure cause (or a fixed one) is never fossilized.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PIPELINE_CACHE_H
#define PIRA_PIPELINE_CACHE_H

#include "pipeline/Batch.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>

namespace pira {

/// How the batch driver consults the cache.
enum class CacheMode {
  Off,    ///< Never look, never insert.
  On,     ///< Hits short-circuit compilation; misses insert.
  Verify, ///< Hits recompile anyway and cross-check byte identity.
};

/// Stable lower-case name ("off", "on", "verify").
const char *cacheModeName(CacheMode Mode);

/// Parses a mode name; unknown spellings produce an InvalidArgument
/// Status listing the accepted ones.
Expected<CacheMode> cacheModeFromName(std::string_view Name);

/// Serialized-entry schema constants. The version participates in the
/// key salt, so bumping it invalidates every existing entry at once.
inline constexpr const char *CacheSchemaName = "pira.cache";
inline constexpr int CacheSchemaVersion = 1;

/// Computes the content-addressed key (64 hex chars) for compiling
/// \p Input on \p Machine under \p Opts. Opts.Jobs and Opts.Cache are
/// ignored; the live fault-injection configuration and the calling
/// thread's fault key are folded in (see file comment).
std::string computeCacheKey(const Function &Input, const MachineModel &Machine,
                            const BatchOptions &Opts);

/// Serializes a successful \p R as a cache entry. \p Key is stored for
/// self-identification. Pre: R.Success.
json::Value encodeCacheEntry(const PipelineResult &R, const std::string &Key);

/// Reconstructs a PipelineResult from \p Entry. Any structural problem —
/// wrong schema or version, missing field, unparsable IR, schedule shape
/// not matching the code — comes back as an error Status; callers treat
/// that as a cache miss.
Expected<PipelineResult> decodeCacheEntry(const json::Value &Entry);

/// The two-tier cache. Thread-safe: compileBatch workers look up and
/// insert concurrently. One instance per logical cache — pirac makes one
/// per process; tests make one per scenario.
class CompilationCache {
public:
  /// Lifetime tallies, also mirrored into the global telemetry counters.
  /// Deterministic whenever lookups are (warm runs, or cold runs without
  /// concurrent intra-batch duplicates); the per-batch "cache" stats
  /// block is built from these.
  struct Stats {
    uint64_t MemoryHits = 0;       ///< Served from the in-memory tier.
    uint64_t DiskHits = 0;         ///< Served (and promoted) from disk.
    uint64_t Misses = 0;           ///< No usable entry anywhere.
    uint64_t Inserts = 0;          ///< Entries written.
    uint64_t CorruptEntries = 0;   ///< Disk entries that failed to decode.
    uint64_t WriteFailures = 0;    ///< Disk writes that could not land.
    uint64_t VerifyMismatches = 0; ///< Verify-mode byte-identity failures.
    uint64_t TrimmedEntries = 0;   ///< Disk entries evicted by the
                                   ///< size bound (oldest first).
  };

  /// \p DiskDir empty means memory-only. The directory is created on
  /// first insert; an uncreatable or unreadable directory degrades to
  /// memory-only operation (counted as write failures / misses).
  explicit CompilationCache(CacheMode Mode, std::string DiskDir = "");

  CacheMode mode() const { return Mode; }
  const std::string &diskDir() const { return DiskDir; }

  /// Bounds the on-disk tier to \p Bytes (0 = unbounded). When an
  /// insert pushes the directory over the bound, the oldest entries are
  /// unlinked first — except entries this instance wrote, which the
  /// current batch may still be counting on.
  void setDiskLimitBytes(uint64_t Bytes) { DiskLimitBytes = Bytes; }

  /// Looks \p Key up in memory, then on disk. On a hit returns the
  /// decoded result and, when \p SerializedOut is non-null, the
  /// canonical compact serialization of the stored entry (what Verify
  /// compares against). Corrupt entries count and read as misses.
  std::optional<PipelineResult> lookup(const std::string &Key,
                                       std::string *SerializedOut = nullptr);

  /// Inserts \p R under \p Key into both tiers. The caller enforces the
  /// only-clean-non-degraded rule; insert serializes and stores.
  void insert(const std::string &Key, const PipelineResult &R);

  /// Records one Verify-mode byte-identity failure.
  void noteVerifyMismatch();

  /// Snapshot of the lifetime tallies.
  Stats stats() const;

  /// The "cache" block of the pira.stats report (schema v3): mode, disk
  /// flag, every tally, and the derived hit rate.
  json::Value statsToJson() const;

private:
  /// Entry file path for \p Key, "" when memory-only.
  std::string filePathFor(const std::string &Key) const;

  /// Enforces DiskLimitBytes after a disk write: unlinks the oldest
  /// entries (mtime, then name) until the directory fits, skipping keys
  /// in WrittenKeys and in-flight ".tmp." files. Unlink is atomic, so a
  /// crash mid-trim leaves only a directory that is slightly too large.
  void trimDiskLocked();

  CacheMode Mode;
  std::string DiskDir;
  uint64_t DiskLimitBytes = 0;

  mutable std::mutex Mutex;
  /// Key -> serialized entry. shared_ptr so lookups can decode outside
  /// the lock. std::map keeps iteration deterministic for debugging.
  std::map<std::string, std::shared_ptr<const json::Value>> Memory;
  /// Keys this instance wrote to disk — the trimmer never evicts them,
  /// so a warm rerun inside one process cannot lose its own entries.
  std::set<std::string> WrittenKeys;
  Stats Tally;
};

} // namespace pira

#endif // PIRA_PIPELINE_CACHE_H
