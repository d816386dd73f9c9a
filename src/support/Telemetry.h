//===- support/Telemetry.h - Phase timers and counter registry --*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer every pipeline pass reports through:
///
///   * PIRA_TIME_SCOPE("pig/closure") — an RAII phase timer. Scopes nest:
///     each thread keeps a stack of active labels and every finished
///     scope records its full hierarchical path
///     ("strategy/combined/alloc/pinter/pig/closure"). Timers are
///     monotonic-clock based and cost one relaxed atomic load when
///     telemetry is disabled (the default).
///
///   * PIRA_STAT(NumFoo, "description") — an LLVM-Statistic-style
///     process-global counter. Counters register themselves once, bump
///     via relaxed atomics (so later parallel passes can share them),
///     and are enumerable for reports.
///
///   * PIRA_HIST(FooLatency, "description") — a fixed-bucket log2
///     latency histogram (64 power-of-two buckets over nanoseconds).
///     Like counters, histograms record regardless of the enable switch
///     (a handful of relaxed increments per coarse-grained event), and
///     concurrent records from thread-pool workers commute, so bucket
///     counts are deterministic for any worker count. Stats reports
///     derive p50/p90/p99 upper bounds from the buckets.
///
///   * Chrome trace-event export (writeChromeTrace) — one complete "X"
///     duration event per finished scope, tagged with the process id
///     and a dense thread id, plus "M" metadata events naming the
///     process and every thread, loadable in chrome://tracing or
///     Perfetto.
///
///   * Aggregated timing (timerAggregates / printTimerReport) — per-path
///     call counts and total wall time, the data behind `pirac
///     --time-passes` and the "timers" section of stats reports.
///
/// Thread-safety: counters and histograms are always safe; scope
/// recording takes one mutex per *finished* scope, and the active-scope
/// stack is thread-local, so instrumented passes may run concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_TELEMETRY_H
#define PIRA_SUPPORT_TELEMETRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace pira {
namespace telemetry {

//===----------------------------------------------------------------------===//
// Global enable switch
//===----------------------------------------------------------------------===//

/// True when phase timers record events. Counters and histograms record
/// regardless (a relaxed increment is cheaper than the branch would be
/// worth).
bool enabled();

/// Turns scope recording on or off process-wide.
void setEnabled(bool On);

/// Zeroes every registered counter and histogram and drops all recorded
/// timer events. Active (unclosed) scopes are unaffected: their paths
/// were captured on entry and they record normally when they close.
void reset();

/// The calling process's pid, cached; the Chrome trace's process id.
uint64_t processId();

/// Monotonic now, ns since the clock epoch — the same clock the timers
/// use, exposed so callers can record spans by hand.
uint64_t monotonicNowNs();

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

/// A named process-global counter. Instances must have static storage
/// duration (PIRA_STAT arranges this); the registry keeps raw pointers.
class Counter {
public:
  Counter(const char *Name, const char *Description);

  Counter &operator++() {
    Value.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  void operator++(int) { Value.fetch_add(1, std::memory_order_relaxed); }
  Counter &operator+=(uint64_t Delta) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
    return *this;
  }
  /// Raises the counter to at least \p V (for high-water marks).
  void updateMax(uint64_t V) {
    uint64_t Cur = Value.load(std::memory_order_relaxed);
    while (Cur < V &&
           !Value.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  const char *name() const { return Name; }
  const char *description() const { return Description; }

private:
  friend void reset();
  const char *Name;
  const char *Description;
  std::atomic<uint64_t> Value{0};
};

/// All counters registered so far, in registration order.
const std::vector<Counter *> &counters();

//===----------------------------------------------------------------------===//
// Histograms
//===----------------------------------------------------------------------===//

/// A fixed-bucket log2 histogram over uint64 values (nanoseconds by
/// convention). Bucket 0 holds exactly the value 0; bucket i >= 1 holds
/// [2^(i-1), 2^i). Values at or above 2^62 land in the last bucket.
/// Everything is relaxed atomics, so recording is safe from any thread
/// and concurrent records commute — the property the batch driver's
/// byte-identity contract leans on for bucket counts. Instances must
/// have static storage duration (PIRA_HIST arranges this).
class Histogram {
public:
  static constexpr unsigned NumBuckets = 64;

  Histogram(const char *Name, const char *Description);

  /// Records one value (ns).
  void record(uint64_t V) {
    Buckets[bucketFor(V)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    uint64_t Cur = Max.load(std::memory_order_relaxed);
    while (Cur < V &&
           !Max.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  /// The bucket index \p V lands in.
  static unsigned bucketFor(uint64_t V);

  /// Inclusive upper bound of bucket \p I (0 for bucket 0, 2^I - 1
  /// otherwise; UINT64_MAX for the last bucket).
  static uint64_t bucketUpperBound(unsigned I);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucketCount(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket containing the \p P-th percentile
  /// (0 < P <= 100) — a deterministic function of the bucket counts
  /// alone. 0 for an empty histogram.
  uint64_t percentileUpperBound(double P) const;

  const char *name() const { return Name; }
  const char *description() const { return Description; }

private:
  friend void reset();
  const char *Name;
  const char *Description;
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
};

/// All histograms registered so far, in registration order.
const std::vector<Histogram *> &histograms();

/// RAII latency recorder: records the enclosing scope's wall time (ns)
/// into \p H on destruction. Always on, like the histogram itself.
class HistTimer {
public:
  explicit HistTimer(Histogram &H) : H(H), StartNs(monotonicNowNs()) {}
  ~HistTimer() { H.record(monotonicNowNs() - StartNs); }
  HistTimer(const HistTimer &) = delete;
  HistTimer &operator=(const HistTimer &) = delete;

private:
  Histogram &H;
  uint64_t StartNs;
};

//===----------------------------------------------------------------------===//
// Phase timers
//===----------------------------------------------------------------------===//

/// One finished timed scope.
struct TimedEvent {
  std::string Path;    ///< Hierarchical "outer/inner" path.
  std::string Label;   ///< The literal passed to PIRA_TIME_SCOPE.
  uint64_t StartNs;    ///< Monotonic start, ns since process epoch.
  uint64_t DurationNs; ///< Wall time inside the scope.
  uint32_t ThreadId;   ///< Dense per-process thread number.
  uint32_t Depth;      ///< Nesting depth at entry (0 = top level).
};

/// RAII phase timer; see file comment. Label must outlive the scope
/// (string literals only).
class TimeScope {
public:
  explicit TimeScope(const char *Label);
  ~TimeScope();
  TimeScope(const TimeScope &) = delete;
  TimeScope &operator=(const TimeScope &) = delete;

private:
  bool Active;
  const char *Label;
  uint64_t StartNs = 0;
  std::string Path;
  uint32_t Depth = 0;
};

/// Snapshot of every recorded event, in completion order.
std::vector<TimedEvent> events();

/// Appends events built by hand rather than by a TimeScope (the batch
/// driver's whole-batch span) to the global log. No-op while recording
/// is disabled, mirroring TimeScope.
void recordForeignEvents(std::vector<TimedEvent> Events);

/// Per-path aggregate of the recorded events.
struct TimerAggregate {
  std::string Path;
  uint64_t Calls = 0;
  uint64_t TotalNs = 0;
};

/// Aggregates events by path, ordered by descending total time.
std::vector<TimerAggregate> timerAggregates();

/// Prints the --time-passes table (path, calls, total ms) to \p OS.
void printTimerReport(std::ostream &OS);

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

/// Writes the recorded events as Chrome trace-event JSON (the
/// {"traceEvents": [...]} object form). Each finished scope is one
/// complete "X" event whose name is its leaf label, whose pid/tid are
/// the recording process and its dense thread number, and whose args
/// carry the full path; "M" metadata events name the process ("pirac")
/// and every thread. Loadable in chrome://tracing and Perfetto.
void writeChromeTrace(std::ostream &OS);

/// writeChromeTrace to a file, or to stdout when \p FilePath is "-";
/// false (with \p Error set) when the sink cannot be written.
bool writeChromeTraceFile(const std::string &FilePath, std::string &Error);

} // namespace telemetry
} // namespace pira

//===----------------------------------------------------------------------===//
// Instrumentation macros
//===----------------------------------------------------------------------===//

/// Defines (at namespace or function scope) a static counter named
/// \p NAME, registered once process-wide under "NAME".
#define PIRA_STAT(NAME, DESC)                                                  \
  static ::pira::telemetry::Counter NAME(#NAME, DESC)

/// Defines (at namespace or function scope) a static log2 histogram
/// named \p NAME, registered once process-wide under "NAME".
#define PIRA_HIST(NAME, DESC)                                                  \
  static ::pira::telemetry::Histogram NAME(#NAME, DESC)

#define PIRA_TIME_SCOPE_CONCAT2(A, B) A##B
#define PIRA_TIME_SCOPE_CONCAT(A, B) PIRA_TIME_SCOPE_CONCAT2(A, B)
/// Times the enclosing scope under \p LABEL (a string literal).
#define PIRA_TIME_SCOPE(LABEL)                                                 \
  ::pira::telemetry::TimeScope PIRA_TIME_SCOPE_CONCAT(PiraTimeScope_,          \
                                                      __LINE__)(LABEL)

#endif // PIRA_SUPPORT_TELEMETRY_H
