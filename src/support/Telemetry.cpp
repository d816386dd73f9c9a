//===- support/Telemetry.cpp - Phase timers and counter registry ----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/Json.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <set>

#include <unistd.h>

using namespace pira;
using namespace pira::telemetry;

namespace {

std::atomic<bool> Enabled{false};

/// Registry + event log. Function-local statics so instrumented passes
/// in other translation units can register counters during static
/// initialization without ordering hazards.
struct GlobalState {
  std::mutex Mutex;
  std::vector<Counter *> Counters;
  std::vector<Histogram *> Histograms;
  std::vector<TimedEvent> Events;
  uint32_t NextThreadId = 0;
};

GlobalState &state() {
  static GlobalState S;
  return S;
}

/// Per-thread stack of active scope labels; Path is the joined form so
/// scope entry is O(label) and exit copies one string.
struct ThreadStack {
  std::vector<const char *> Labels;
  std::string Path;
  uint32_t Id;

  ThreadStack() {
    GlobalState &S = state();
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Id = S.NextThreadId++;
  }
};

ThreadStack &threadStack() {
  thread_local ThreadStack TS;
  return TS;
}

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

bool telemetry::enabled() { return Enabled.load(std::memory_order_relaxed); }

void telemetry::setEnabled(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

void telemetry::reset() {
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Events.clear();
  for (Counter *C : S.Counters)
    C->Value.store(0, std::memory_order_relaxed);
  for (Histogram *H : S.Histograms) {
    for (auto &B : H->Buckets)
      B.store(0, std::memory_order_relaxed);
    H->Count.store(0, std::memory_order_relaxed);
    H->Sum.store(0, std::memory_order_relaxed);
    H->Max.store(0, std::memory_order_relaxed);
  }
}

uint64_t telemetry::processId() {
  static const uint64_t Pid = static_cast<uint64_t>(::getpid());
  return Pid;
}

uint64_t telemetry::monotonicNowNs() { return nowNs(); }

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

Counter::Counter(const char *Name, const char *Description)
    : Name(Name), Description(Description) {
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Counters.push_back(this);
}

const std::vector<Counter *> &telemetry::counters() {
  return state().Counters;
}

//===----------------------------------------------------------------------===//
// Histograms
//===----------------------------------------------------------------------===//

Histogram::Histogram(const char *Name, const char *Description)
    : Name(Name), Description(Description) {
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Histograms.push_back(this);
}

unsigned Histogram::bucketFor(uint64_t V) {
  if (V == 0)
    return 0;
  unsigned Width = static_cast<unsigned>(std::bit_width(V));
  return Width < NumBuckets ? Width : NumBuckets - 1;
}

uint64_t Histogram::bucketUpperBound(unsigned I) {
  if (I == 0)
    return 0;
  if (I >= NumBuckets - 1)
    return UINT64_MAX;
  return (uint64_t{1} << I) - 1;
}

uint64_t Histogram::percentileUpperBound(double P) const {
  // One snapshot of the buckets, with the total derived from that same
  // snapshot. Count and the buckets are distinct relaxed atomics, so a
  // total read separately (as this used to) can exceed the bucket mass
  // the rank walk then observes — e.g. around reset() or a concurrent
  // record — stranding the rank past every bucket and answering with the
  // last bucket's UINT64_MAX bound for a histogram holding nothing.
  std::array<uint64_t, NumBuckets> Snap;
  uint64_t N = 0;
  for (unsigned I = 0; I < NumBuckets; ++I) {
    Snap[I] = bucketCount(I);
    N += Snap[I];
  }
  if (N == 0)
    return 0;
  // Rank of the percentile observation, 1-based, clamped into [1, N].
  uint64_t Rank = static_cast<uint64_t>(std::ceil(static_cast<double>(N) * P /
                                                  100.0));
  Rank = std::min(std::max<uint64_t>(Rank, 1), N);
  uint64_t Seen = 0;
  for (unsigned I = 0; I < NumBuckets; ++I) {
    Seen += Snap[I];
    if (Seen >= Rank)
      return bucketUpperBound(I);
  }
  return bucketUpperBound(NumBuckets - 1); // unreachable: Rank <= N
}

const std::vector<Histogram *> &telemetry::histograms() {
  return state().Histograms;
}

//===----------------------------------------------------------------------===//
// Phase timers
//===----------------------------------------------------------------------===//

TimeScope::TimeScope(const char *Label)
    : Active(Enabled.load(std::memory_order_relaxed)), Label(Label) {
  if (!Active)
    return;
  ThreadStack &TS = threadStack();
  Depth = static_cast<uint32_t>(TS.Labels.size());
  TS.Labels.push_back(Label);
  if (!TS.Path.empty())
    TS.Path += '/';
  TS.Path += Label;
  Path = TS.Path;
  StartNs = nowNs();
}

TimeScope::~TimeScope() {
  if (!Active)
    return;
  uint64_t End = nowNs();
  ThreadStack &TS = threadStack();
  // Pop our label (and the separator) off the thread path.
  if (!TS.Labels.empty()) {
    size_t LabelLen = std::char_traits<char>::length(TS.Labels.back());
    size_t Cut = TS.Path.size() >= LabelLen ? TS.Path.size() - LabelLen : 0;
    if (Cut > 0)
      --Cut; // the '/' separator
    TS.Path.resize(Cut);
    TS.Labels.pop_back();
  }
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Events.push_back(
      {std::move(Path), Label, StartNs, End - StartNs, TS.Id, Depth});
}

std::vector<TimedEvent> telemetry::events() {
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  return S.Events;
}

void telemetry::recordForeignEvents(std::vector<TimedEvent> Events) {
  if (!enabled() || Events.empty())
    return;
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  for (TimedEvent &E : Events)
    S.Events.push_back(std::move(E));
}

std::vector<TimerAggregate> telemetry::timerAggregates() {
  std::map<std::string, TimerAggregate> ByPath;
  for (const TimedEvent &E : events()) {
    TimerAggregate &A = ByPath[E.Path];
    A.Path = E.Path;
    ++A.Calls;
    A.TotalNs += E.DurationNs;
  }
  std::vector<TimerAggregate> Out;
  Out.reserve(ByPath.size());
  for (auto &[Path, A] : ByPath)
    Out.push_back(std::move(A));
  std::sort(Out.begin(), Out.end(),
            [](const TimerAggregate &A, const TimerAggregate &B) {
              return A.TotalNs != B.TotalNs ? A.TotalNs > B.TotalNs
                                            : A.Path < B.Path;
            });
  return Out;
}

void telemetry::printTimerReport(std::ostream &OS) {
  std::vector<TimerAggregate> Aggs = timerAggregates();
  size_t PathWidth = std::string("path").size();
  for (const TimerAggregate &A : Aggs)
    PathWidth = std::max(PathWidth, A.Path.size());
  OS << "=== pass timing ===\n"
     << std::left << std::setw(static_cast<int>(PathWidth) + 2) << "path"
     << std::right << std::setw(8) << "calls" << std::setw(12) << "total ms"
     << '\n';
  for (const TimerAggregate &A : Aggs) {
    OS << std::left << std::setw(static_cast<int>(PathWidth) + 2) << A.Path
       << std::right << std::setw(8) << A.Calls << std::setw(12) << std::fixed
       << std::setprecision(3) << static_cast<double>(A.TotalNs) / 1e6
       << '\n';
  }
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

void telemetry::writeChromeTrace(std::ostream &OS) {
  std::vector<TimedEvent> Evs = events();

  json::Value Root = json::Value::object();
  json::Value Trace = json::Value::array();

  // Metadata first: name the process and every thread that appears so
  // the trace reads as labeled tracks, not bare pid numbers.
  const int64_t Pid = static_cast<int64_t>(processId());
  std::set<uint32_t> Threads;
  for (const TimedEvent &E : Evs)
    Threads.insert(E.ThreadId);
  if (!Evs.empty()) {
    json::Value Ev = json::Value::object();
    Ev.set("name", "process_name");
    Ev.set("ph", "M");
    Ev.set("pid", Pid);
    Ev.set("tid", 0);
    json::Value Args = json::Value::object();
    Args.set("name", "pirac");
    Ev.set("args", std::move(Args));
    Trace.push(std::move(Ev));
  }
  for (uint32_t Tid : Threads) {
    json::Value Ev = json::Value::object();
    Ev.set("name", "thread_name");
    Ev.set("ph", "M");
    Ev.set("pid", Pid);
    Ev.set("tid", static_cast<int64_t>(Tid));
    json::Value Args = json::Value::object();
    Args.set("name", Tid == 0 ? std::string("main")
                              : "thread-" + std::to_string(Tid));
    Ev.set("args", std::move(Args));
    Trace.push(std::move(Ev));
  }

  for (const TimedEvent &E : Evs) {
    json::Value Ev = json::Value::object();
    // The event name is the scope's own label so chrome://tracing
    // groups repeated phases; the full hierarchical path rides in args.
    Ev.set("name", E.Label);
    Ev.set("cat", "pira");
    Ev.set("ph", "X");
    Ev.set("ts", static_cast<double>(E.StartNs) / 1e3); // microseconds
    Ev.set("dur", static_cast<double>(E.DurationNs) / 1e3);
    Ev.set("pid", Pid);
    Ev.set("tid", static_cast<int64_t>(E.ThreadId));
    json::Value Args = json::Value::object();
    Args.set("path", E.Path);
    Args.set("depth", static_cast<int64_t>(E.Depth));
    Ev.set("args", std::move(Args));
    Trace.push(std::move(Ev));
  }
  Root.set("traceEvents", std::move(Trace));
  Root.set("displayTimeUnit", "ms");
  Root.write(OS, 0);
  OS << '\n';
}

bool telemetry::writeChromeTraceFile(const std::string &FilePath,
                                     std::string &Error) {
  if (FilePath == "-") {
    writeChromeTrace(std::cout);
    std::cout.flush();
    if (!std::cout) {
      Error = "error while writing trace to stdout";
      return false;
    }
    return true;
  }
  std::ofstream Out(FilePath);
  if (!Out) {
    Error = "cannot open '" + FilePath + "' for writing";
    return false;
  }
  writeChromeTrace(Out);
  if (!Out) {
    Error = "error while writing '" + FilePath + "'";
    return false;
  }
  return true;
}
