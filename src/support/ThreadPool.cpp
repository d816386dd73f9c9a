//===- support/ThreadPool.cpp - Work-stealing thread pool -----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>

using namespace pira;

PIRA_STAT(NumDroppedTaskExceptions,
          "Secondary task exceptions dropped after the first was captured");

//===----------------------------------------------------------------------===//
// Per-task deadline watchdog
//===----------------------------------------------------------------------===//

namespace {

using Clock = std::chrono::steady_clock;

/// One armed deadline. Owned by the registry (not the arming thread) so
/// the watchdog can safely touch it even while the task unwinds.
struct DeadlineRecord {
  Clock::time_point At;
  std::atomic<bool> Expired{false};
};

/// The process-wide watchdog: a registry of armed deadlines and one
/// monitor thread that marks overruns. Intentionally leaked — the
/// detached monitor may outlive main(), so the state must never be
/// destroyed under it.
struct WatchdogState {
  std::mutex Mutex;
  std::condition_variable Changed;
  std::set<DeadlineRecord *> Active;
  std::vector<DeadlineRecord *> FreeList;
  bool MonitorRunning = false;

  void monitorLoop() {
    std::unique_lock<std::mutex> Lock(Mutex);
    while (true) {
      if (Active.empty()) {
        Changed.wait(Lock);
        continue;
      }
      Clock::time_point Earliest = Clock::time_point::max();
      for (DeadlineRecord *R : Active)
        if (!R->Expired.load(std::memory_order_relaxed) && R->At < Earliest)
          Earliest = R->At;
      if (Earliest == Clock::time_point::max()) {
        // Everything active is already marked; wait for change.
        Changed.wait(Lock);
        continue;
      }
      Changed.wait_until(Lock, Earliest);
      Clock::time_point Now = Clock::now();
      for (DeadlineRecord *R : Active)
        if (Now >= R->At)
          R->Expired.store(true, std::memory_order_relaxed);
    }
  }

  DeadlineRecord *arm(Clock::time_point At) {
    std::lock_guard<std::mutex> Lock(Mutex);
    DeadlineRecord *R;
    if (!FreeList.empty()) {
      R = FreeList.back();
      FreeList.pop_back();
    } else {
      R = new DeadlineRecord;
    }
    R->At = At;
    R->Expired.store(false, std::memory_order_relaxed);
    Active.insert(R);
    if (!MonitorRunning) {
      MonitorRunning = true;
      std::thread([this] { monitorLoop(); }).detach();
    }
    Changed.notify_all();
    return R;
  }

  void disarm(DeadlineRecord *R) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Active.erase(R);
    FreeList.push_back(R);
    Changed.notify_all();
  }
};

WatchdogState &watchdog() {
  static WatchdogState *W = new WatchdogState;
  return *W;
}

thread_local DeadlineRecord *CurrentDeadline = nullptr;

} // namespace

deadline::ScopedDeadline::ScopedDeadline(uint64_t BudgetMs)
    : Record(nullptr), Prev(CurrentDeadline) {
  if (BudgetMs == 0)
    return;
  // Saturate: a budget past the clock's range arms time_point::max(),
  // which neither expired() nor the monitor ever reaches. The plain sum
  // would overflow the clock's signed tick count into the past.
  Clock::time_point Now = Clock::now();
  auto Headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - Now);
  Clock::time_point At =
      BudgetMs >= static_cast<uint64_t>(Headroom.count())
          ? Clock::time_point::max()
          : Now + std::chrono::milliseconds(BudgetMs);
  DeadlineRecord *R = watchdog().arm(At);
  Record = R;
  CurrentDeadline = R;
}

deadline::ScopedDeadline::~ScopedDeadline() {
  if (Record == nullptr)
    return;
  CurrentDeadline = static_cast<DeadlineRecord *>(Prev);
  watchdog().disarm(static_cast<DeadlineRecord *>(Record));
}

bool pira::deadline::expired() {
  if (faultinject::shouldFire("budget.deadline"))
    return true;
  DeadlineRecord *R = CurrentDeadline;
  if (R == nullptr)
    return false;
  // The direct clock check makes expiry prompt even between watchdog
  // wakeups; the flag makes a stalled clock-free loop observable.
  return R->Expired.load(std::memory_order_relaxed) || Clock::now() >= R->At;
}

void pira::deadline::checkpoint() {
  if (expired())
    throw DeadlineExceededError();
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

unsigned ThreadPool::defaultJobCount() {
  if (const char *Raw = std::getenv("PIRA_JOBS")) {
    char *End = nullptr;
    long V = std::strtol(Raw, &End, 10);
    if (End != Raw && *End == '\0' && V > 0 && V <= MaxWorkers)
      return static_cast<unsigned>(V);
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : std::min(HW, MaxWorkers);
}

ThreadPool::ThreadPool(unsigned NumWorkers) {
  if (NumWorkers == 0)
    NumWorkers = defaultJobCount();
  NumWorkers = std::min(NumWorkers, MaxWorkers);
  Queues.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    Queues.push_back(std::make_unique<WorkQueue>());
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  try {
    wait();
  } catch (...) {
    // Destructors must not throw; an unobserved task failure dies here.
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stop = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  size_t Target;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Pending;
    Target = NextQueue++ % Queues.size();
  }
  {
    std::lock_guard<std::mutex> Lock(Queues[Target]->Mutex);
    Queues[Target]->Tasks.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}

bool ThreadPool::popTask(unsigned Self, std::function<void()> &Out) {
  // Own deque: newest first, for locality with tasks that spawn tasks.
  {
    WorkQueue &Q = *Queues[Self];
    std::lock_guard<std::mutex> Lock(Q.Mutex);
    if (!Q.Tasks.empty()) {
      Out = std::move(Q.Tasks.back());
      Q.Tasks.pop_back();
      return true;
    }
  }
  // Steal the oldest task of the first non-empty victim.
  for (size_t Offset = 1; Offset != Queues.size(); ++Offset) {
    WorkQueue &Q = *Queues[(Self + Offset) % Queues.size()];
    std::lock_guard<std::mutex> Lock(Q.Mutex);
    if (!Q.Tasks.empty()) {
      Out = std::move(Q.Tasks.front());
      Q.Tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::runTask(std::function<void()> &Task) {
  try {
    Task();
  } catch (...) {
    // Capture the first exception; later ones are dropped (the batch
    // driver catches per-function, so multiples here mean a direct pool
    // user — the first failure is the actionable one). Dropped
    // secondaries are still counted so a silent pile-up shows in the
    // stats report's counters section.
    std::lock_guard<std::mutex> Lock(ErrorMutex);
    if (!FirstError)
      FirstError = std::current_exception();
    else
      ++NumDroppedTaskExceptions;
  }
}

void ThreadPool::workerLoop(unsigned Self) {
  while (true) {
    std::function<void()> Task;
    if (popTask(Self, Task)) {
      runTask(Task);
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Pending == 0)
        AllDone.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Stop)
      return;
    // Re-check under the lock: a task may have been submitted between
    // the failed pop and acquiring the lock, and its notify missed us.
    bool Empty = true;
    for (auto &Q : Queues) {
      std::lock_guard<std::mutex> QLock(Q->Mutex);
      Empty = Q->Tasks.empty();
      if (!Empty)
        break;
    }
    if (!Empty)
      continue;
    WorkAvailable.wait(Lock);
  }
}

void ThreadPool::wait() {
  // Help out instead of blocking: the waiter (often the main thread, or
  // a task waiting on subtasks) drains queues alongside the workers.
  unsigned Self = 0; // steal order does not matter for the helper
  while (true) {
    std::function<void()> Task;
    if (popTask(Self, Task)) {
      runTask(Task);
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Pending == 0)
        AllDone.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> Lock(Mutex);
    AllDone.wait(Lock, [this] { return Pending == 0; });
    break;
  }
  // Every task finished; surface the first failure on the waiter.
  std::exception_ptr E;
  {
    std::lock_guard<std::mutex> Lock(ErrorMutex);
    std::swap(E, FirstError);
  }
  if (E)
    std::rethrow_exception(E);
}

void ThreadPool::parallelFor(unsigned N,
                             const std::function<void(unsigned)> &Body) {
  if (N == 0)
    return;
  if (numWorkers() == 1 || N == 1) {
    // Degenerate cases run inline: same observable effects, no handoff —
    // including exception behaviour (first failure reported, every
    // iteration still runs).
    std::exception_ptr E;
    for (unsigned I = 0; I != N; ++I) {
      try {
        Body(I);
      } catch (...) {
        if (!E)
          E = std::current_exception();
        else
          ++NumDroppedTaskExceptions;
      }
    }
    if (E)
      std::rethrow_exception(E);
    return;
  }
  // One task per index; the atomic cursor keeps per-task overhead tiny
  // relative to a compileBatch-sized body, and index identity (not
  // completion order) decides where results land.
  std::atomic<unsigned> Next{0};
  unsigned Tasks = std::min(N, numWorkers() * 4);
  for (unsigned T = 0; T != Tasks; ++T)
    submit([&Next, N, &Body] {
      for (unsigned I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
           I = Next.fetch_add(1, std::memory_order_relaxed))
        Body(I);
    });
  wait();
}
