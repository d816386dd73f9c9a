//===- support/ThreadPool.h - Work-stealing thread pool ---------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing thread pool for the batch-compilation driver. Every
/// worker owns a deque: new tasks are dealt round-robin across the
/// deques, owners pop from the back (LIFO, cache-warm), and an idle
/// worker steals from the front of a victim's deque (FIFO, oldest work
/// first). The pool itself imposes no ordering on task completion —
/// callers that need determinism (compileBatch does) write results into
/// pre-sized slots indexed by submission order.
///
/// Fault isolation: a task that throws does not take down its worker or
/// the process. The first exception is captured and rethrown from the
/// next wait() (or parallelFor) on the waiting thread; every other task
/// still runs to completion, so one poisoned task cannot starve the
/// rest of a batch. Secondary exceptions are dropped by design, but
/// never silently: each one bumps the NumDroppedTaskExceptions
/// telemetry counter, which stats reports surface.
///
/// Per-task watchdog: deadline::ScopedDeadline arms a cooperative
/// wall-clock budget for the current task. A shared watchdog thread
/// (lazily started, process-lifetime) marks overrunning tasks, and
/// long-running phases poll deadline::expired() — or call
/// deadline::checkpoint(), which throws DeadlineExceededError — at loop
/// boundaries to unwind. Cancellation is cooperative: the watchdog
/// never kills a thread, it only flips a flag the task must observe.
///
/// Worker-count selection: an explicit count wins, else the PIRA_JOBS
/// environment variable, else the hardware concurrency. No pool starts
/// more than MaxWorkers threads, whatever was asked for.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_THREADPOOL_H
#define PIRA_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pira {

namespace deadline {

/// Thrown by checkpoint() when the armed deadline has passed.
class DeadlineExceededError : public std::exception {
public:
  const char *what() const noexcept override {
    return "task deadline exceeded";
  }
};

/// Arms a wall-clock deadline of \p BudgetMs for the current thread
/// (0 arms nothing; a budget past the clock's range never expires).
/// Deadlines nest; the innermost one is consulted.
/// Registration makes the task visible to the watchdog thread, which
/// marks it expired once the clock passes the deadline.
class ScopedDeadline {
public:
  explicit ScopedDeadline(uint64_t BudgetMs);
  ~ScopedDeadline();
  ScopedDeadline(const ScopedDeadline &) = delete;
  ScopedDeadline &operator=(const ScopedDeadline &) = delete;

private:
  void *Record; ///< Opaque registry entry (null when BudgetMs was 0).
  void *Prev;   ///< Enclosing deadline to restore.
};

/// True when the innermost armed deadline has passed (watchdog flag or
/// direct clock check) or the "budget.deadline" fault site fires. Cheap
/// enough for per-round polling; false when nothing is armed.
bool expired();

/// Throws DeadlineExceededError when expired(). Phases call this at
/// loop boundaries so overrunning work unwinds to the task guard.
void checkpoint();

} // namespace deadline

/// A fixed-size work-stealing pool. Construction spawns the workers;
/// destruction drains remaining tasks and joins them.
class ThreadPool {
public:
  /// The most workers one pool starts. Larger requests are clamped, so
  /// no --jobs or PIRA_JOBS value can ask for thousands of threads.
  static constexpr unsigned MaxWorkers = 256;

  /// Spawns \p NumWorkers workers (at most MaxWorkers); 0 means
  /// defaultJobCount().
  explicit ThreadPool(unsigned NumWorkers = 0);

  /// Waits for every submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Returns the number of worker threads.
  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task; a task may submit further tasks. Safe to call
  /// from any thread. A task that throws is captured, not fatal — see
  /// wait().
  void submit(std::function<void()> Task);

  /// Blocks until every task submitted so far (including tasks those
  /// tasks spawned) has finished. The calling thread helps by stealing
  /// work while it waits, so wait() from inside a task cannot deadlock
  /// the pool. If any task threw since the last wait(), the first
  /// captured exception is rethrown here — after all tasks finished, so
  /// an exception never abandons queued work.
  void wait();

  /// Runs Body(I) for every I in [0, N), distributed over the pool, and
  /// blocks until all iterations finish. \p Body must be safe to call
  /// concurrently for distinct indices. A throwing iteration does not
  /// stop the others; the first exception is rethrown on return.
  void parallelFor(unsigned N, const std::function<void(unsigned)> &Body);

  /// The worker count used when none is given: PIRA_JOBS when set to an
  /// integer in [1, MaxWorkers], otherwise std::thread::hardware_concurrency()
  /// (at least 1, at most MaxWorkers).
  static unsigned defaultJobCount();

private:
  /// One worker's deque plus its lock. Stealing keeps contention low by
  /// touching one victim at a time.
  struct WorkQueue {
    std::mutex Mutex;
    std::deque<std::function<void()>> Tasks;
  };

  void workerLoop(unsigned Self);
  /// Pops work for worker \p Self: own deque back first, then steals
  /// front-of-deque round-robin from the others. Returns false when every
  /// deque is empty.
  bool popTask(unsigned Self, std::function<void()> &Out);
  /// Runs \p Task, capturing the first exception into FirstError.
  void runTask(std::function<void()> &Task);

  std::vector<std::unique_ptr<WorkQueue>> Queues;
  std::vector<std::thread> Workers;

  std::mutex Mutex; ///< Guards Pending / Stop transitions for the CVs.
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t Pending = 0; ///< Submitted but not yet finished tasks.
  size_t NextQueue = 0;
  bool Stop = false;

  std::mutex ErrorMutex;         ///< Guards FirstError.
  std::exception_ptr FirstError; ///< First task exception since last wait().
};

} // namespace pira

#endif // PIRA_SUPPORT_THREADPOOL_H
