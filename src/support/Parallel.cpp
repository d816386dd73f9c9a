//===- support/Parallel.cpp - Loop over independent indices ---------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

using namespace pira;

PIRA_STAT(NumDroppedTaskExceptions,
          "Secondary task exceptions dropped after the first was captured");

unsigned pira::defaultJobCount() {
  if (const char *Raw = std::getenv("PIRA_JOBS")) {
    char *End = nullptr;
    long V = std::strtol(Raw, &End, 10);
    if (End != Raw && *End == '\0' && V > 0 && V <= MaxJobs)
      return static_cast<unsigned>(V);
  }
  return std::clamp(std::thread::hardware_concurrency(), 1u, MaxJobs);
}

unsigned pira::parallelFor(unsigned N, unsigned Jobs,
                           const std::function<void(unsigned)> &Body) {
  Jobs = std::min(Jobs == 0 ? defaultJobCount() : Jobs, MaxJobs);
  std::atomic<unsigned> Next{0};
  std::mutex ErrorMutex;
  std::exception_ptr FirstError;
  auto Drain = [&] {
    for (unsigned I = Next++; I < N; I = Next++) {
      try {
        Body(I);
      } catch (...) {
        // Report the first failure; count each later one in the stats.
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!FirstError)
          FirstError = std::current_exception();
        else
          ++NumDroppedTaskExceptions;
      }
    }
  };
  unsigned Extra = Jobs > 1 && N > 1 ? std::min(Jobs, N - 1) : 0;
  std::vector<std::jthread> Threads;
  try {
    while (Threads.size() < Extra)
      Threads.emplace_back(Drain);
  } catch (const std::system_error &) {
    // Fewer threads than asked: the caller still runs every index left.
  }
  Drain();
  unsigned Used = static_cast<unsigned>(Threads.size()) + 1;
  Threads.clear(); // joins
  if (FirstError)
    std::rethrow_exception(FirstError);
  return Used;
}
