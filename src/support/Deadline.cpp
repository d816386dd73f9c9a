//===- support/Deadline.cpp - Cooperative per-thread deadline -------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/Deadline.h"

#include "support/FaultInjection.h"

using namespace pira;
using Clock = std::chrono::steady_clock;

/// The current thread's deadline; max() when nothing is armed.
static thread_local Clock::time_point Current = Clock::time_point::max();

deadline::ScopedDeadline::ScopedDeadline(uint64_t BudgetMs) : Saved(Current) {
  if (BudgetMs == 0)
    return;
  // Saturate: past the clock's range the plain sum would overflow the
  // signed tick count into the past, so arm max() instead.
  Clock::time_point Now = Clock::now();
  auto Headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - Now);
  Current = BudgetMs >= static_cast<uint64_t>(Headroom.count())
                ? Clock::time_point::max()
                : Now + std::chrono::milliseconds(BudgetMs);
}

deadline::ScopedDeadline::~ScopedDeadline() { Current = Saved; }

bool pira::deadline::expired() {
  if (faultinject::shouldFire("budget.deadline"))
    return true;
  return Current != Clock::time_point::max() && Clock::now() >= Current;
}

void pira::deadline::checkpoint() {
  if (expired())
    throw DeadlineExceededError();
}
