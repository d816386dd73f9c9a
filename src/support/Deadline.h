//===- support/Deadline.h - Cooperative per-thread deadline -----*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cooperative wall-clock budget: ScopedDeadline arms one thread-local
/// time point, and long-running phases poll expired() or checkpoint() at
/// loop boundaries to unwind. Other threads never see it.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_DEADLINE_H
#define PIRA_SUPPORT_DEADLINE_H

#include <chrono>
#include <cstdint>
#include <exception>

namespace pira {
namespace deadline {

/// Thrown by checkpoint() when the armed deadline has passed.
struct DeadlineExceededError : std::exception {
  const char *what() const noexcept override {
    return "task deadline exceeded";
  }
};

/// Arms \p BudgetMs from now on this thread (0 arms nothing; past the
/// clock's range, never expires) and restores the enclosing deadline.
class ScopedDeadline {
public:
  explicit ScopedDeadline(uint64_t BudgetMs);
  ~ScopedDeadline();
  ScopedDeadline(const ScopedDeadline &) = delete;
  ScopedDeadline &operator=(const ScopedDeadline &) = delete;

private:
  std::chrono::steady_clock::time_point Saved; ///< Enclosing deadline.
};

/// True when "budget.deadline" fires or this thread's deadline passed.
bool expired();

/// Throws DeadlineExceededError when expired().
void checkpoint();

} // namespace deadline
} // namespace pira

#endif // PIRA_SUPPORT_DEADLINE_H
