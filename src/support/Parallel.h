//===- support/Parallel.h - Loop over independent indices -------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parallelFor, PIRA's one parallel construct: a flat loop over
/// independent indices, whose results land in slots indexed by I.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_PARALLEL_H
#define PIRA_SUPPORT_PARALLEL_H

#include <functional>

namespace pira {

inline constexpr unsigned MaxJobs = 256; ///< Thread cap, whatever is asked.

/// PIRA_JOBS if in [1, MaxJobs], else hardware_concurrency() in [1, MaxJobs].
unsigned defaultJobCount();

/// Runs Body(I) once for every I in [0, N). \p Jobs 0 means
/// defaultJobCount(), and Jobs is clamped at MaxJobs. One job, or N <= 1,
/// runs inline; else min(Jobs, N - 1) threads and the caller take indices
/// from one atomic counter. A throw stops no other index: the first is
/// rethrown at the end, each later one bumps NumDroppedTaskExceptions.
/// \returns the number of threads that ran the loop, the caller
/// included: 1 inline, fewer than asked when a thread failed to start.
unsigned parallelFor(unsigned N, unsigned Jobs,
                     const std::function<void(unsigned)> &Body);

} // namespace pira

#endif // PIRA_SUPPORT_PARALLEL_H
