//===- support/FaultInjection.h - Deterministic fault harness ---*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault-injection harness for exercising every recovery
/// path of the fault-isolated pipeline. Faults are armed per named site
/// with a spec string (the PIRA_FAULT environment variable or `pirac
/// --fault-inject`):
///
///   site:n[,site:n...]      e.g.  "alloc.pinter:3,strategy.entry:7"
///
/// An armed site fires for every compilation whose *fault key* is a
/// multiple of n. The key is set by the batch driver to the function's
/// input position (faultinject::ScopedKey), so which functions fault is
/// a pure function of the input batch — never of thread scheduling —
/// and fault-injected runs keep the batch-determinism guarantee across
/// any --jobs value. Outside batch mode the key defaults to 0, which is
/// a multiple of everything: an armed site always fires.
///
/// Sites and their effects (the call site decides the effect; the
/// harness only answers "fire here?"):
///
///   parse.enter         parseFunctionEx returns an injected parse error
///   strategy.entry      runStrategy throws FaultInjectedError
///   alloc.pinter        pinterAllocate reports non-convergence
///   alloc.chaitin       Chaitin-based strategies report non-convergence
///   alloc.spillall      the spill-everywhere baseline reports failure
///   verify.final        post-allocation verification reports failure
///   sched.final         final scheduling throws FaultInjectedError
///   sim.measure         measurement throws FaultInjectedError
///   budget.instructions the guard treats the instruction budget as blown
///   budget.deadline     deadline::expired() reports an overrun
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_FAULTINJECTION_H
#define PIRA_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pira {
namespace faultinject {

/// The exception thrown by sites whose effect is "throw". Carries the
/// site name so diagnostics can name the trigger.
class FaultInjectedError : public std::runtime_error {
public:
  explicit FaultInjectedError(const std::string &Site)
      : std::runtime_error("injected fault at site '" + Site + "'"),
        SiteName(Site) {}
  const std::string &site() const { return SiteName; }

private:
  std::string SiteName;
};

/// Every site name the harness accepts, in documentation order.
const std::vector<const char *> &knownSites();

/// Arms the harness from a spec string ("site:n,site:n"). Unknown sites
/// and non-positive counts are rejected with \p Error set and the
/// previous configuration left untouched. An empty spec disarms.
bool configure(std::string_view Spec, std::string &Error);

/// Disarms every site and marks the harness configured (the PIRA_FAULT
/// environment variable will not be re-read).
void reset();

/// True when any site is armed. One relaxed atomic load when idle.
bool enabled();

/// True when \p Site is armed and the current thread's fault key is a
/// multiple of its count. Pure: firing consumes nothing, so the same
/// key asks the same answer every time. The first call (process-wide)
/// adopts PIRA_FAULT if the harness was never configured explicitly.
bool shouldFire(const char *Site);

/// shouldFire, but throws FaultInjectedError instead of returning true.
void maybeThrow(const char *Site);

/// The current thread's fault key (0 unless a ScopedKey is live).
uint64_t currentKey();

/// Sets the thread's fault key for one compilation; restores on exit.
class ScopedKey {
public:
  explicit ScopedKey(uint64_t Key);
  ~ScopedKey();
  ScopedKey(const ScopedKey &) = delete;
  ScopedKey &operator=(const ScopedKey &) = delete;

private:
  uint64_t Prev;
};

} // namespace faultinject
} // namespace pira

#endif // PIRA_SUPPORT_FAULTINJECTION_H
