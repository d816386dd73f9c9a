//===- support/FaultInjection.cpp - Deterministic fault harness -----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Telemetry.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <mutex>
#include <utility>

using namespace pira;
using namespace pira::faultinject;

PIRA_STAT(NumFaultsFired, "Fault-injection sites that fired");

namespace {

/// Armed sites. Reads are guarded by StateMutex but gated behind the
/// Armed flag, so the idle cost is one relaxed load.
struct HarnessState {
  std::mutex Mutex;
  std::vector<std::pair<std::string, uint64_t>> Sites;
  bool Configured = false; // once true, PIRA_FAULT is never (re)read
};

HarnessState &state() {
  static HarnessState *S = new HarnessState; // leaked: alive at exit
  return *S;
}

std::atomic<bool> Armed{false};
std::atomic<bool> EnvChecked{false};

thread_local uint64_t ThreadFaultKey = 0;

/// Parses "site:n[,site:n...]" into \p Out; false with \p Error set on
/// the first malformed entry or unknown site.
bool parseSpec(std::string_view Spec,
               std::vector<std::pair<std::string, uint64_t>> &Out,
               std::string &Error) {
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string_view Entry = Spec.substr(
        Pos, Comma == std::string_view::npos ? std::string_view::npos
                                             : Comma - Pos);
    Pos = Comma == std::string_view::npos ? Spec.size() : Comma + 1;
    if (Entry.empty())
      continue;
    size_t Colon = Entry.find(':');
    if (Colon == std::string_view::npos || Colon == 0 ||
        Colon + 1 == Entry.size()) {
      Error = "malformed fault spec entry '" + std::string(Entry) +
              "' (expected site:n)";
      return false;
    }
    std::string Site(Entry.substr(0, Colon));
    bool Known = false;
    for (const char *S : knownSites())
      if (Site == S) {
        Known = true;
        break;
      }
    if (!Known) {
      Error = "unknown fault site '" + Site + "'";
      return false;
    }
    // Digits only, and within uint64_t: a count past 2^64 - 1 is refused
    // rather than wrapped.
    std::string_view Digits = Entry.substr(Colon + 1);
    uint64_t N = 0;
    auto [End, Ec] =
        std::from_chars(Digits.data(), Digits.data() + Digits.size(), N);
    if (Ec != std::errc() || End != Digits.data() + Digits.size()) {
      Error = "bad fault count in '" + std::string(Entry) + "'";
      return false;
    }
    if (N == 0) {
      Error = "fault count must be positive in '" + std::string(Entry) + "'";
      return false;
    }
    Out.emplace_back(std::move(Site), N);
  }
  return true;
}

/// Adopts PIRA_FAULT exactly once if nothing configured the harness
/// explicitly. A malformed env spec disarms (the CLI path validates and
/// reports; library users get safe-off).
void adoptEnvOnce(HarnessState &S) {
  if (S.Configured)
    return;
  S.Configured = true;
  const char *Raw = std::getenv("PIRA_FAULT");
  if (Raw == nullptr || *Raw == '\0')
    return;
  std::string Error;
  std::vector<std::pair<std::string, uint64_t>> Sites;
  if (parseSpec(Raw, Sites, Error)) {
    S.Sites = std::move(Sites);
    Armed.store(!S.Sites.empty(), std::memory_order_relaxed);
  }
}

} // namespace

const std::vector<const char *> &pira::faultinject::knownSites() {
  static const std::vector<const char *> Sites = {
      "parse.enter",     "strategy.entry", "alloc.pinter",
      "alloc.chaitin",   "alloc.spillall", "verify.final",
      "sched.final",     "sim.measure",    "budget.instructions",
      "budget.deadline",
  };
  return Sites;
}

bool pira::faultinject::configure(std::string_view Spec, std::string &Error) {
  std::vector<std::pair<std::string, uint64_t>> Sites;
  if (!parseSpec(Spec, Sites, Error))
    return false;
  HarnessState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Configured = true;
  S.Sites = std::move(Sites);
  Armed.store(!S.Sites.empty(), std::memory_order_relaxed);
  return true;
}

void pira::faultinject::reset() {
  HarnessState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Configured = true;
  S.Sites.clear();
  Armed.store(false, std::memory_order_relaxed);
}

bool pira::faultinject::enabled() {
  return Armed.load(std::memory_order_relaxed);
}

bool pira::faultinject::shouldFire(const char *Site) {
  HarnessState &S = state();
  if (!Armed.load(std::memory_order_relaxed)) {
    // Idle fast path — but give the env one chance to arm us.
    if (EnvChecked.load(std::memory_order_acquire))
      return false;
    std::lock_guard<std::mutex> Lock(S.Mutex);
    adoptEnvOnce(S);
    EnvChecked.store(true, std::memory_order_release);
    if (!Armed.load(std::memory_order_relaxed))
      return false;
  }
  std::lock_guard<std::mutex> Lock(S.Mutex);
  for (const auto &[Name, N] : S.Sites)
    if (Name == Site && ThreadFaultKey % N == 0) {
      ++NumFaultsFired;
      return true;
    }
  return false;
}

void pira::faultinject::maybeThrow(const char *Site) {
  if (shouldFire(Site))
    throw FaultInjectedError(Site);
}

uint64_t pira::faultinject::currentKey() { return ThreadFaultKey; }

ScopedKey::ScopedKey(uint64_t Key) : Prev(ThreadFaultKey) {
  ThreadFaultKey = Key;
}

ScopedKey::~ScopedKey() { ThreadFaultKey = Prev; }
