//===- support/Status.h - Structured diagnostics ----------------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured-diagnostic currency of the fault-isolated pipeline:
/// every failure a phase can produce is a Status — an error code, the
/// phase that raised it ("alloc/pinter", "verify/final", ...), a human
/// message, and a context chain ("function @dot", "rung spill-all") that
/// callers append to as the error travels outward. Status replaces the
/// ad-hoc error strings, asserts-on-input, and std::exit calls that used
/// to let one bad function take down a whole batch.
///
/// Expected<T> carries either a value or a Status, for factory-style
/// APIs (parseFunctionEx, strategyFromName) where "no result" must come
/// with a reason.
///
/// Both types are plain values — no exceptions, no allocation beyond the
/// strings — and serialize deterministically (toJson carries no clocks,
/// addresses, or thread ids), so batch stats reports stay byte-identical
/// across worker counts even when they are full of failures.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_STATUS_H
#define PIRA_SUPPORT_STATUS_H

#include "support/Json.h"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace pira {

/// Failure classes of the compilation pipeline. Codes classify *what*
/// went wrong; the Status phase says *where*.
enum class ErrorCode {
  Ok = 0,
  InvalidArgument,   ///< Bad option, unknown strategy/machine name.
  ParseError,        ///< Textual IR did not parse.
  VerifyError,       ///< IR failed structural verification.
  AllocFailure,      ///< An allocator did not converge.
  SimFailure,        ///< Interpreter or simulator did not complete.
  SemanticsDiverged, ///< Compiled code disagrees with the reference.
  ResourceExhausted, ///< Instruction/block budget exceeded.
  DeadlineExceeded,  ///< Per-task watchdog deadline passed.
  FaultInjected,     ///< A PIRA_FAULT site fired.
  SearchExhausted,   ///< Exact search gave up (outside scope or over its
                     ///< node budget) without proving anything; unlike
                     ///< ResourceExhausted this is *not* fatal to the
                     ///< degradation ladder — a heuristic rung may still
                     ///< succeed where exhaustive search cannot finish.
  Internal,          ///< Unexpected exception or invariant violation.
};

/// Stable lower-case name of \p Code ("alloc-failure", ...).
const char *errorCodeName(ErrorCode Code);

/// One structured diagnostic. Default-constructed Status is success.
class Status {
public:
  Status() = default;

  /// Builds a failure diagnostic. \p Phase names the pipeline phase in
  /// telemetry-scope style ("alloc/chaitin"); \p Message is free text.
  static Status error(ErrorCode Code, std::string Phase,
                      std::string Message) {
    Status S;
    S.ErrCode = Code;
    S.PhaseName = std::move(Phase);
    S.Msg = std::move(Message);
    return S;
  }

  /// True on success.
  bool ok() const { return ErrCode == ErrorCode::Ok; }

  ErrorCode code() const { return ErrCode; }
  const std::string &phase() const { return PhaseName; }
  const std::string &message() const { return Msg; }

  /// Outer-to-inner context frames, most recently added last.
  const std::vector<std::string> &context() const { return Context; }

  /// Appends a context frame ("function @foo") as the error propagates
  /// outward; no-op on success so call sites need not branch.
  Status &addContext(std::string Frame) {
    if (!ok())
      Context.push_back(std::move(Frame));
    return *this;
  }

  /// "phase: message [frame; frame]" — or "ok".
  std::string toString() const;

  /// Deterministic serialization: {"code", "phase", "message",
  /// "context": [...]}. Success serializes as {"code": "ok"}.
  json::Value toJson() const;

private:
  ErrorCode ErrCode = ErrorCode::Ok;
  std::string PhaseName;
  std::string Msg;
  std::vector<std::string> Context;
};

/// A value or the Status explaining its absence. The Status of a
/// value-holding Expected is Ok; constructing from a success Status is a
/// programming error (there would be no value to return).
template <typename T> class Expected {
public:
  Expected(T Value) : Val(std::move(Value)) {}
  Expected(Status S) : Diag(std::move(S)) {
    assert(!Diag.ok() && "Expected built from a success Status");
  }

  /// True when a value is present.
  bool ok() const { return Diag.ok(); }
  explicit operator bool() const { return ok(); }

  /// The diagnostic (Ok when a value is present).
  const Status &status() const { return Diag; }
  Status &status() { return Diag; }

  T &operator*() {
    assert(ok() && "dereferencing an errored Expected");
    return Val;
  }
  const T &operator*() const {
    assert(ok() && "dereferencing an errored Expected");
    return Val;
  }
  T *operator->() { return &operator*(); }
  const T *operator->() const { return &operator*(); }

  /// Moves the value out (value must be present).
  T take() {
    assert(ok() && "taking from an errored Expected");
    return std::move(Val);
  }

private:
  T Val{};
  Status Diag;
};

} // namespace pira

#endif // PIRA_SUPPORT_STATUS_H
