//===- support/Status.cpp - Structured diagnostics ------------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/Status.h"

using namespace pira;

const char *pira::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Ok:
    return "ok";
  case ErrorCode::InvalidArgument:
    return "invalid-argument";
  case ErrorCode::ParseError:
    return "parse-error";
  case ErrorCode::VerifyError:
    return "verify-error";
  case ErrorCode::AllocFailure:
    return "alloc-failure";
  case ErrorCode::SimFailure:
    return "sim-failure";
  case ErrorCode::SemanticsDiverged:
    return "semantics-diverged";
  case ErrorCode::ResourceExhausted:
    return "resource-exhausted";
  case ErrorCode::DeadlineExceeded:
    return "deadline-exceeded";
  case ErrorCode::FaultInjected:
    return "fault-injected";
  case ErrorCode::SearchExhausted:
    return "search-exhausted";
  case ErrorCode::Internal:
    return "internal";
  }
  return "internal";
}

std::string Status::toString() const {
  if (ok())
    return "ok";
  std::string Out;
  if (!PhaseName.empty())
    Out += PhaseName + ": ";
  Out += Msg.empty() ? errorCodeName(ErrCode) : Msg;
  if (!Context.empty()) {
    Out += " [";
    for (size_t I = 0; I != Context.size(); ++I) {
      if (I != 0)
        Out += "; ";
      Out += Context[I];
    }
    Out += "]";
  }
  return Out;
}

json::Value Status::toJson() const {
  json::Value Out = json::Value::object();
  Out.set("code", std::string(errorCodeName(ErrCode)));
  if (ok())
    return Out;
  Out.set("phase", PhaseName);
  Out.set("message", Msg);
  json::Value Frames = json::Value::array();
  for (const std::string &Frame : Context)
    Frames.push(json::Value(Frame));
  Out.set("context", std::move(Frames));
  return Out;
}
