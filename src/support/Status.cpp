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
  case ErrorCode::ChildCrashed:
    return "child-crashed";
  case ErrorCode::ChildKilled:
    return "child-killed";
  case ErrorCode::ChildTimeout:
    return "child-timeout";
  case ErrorCode::SearchExhausted:
    return "search-exhausted";
  case ErrorCode::ProtocolError:
    return "protocol-error";
  case ErrorCode::Internal:
    return "internal";
  }
  return "internal";
}

ErrorCode pira::errorCodeFromName(std::string_view Name) {
  static const ErrorCode All[] = {
      ErrorCode::Ok,           ErrorCode::InvalidArgument,
      ErrorCode::ParseError,   ErrorCode::VerifyError,
      ErrorCode::AllocFailure, ErrorCode::SimFailure,
      ErrorCode::SemanticsDiverged, ErrorCode::ResourceExhausted,
      ErrorCode::DeadlineExceeded,  ErrorCode::FaultInjected,
      ErrorCode::ChildCrashed, ErrorCode::ChildKilled,
      ErrorCode::ChildTimeout, ErrorCode::SearchExhausted,
      ErrorCode::ProtocolError, ErrorCode::Internal,
  };
  for (ErrorCode C : All)
    if (Name == errorCodeName(C))
      return C;
  return ErrorCode::Internal;
}

Status Status::fromJson(const json::Value &V) {
  if (!V.isObject())
    return Status::error(ErrorCode::Internal, "status",
                         "malformed serialized diagnostic");
  const json::Value *Code = V.find("code");
  if (Code == nullptr || !Code->isString() || Code->asString() == "ok")
    return Status();
  const json::Value *Phase = V.find("phase");
  const json::Value *Msg = V.find("message");
  Status S = Status::error(
      errorCodeFromName(Code->asString()),
      Phase != nullptr && Phase->isString() ? Phase->asString() : "",
      Msg != nullptr && Msg->isString() ? Msg->asString() : "");
  const json::Value *Frames = V.find("context");
  if (Frames != nullptr && Frames->isArray())
    for (const json::Value &F : Frames->elements())
      if (F.isString())
        S.addContext(F.asString());
  return S;
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
