//===- pipeline/Worker.cpp - Self-exec compile-worker protocol ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Worker.h"

#include "ir/Parser.h"
#include "machine/MachineConfig.h"
#include "machine/MachineModel.h"
#include "pipeline/Cache.h"
#include "pipeline/Report.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <iostream>
#include <sstream>
#include <type_traits>

using namespace pira;

json::Value pira::encodeWorkerJob(const std::string &IRText,
                                  const std::string &MachineText,
                                  const BatchOptions &Opts,
                                  const std::string &FaultSpec,
                                  uint64_t FaultKey) {
  json::Value Job = json::Value::object();
  Job.set("schema", WorkerJobSchemaName);
  Job.set("version", WorkerProtocolVersion);
  Job.set("ir", IRText);
  Job.set("machine", MachineText);
  Job.set("strategy", strategyName(Opts.Strategy));
  json::Value Pinter = json::Value::object();
  Pinter.set("interference_weight", Opts.Pinter.InterferenceWeight);
  Pinter.set("parallel_weight", Opts.Pinter.ParallelWeight);
  Pinter.set("pre_schedule", Opts.Pinter.PreSchedule);
  Pinter.set("use_regions", Opts.Pinter.UseRegions);
  Pinter.set("max_rounds", Opts.Pinter.MaxRounds);
  Job.set("pinter", std::move(Pinter));
  json::Value Budget = json::Value::object();
  Budget.set("max_instructions", Opts.Budget.MaxInstructions);
  Budget.set("max_blocks", Opts.Budget.MaxBlocks);
  Budget.set("deadline_ms", Opts.Budget.DeadlineMs);
  Job.set("budget", std::move(Budget));
  // v3: the exact strategy's envelope rides along so an isolated oracle
  // rung behaves exactly like an in-process one.
  json::Value Oracle = json::Value::object();
  Oracle.set("max_instructions", Opts.Oracle.MaxInstructions);
  Oracle.set("node_budget", Opts.Oracle.NodeBudget);
  Job.set("oracle", std::move(Oracle));
  Job.set("measure", Opts.Measure);
  Job.set("seed", Opts.Seed);
  Job.set("degrade", Opts.Degrade);
  json::Value Fault = json::Value::object();
  Fault.set("spec", FaultSpec);
  Fault.set("key", FaultKey);
  Job.set("fault", std::move(Fault));
  // v2: tell the child whether the parent is recording trace scopes, so
  // its result document ships events only when they will be merged.
  Job.set("telemetry", telemetry::enabled());
  return Job;
}

namespace {

Status malformed(const std::string &What) {
  return Status::error(ErrorCode::ParseError, "worker",
                       "malformed protocol document: " + What);
}

/// Reads a required typed member; a small lenient-reader family keeps
/// the decode paths flat.
const json::Value *member(const json::Value &Obj, const char *Name) {
  return Obj.isObject() ? Obj.find(Name) : nullptr;
}

bool readU64(const json::Value &Obj, const char *Name, uint64_t &Out) {
  const json::Value *V = member(Obj, Name);
  if (V == nullptr || !V->isInt() || V->asInt() < 0)
    return false;
  Out = static_cast<uint64_t>(V->asInt());
  return true;
}

bool readBool(const json::Value &Obj, const char *Name, bool &Out) {
  const json::Value *V = member(Obj, Name);
  if (V == nullptr || !V->isBool())
    return false;
  Out = V->asBool();
  return true;
}

bool readString(const json::Value &Obj, const char *Name, std::string &Out) {
  const json::Value *V = member(Obj, Name);
  if (V == nullptr || !V->isString())
    return false;
  Out = V->asString();
  return true;
}

bool readDouble(const json::Value &Obj, const char *Name, double &Out) {
  const json::Value *V = member(Obj, Name);
  if (V == nullptr || !V->isNumber())
    return false;
  Out = V->asDouble();
  return true;
}

/// Serializes one ladder record; mirror of decodeOutcome below.
json::Value encodeOutcome(const CompileOutcome &O) {
  json::Value Out = json::Value::object();
  Out.set("requested", O.Requested);
  Out.set("used", O.Used);
  Out.set("rung", O.Rung);
  Out.set("degraded", O.Degraded);
  json::Value Attempts = json::Value::array();
  for (const CompileAttempt &A : O.FailedAttempts) {
    json::Value One = json::Value::object();
    One.set("rung", A.Rung);
    One.set("diagnostic", A.Diag.toJson());
    Attempts.push(std::move(One));
  }
  Out.set("attempts", std::move(Attempts));
  return Out;
}

bool decodeOutcome(const json::Value &Doc, CompileOutcome &O) {
  uint64_t Rung = 0;
  if (!readString(Doc, "requested", O.Requested) ||
      !readString(Doc, "used", O.Used) || !readU64(Doc, "rung", Rung) ||
      !readBool(Doc, "degraded", O.Degraded))
    return false;
  O.Rung = static_cast<unsigned>(Rung);
  const json::Value *Attempts = member(Doc, "attempts");
  if (Attempts == nullptr || !Attempts->isArray())
    return false;
  for (const json::Value &One : Attempts->elements()) {
    CompileAttempt A;
    if (!readString(One, "rung", A.Rung))
      return false;
    const json::Value *Diag = member(One, "diagnostic");
    if (Diag == nullptr)
      return false;
    A.Diag = Status::fromJson(*Diag);
    O.FailedAttempts.push_back(std::move(A));
  }
  return true;
}

/// Restores a failed PipelineResult from its "pipeline" serialization
/// (successes travel as full cache entries instead; see encode).
bool decodeFailedPipeline(const json::Value &Pipe, PipelineResult &R) {
  bool Success = false;
  if (!readBool(Pipe, "success", Success) || Success ||
      !readString(Pipe, "error", R.Error))
    return false;
  const json::Value *Diag = member(Pipe, "diagnostic");
  if (Diag == nullptr)
    return false;
  R.Diag = Status::fromJson(*Diag);
  R.Success = false;
  // Scalars are usually zero on failure, but a semantics divergence (for
  // example) fails *after* measurement — keep whatever was recorded.
  uint64_t U = 0;
  auto Opt = [&](const char *Name, auto &Out) {
    if (readU64(Pipe, Name, U))
      Out = static_cast<std::remove_reference_t<decltype(Out)>>(U);
  };
  Opt("registers_used", R.RegistersUsed);
  Opt("spilled_webs", R.SpilledWebs);
  Opt("spill_instructions", R.SpillInstructions);
  Opt("false_deps", R.FalseDeps);
  Opt("anti_ordering_losses", R.AntiOrderingLosses);
  Opt("parallel_edges_dropped", R.ParallelEdgesDropped);
  Opt("static_cycles", R.StaticCycles);
  Opt("dyn_cycles", R.DynCycles);
  Opt("dyn_instructions", R.DynInstructions);
  readBool(Pipe, "semantics_preserved", R.SemanticsPreserved);
  return true;
}

} // namespace

json::Value pira::encodeWorkerResult(const GuardedResult &G) {
  json::Value Doc = json::Value::object();
  Doc.set("schema", WorkerResultSchemaName);
  Doc.set("version", WorkerProtocolVersion);
  Doc.set("outcome", encodeOutcome(G.Outcome));
  if (G.Result.Success) {
    // The cache-entry form already carries the allocated code, the
    // symbolic twin, the schedule, and every pipeline scalar.
    Doc.set("entry", encodeCacheEntry(G.Result, /*Key=*/""));
  } else {
    Doc.set("pipeline", pipelineResultToJson(G.Result));
  }
  return Doc;
}

Expected<GuardedResult> pira::decodeWorkerResult(const json::Value &Doc) {
  std::string Schema;
  uint64_t Version = 0;
  if (!readString(Doc, "schema", Schema) || Schema != WorkerResultSchemaName)
    return malformed("wrong result schema");
  if (!readU64(Doc, "version", Version) ||
      Version != static_cast<uint64_t>(WorkerProtocolVersion))
    return malformed("wrong result version");
  GuardedResult G;
  const json::Value *Outcome = member(Doc, "outcome");
  if (Outcome == nullptr || !decodeOutcome(*Outcome, G.Outcome))
    return malformed("bad outcome record");
  if (const json::Value *Entry = member(Doc, "entry")) {
    Expected<PipelineResult> R = decodeCacheEntry(*Entry);
    if (!R)
      return malformed("bad result entry (" + R.status().message() + ")");
    G.Result = R.take();
    return G;
  }
  const json::Value *Pipe = member(Doc, "pipeline");
  if (Pipe == nullptr || !decodeFailedPipeline(*Pipe, G.Result))
    return malformed("bad pipeline record");
  return G;
}

namespace {

/// A decoded pira.job document: everything runWorkerJob needs.
struct WorkerJob {
  std::string IRText;      ///< Canonical textual IR of the function.
  std::string MachineText; ///< Canonical machine description.
  BatchOptions Opts;       ///< Strategy and every result-affecting knob.
  std::string FaultSpec;   ///< Fault-injection spec ("" disarmed).
  uint64_t FaultKey = 0;   ///< Fault key for this compilation.
  bool WantTelemetry = false; ///< Parent records trace scopes (v2).
};

/// Decodes and validates a pira.job document. Errors are ProtocolError
/// diagnostics naming the malformed piece; the worker maps them to
/// exit 3.
Expected<WorkerJob> decodeWorkerJob(const json::Value &Doc) {
  auto Bad = [](const std::string &What) {
    return Status::error(ErrorCode::ProtocolError, "worker",
                         "malformed job document: " + What);
  };
  WorkerJob Job;
  std::string Schema, StrategyText;
  uint64_t Version = 0;
  if (!readString(Doc, "schema", Schema) || Schema != WorkerJobSchemaName)
    return Bad("wrong job schema");
  if (!readU64(Doc, "version", Version) ||
      Version != static_cast<uint64_t>(WorkerProtocolVersion))
    return Bad("wrong job version");
  if (!readString(Doc, "ir", Job.IRText) ||
      !readString(Doc, "machine", Job.MachineText) ||
      !readString(Doc, "strategy", StrategyText))
    return Bad("missing ir/machine/strategy");

  Expected<StrategyKind> Kind = strategyFromName(StrategyText);
  if (!Kind)
    return Bad(Kind.status().message());
  Job.Opts.Strategy = *Kind;
  uint64_t MaxRounds = Job.Opts.Pinter.MaxRounds;
  uint64_t OracleMaxInsts = Job.Opts.Oracle.MaxInstructions;
  const json::Value *Pinter = member(Doc, "pinter");
  const json::Value *Budget = member(Doc, "budget");
  const json::Value *Oracle = member(Doc, "oracle");
  const json::Value *Fault = member(Doc, "fault");
  if (Pinter == nullptr || Budget == nullptr || Oracle == nullptr ||
      Fault == nullptr ||
      !readU64(*Oracle, "max_instructions", OracleMaxInsts) ||
      !readU64(*Oracle, "node_budget", Job.Opts.Oracle.NodeBudget) ||
      !readDouble(*Pinter, "interference_weight",
                  Job.Opts.Pinter.InterferenceWeight) ||
      !readDouble(*Pinter, "parallel_weight",
                  Job.Opts.Pinter.ParallelWeight) ||
      !readBool(*Pinter, "pre_schedule", Job.Opts.Pinter.PreSchedule) ||
      !readBool(*Pinter, "use_regions", Job.Opts.Pinter.UseRegions) ||
      !readU64(*Pinter, "max_rounds", MaxRounds) ||
      !readU64(*Budget, "max_instructions",
               Job.Opts.Budget.MaxInstructions) ||
      !readU64(*Budget, "max_blocks", Job.Opts.Budget.MaxBlocks) ||
      !readU64(*Budget, "deadline_ms", Job.Opts.Budget.DeadlineMs) ||
      !readBool(Doc, "measure", Job.Opts.Measure) ||
      !readU64(Doc, "seed", Job.Opts.Seed) ||
      !readBool(Doc, "degrade", Job.Opts.Degrade))
    return Bad("malformed job options");
  Job.Opts.Pinter.MaxRounds = static_cast<unsigned>(MaxRounds);
  Job.Opts.Oracle.MaxInstructions = static_cast<unsigned>(OracleMaxInsts);

  if (!readString(*Fault, "spec", Job.FaultSpec) ||
      !readU64(*Fault, "key", Job.FaultKey))
    return Bad("malformed fault record");
  readBool(Doc, "telemetry", Job.WantTelemetry);
  return Job;
}

/// Executes one decoded job through the ordinary guarded pipeline:
/// parse the machine and IR, then run compileFunctionGuarded. Parse
/// failures travel inside the result like any compile failure. Does
/// NOT touch the process-global fault-injection config; the caller
/// adopts the job's FaultSpec.
GuardedResult runWorkerJob(const WorkerJob &Job) {
  faultinject::ScopedKey Key(Job.FaultKey);
  auto Fail = [&](Status S) {
    GuardedResult G;
    G.Outcome.Requested = strategyName(Job.Opts.Strategy);
    G.Result.Success = false;
    G.Result.Diag = std::move(S);
    G.Result.Error = G.Result.Diag.toString();
    return G;
  };

  std::string MachineError;
  std::optional<MachineModel> Machine =
      parseMachineModel(Job.MachineText, MachineError);
  if (!Machine)
    return Fail(Status::error(ErrorCode::ParseError, "worker",
                              "machine does not parse: " + MachineError));
  Expected<Function> F = parseFunctionEx(Job.IRText, "<worker-job>");
  if (!F) {
    Status S = F.status();
    S.addContext("worker job IR");
    return Fail(std::move(S));
  }
  return compileFunctionGuarded(*F, *Machine, Job.Opts);
}

} // namespace

int pira::runWorkerMode(std::istream &In, std::ostream &Out,
                        std::ostream &Err) {
  std::ostringstream SS;
  SS << In.rdbuf();

  json::Value Doc;
  std::string Error;
  if (!json::parse(SS.str(), Doc, Error)) {
    Err << "pirac --worker: job does not parse: " << Error << '\n';
    return 3;
  }
  Expected<WorkerJob> Job = decodeWorkerJob(Doc);
  if (!Job) {
    Err << "pirac --worker: " << Job.status().toString() << '\n';
    return 3;
  }

  // Configure explicitly even when empty: the child must mirror the
  // parent's harness, not adopt PIRA_FAULT on its own.
  if (!faultinject::configure(Job->FaultSpec, Error)) {
    Err << "pirac --worker: bad fault spec: " << Error << '\n';
    return 3;
  }

  // v2: mirror the parent's scope-recording switch so trace events are
  // produced exactly when the parent will merge them. Counters and
  // histograms record (and ship) regardless.
  telemetry::setEnabled(Job->WantTelemetry);

  // From here on every failure is a *compile* failure: it travels inside
  // the result document, and the worker still exits 0.
  GuardedResult G = runWorkerJob(*Job);
  json::Value Result = encodeWorkerResult(G);
  // v2: everything this process observed rides home in the result doc —
  // the parent's registries absorb it as if the compile ran in-process.
  Result.set("telemetry", telemetry::snapshotToJson());
  Result.write(Out, /*Indent=*/-1);
  Out << '\n';
  Out.flush();
  return Out ? 0 : 3;
}
