//===- pipeline/Worker.h - Self-exec compile-worker protocol ----*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between the batch driver's --isolate mode and its
/// sandboxed pirac children. The parent serializes one compile job —
/// the function's textual IR, the full machine description, the rung's
/// strategy, every option that affects the result, and the fault spec
/// plus key — to the child's stdin; the child (pirac --worker) runs the
/// ordinary compile guard on it and writes one result document to
/// stdout. Both documents are JSON with the usual versioned-schema
/// discipline ("pira.job" / "pira.result").
///
/// Contract: a worker that produced a result document exits 0 even when
/// the compile inside it failed — the failure travels as the structured
/// diagnostic in the document. A nonzero exit or a missing/unparsable
/// document therefore always means the *process* died (crash, OOM kill,
/// timeout, protocol bug), which is exactly the event the parent's
/// ChildCrashed / ChildKilled / ChildTimeout taxonomy captures.
///
/// Protocol v2 adds cross-process telemetry: the job document carries a
/// "telemetry" flag (whether the parent is recording trace scopes), and
/// the result document carries a "telemetry" block — the child's pid,
/// nonzero counters, nonempty latency histograms, and (when the flag was
/// set) its finished trace events (telemetry::snapshotToJson). The
/// parent folds the block into its own registries with
/// telemetry::mergeSnapshot, re-basing child timestamps onto the instant
/// it spawned the child, so --isolate --trace-out shows child compile
/// phases nested under the parent's spawn/ladder spans.
///
/// Determinism: the compile payload of both documents is
/// insertion-ordered JSON with no clocks or pids, and the telemetry
/// block's counters and histogram bucket *counts* are deterministic for
/// deterministic work and merge commutatively — so isolated batches keep
/// the byte-identical-across---jobs guarantee for everything outside the
/// wall-clock fields (event timestamps, histogram sums), which live in
/// the stats report's volatile tail (see pipeline/Report.h).
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PIPELINE_WORKER_H
#define PIRA_PIPELINE_WORKER_H

#include "pipeline/Batch.h"

#include <iosfwd>
#include <string>

namespace pira {

/// Schema constants for both protocol documents.
inline constexpr const char *WorkerJobSchemaName = "pira.job";
inline constexpr const char *WorkerResultSchemaName = "pira.result";
/// v3 added the "oracle" options block (max_instructions, node_budget)
/// so the exact strategy's envelope survives the parent -> child hop.
inline constexpr int WorkerProtocolVersion = 3;

/// One compile job as the parent ships it: \p IRText and \p MachineText
/// are the canonical printed forms (the child re-parses them), \p Opts
/// supplies strategy and knobs, and \p FaultSpec / \p FaultKey transport
/// the harness state so injected faults fire identically in the child.
json::Value encodeWorkerJob(const std::string &IRText,
                            const std::string &MachineText,
                            const BatchOptions &Opts,
                            const std::string &FaultSpec, uint64_t FaultKey);

/// The child's answer: the ladder record plus the full pipeline result
/// (successes carry the allocated code, schedule, and symbolic twin so
/// the parent's BatchResult is as complete as an in-process compile).
json::Value encodeWorkerResult(const GuardedResult &G);

/// Inverse of encodeWorkerResult. Errors mean a malformed document —
/// the parent maps them to a worker-protocol Internal diagnostic.
Expected<GuardedResult> decodeWorkerResult(const json::Value &Doc);

/// The `pirac --worker` entry: reads one job document from \p In, runs
/// the guarded compile, writes one result document to \p Out. Returns
/// the process exit code — 0 whenever a result document was written
/// (compile failures included), 3 for protocol-level errors (unreadable
/// or malformed job), with a diagnostic on \p Err.
int runWorkerMode(std::istream &In, std::ostream &Out, std::ostream &Err);

} // namespace pira

#endif // PIRA_PIPELINE_WORKER_H
