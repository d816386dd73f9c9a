//===- pipeline/Report.h - Structured JSON stats reports --------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable side of the pipeline: serializes PipelineResult,
/// the telemetry counter registry, and aggregated phase timers into one
/// JSON document with a stable, versioned schema ("pira.stats"). `pirac
/// --stats-out` and the bench binaries emit this format so
/// the perf trajectory of the repo is diffable across PRs.
///
/// Schema (version 6):
///
///   {
///     "schema": "pira.stats", "version": 6,
///     "provenance": {"tool", "tool_version", "git_sha", "compiler",
///                    "build_type", "ndebug"},
///     "strategy": "combined",            // when known
///     "machine": {"name": ..., "registers": N, "issue_width": W},
///     "pipeline": { ...every PipelineResult scalar field...,
///                   "diagnostic": {"code", "phase", "message",
///                                  "context": [...]} },
///     "counters": {"NumFoo": {"value": N, "description": ...}, ...},
///     "histograms": {"FooLatency": {"description", "count", "sum_ns",
///                    "max_ns", "p50_ns", "p90_ns", "p99_ns",
///                    "buckets": [[i, n], ...]}, ...},
///     "timers": [{"path": ..., "calls": N, "total_ns": N}, ...]
///   }
///
/// Batch reports (makeBatchStatsReport) replace "pipeline" with a
/// "functions" array of {"name", "pipeline"[, "degradation"]} entries
/// and add a "batch" block ({"items", "succeeded", "failed",
/// "degraded", "max_registers_used", "spilled_webs",
/// "spill_instructions", "false_deps", "static_cycles", "dyn_cycles",
/// "dyn_instructions"}) plus "failures" and "degradations" sections
/// (the failure model; see DESIGN.md §8).
/// Version history: v2 added "diagnostic" per result and the batch
/// "failures"/"degradations" sections and "failed"/"degraded"
/// aggregates; v3 added a batch "cache" block; v4 added a per-function
/// "isolation" record and the batch "isolated"/"crashes"/"timeouts"/
/// "retries" tallies for process-isolated runs; v5 added the
/// "provenance" block and the "histograms" section. v6 drops v3's and
/// v4's additions with the compilation cache and process isolation
/// they described.
///
/// Byte-identity contract: everything above the "histograms" key is
/// deterministic for deterministic inputs (counters and histogram
/// *counts* merge commutatively, so they match across --jobs); the
/// "histograms" bucket placement and "timers" sections carry wall-clock
/// measurements and are the report's volatile tail — identity checks
/// neutralize those two sections and compare histogram counts
/// separately.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PIPELINE_REPORT_H
#define PIRA_PIPELINE_REPORT_H

#include "pipeline/Strategies.h"
#include "support/Json.h"

#include <string>

namespace pira {

class MachineModel;

/// Schema constants; bump the version whenever a field changes meaning.
inline constexpr const char *StatsSchemaName = "pira.stats";
inline constexpr int StatsSchemaVersion = 6;

/// The tool version stamped into provenance blocks and --version output.
inline constexpr const char *PiraVersionString = "0.6.0";

/// Serializes every scalar field of \p R (code and schedule bodies are
/// deliberately omitted — they belong to the textual printers).
json::Value pipelineResultToJson(const PipelineResult &R);

/// Serializes \p Machine's identity (name, register count, issue width).
json::Value machineToJson(const MachineModel &Machine);

/// The registered telemetry counters as {"name": {"value", "description"}}.
json::Value countersToJson();

/// The registered latency histograms as {"name": {"description",
/// "count", "sum_ns", "max_ns", "p50_ns", "p90_ns", "p99_ns",
/// "buckets": [[index, count], ...]}}. Every registered histogram
/// appears (a stable key set); buckets are sparse. Percentiles are the
/// deterministic log2 bucket upper bounds.
json::Value histogramsToJson();

/// Aggregated phase timers as [{"path", "calls", "total_ns"}].
json::Value timersToJson();

/// The build-provenance block stamped into every stats report and
/// printed by `pirac --version`: tool name + version, git SHA and build
/// type when the build system knew them, compiler id/version, and
/// whether asserts were compiled out (ndebug).
json::Value buildProvenanceToJson();

/// Assembles the full versioned stats document for one pipeline run.
/// \p Strategy may be empty when the run is not strategy-shaped.
json::Value makeStatsReport(const PipelineResult &R,
                            const std::string &Strategy,
                            const MachineModel &Machine);

/// Writes \p Report (pretty-printed) to \p FilePath — or to stdout when
/// \p FilePath is "-"; false with \p Error set on I/O failure.
bool writeJsonFile(const json::Value &Report, const std::string &FilePath,
                   std::string &Error);

} // namespace pira

#endif // PIRA_PIPELINE_REPORT_H
