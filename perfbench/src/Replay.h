//===- perfbench/src/Replay.h - Outside-in layer trace ----------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer timing from outside the library. replayCell() re-runs one
/// cell's strategy through the same public calls runAndMeasure makes,
/// with a span around each call:
///
///   cell
///     strategy            the allocator call (level 1)
///       sched.preschedule / sched.prepass / sched.ips
///       analysis.webs, regalloc.interference, core.pig_build,
///       regalloc.spill_cost, core.pig_color | regalloc.chaitin_color,
///       regalloc.spill_insert | regalloc.apply      (level 2, per round)
///     ir.verify, sched.list, core.false_deps, ir.interpret, sim.simulate
///   probe                 schedule-graph layers, timed per input block
///     analysis.depgraph, analysis.closure
///
/// The replay mirrors the library's sequence of calls; the caller compares
/// its result with the real compile, so a library change the replay no
/// longer mirrors fails the traced run instead of going stale.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PERFBENCH_REPLAY_H
#define PIRA_PERFBENCH_REPLAY_H

#include "pipeline/Strategies.h"

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace pira {
namespace perfbench {

struct Cell;

/// One timed interval. Names are string literals.
struct Span {
  const char *Name;
  uint64_t StartNs;
  uint64_t EndNs;
  int32_t Parent; ///< Index into the span list; -1 for a root.
  uint32_t Cell;  ///< Id of the cell the span belongs to.
};

/// Records spans in memory; they are written out once, at the end.
class Tracer {
public:
  Tracer();

  /// Cell id stamped on spans opened from now on.
  void setCell(uint32_t Id) { CellId = Id; }

  void begin(const char *Name);
  void end();

  /// Seconds spent in spans of one name.
  struct Time {
    double Total = 0; ///< Summed span durations.
    double Self = 0;  ///< Minus the time their child spans cover.
  };
  std::map<std::string, Time> timeByName() const;

  /// Writes the spans of cells below \p CellLimit as Chrome trace-event
  /// JSON.
  void write(std::ostream &OS, uint32_t CellLimit) const;

private:
  uint64_t now() const;

  uint64_t Epoch;
  uint32_t CellId = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// RAII span; a null tracer records nothing.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name) : T(T) {
    if (T != nullptr)
      T->begin(Name);
  }
  ~SpanScope() {
    if (T != nullptr)
      T->end();
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer *T;
};

/// Work counts gathered at the same layer boundaries as the spans.
struct LayerCounts {
  uint64_t EdgesDropped = 0;      ///< Allocation::ParallelEdgesDropped.
  uint64_t ParallelOnlyEdges = 0; ///< numParallelOnlyEdges() per PIG built.
  uint64_t PinterAllocations = 0; ///< Combined allocations that colored.
  uint64_t PinterRounds = 0;      ///< Their color/spill rounds.
  uint64_t ChaitinAllocations = 0;
  uint64_t ChaitinRounds = 0;
  uint64_t CsrDecisions = 0;      ///< IpsStats::CsrDecisions.
};

/// Result of running a compiled cell against the interpreter.
struct Measurement {
  uint64_t Cycles = 0;  ///< Simulated cycles of the compiled code.
  std::string Mismatch; ///< Empty when the outputs agree.
};

/// Interprets \p Input and simulates R.Final under R.Sched from the same
/// initial state, then compares every array and the return value. This is
/// runAndMeasure's check, redone by the benchmark so that it does not take
/// the compiler's word for it. With \p T set, the interpreter and the
/// simulator each run inside a span.
Measurement measureOutputs(const Function &Input, const PipelineResult &R,
                           const MachineModel &M, uint64_t Seed,
                           Tracer *T = nullptr);

/// Replays \p C's runAndMeasure under spans. Supports the strategies the
/// workloads use (combined, alloc-first, sched-first, goodman-hsu-ips);
/// returns a failed result naming the problem otherwise.
PipelineResult replayCell(const Cell &C, Tracer &T, LayerCounts &Counts);

/// Times DependenceGraph construction and reachability() on every block
/// of \p C's input.
void probeScheduleGraphs(const Cell &C, Tracer &T);

/// Empty when \p Replay reproduces \p Real; otherwise the first field
/// that differs.
std::string replayMismatch(const PipelineResult &Real,
                           const PipelineResult &Replay);

/// The final code and schedule as text: the digest input, and the
/// "printed code" the replay check compares.
std::string printedOutput(const PipelineResult &R);

} // namespace perfbench
} // namespace pira

#endif // PIRA_PERFBENCH_REPLAY_H
