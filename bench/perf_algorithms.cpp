//===- bench/perf_algorithms.cpp - Algorithmic cost benchmarks ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// google-benchmark timings of the framework's building blocks against
// block size: schedule-graph construction, transitive closure, false
// dependence graph, PIG construction, the two coloring procedures, the
// list scheduler, the EP pre-scheduler, the Goodman-Hsu IPS prepass, the
// Theorem 1 false-dependence check, and the full combined pipeline.
// The layer benches sit beside the whole combined compile so a layer's
// cost can be read as a share of it: at 512-instruction blocks the
// closure is well under 1% of BM_CombinedPipeline, while the PIG build
// and the Section 4 coloring are most of it.
//
// The schedule-graph and list-scheduler benches also run on allocated
// code (the *Allocated variants): block 0 of an alloc-first compile on
// rs6000(12), where spill-everywhere makes most instructions loads and
// stores of one spill array. That is the code the Theorem 1
// false-dependence check and every phased strategy's final scheduling
// see, and the shape on which a pairwise memory scan or a rescanning
// scheduler grows quadratically. BM_FalseDepCheck runs both entry points
// of that check on the same compile's output and symbolic twin; it
// builds two schedule graphs per block, so it is gated in units of
// BM_DependenceGraphAllocated rather than against itself at 256.
// Likewise BM_PigConstructionSpilled builds the PIG of block 0 after one
// combined color/spill round on rs6000(12): the code, roughly three
// times the input, on which rounds 2 and 3 of a combined compile rebuild
// the PIG, and BM_PinterColorSpilled colors that PIG at r = 12, where
// step 3 gives most parallel edges away. tools/perf_gate.py gates how
// the time of the Section 4 coloring, the combined pipeline (512/128 and
// 1024/256), the post-spill PIG build, the schedule graph (symbolic and
// allocated), the allocated-code list scheduler, the pre-scheduler and
// the IPS prepass grows with block size. Two layer gates divide one layer by another on
// the same input at 1024: the check's time by one allocated-code
// schedule-graph build, and Chaitin's coloring by Section 4's. Both
// colorings run one engine on the same block at r = 16, and Chaitin's is
// Section 4 without the parallel family, so it does a subset of the
// work; a size ratio of Chaitin's alone would not tell a rescanning form
// from the engine, because round 1's dense graphs make both quadratic.
//
// BM_Simulate times the cycle-accurate simulator on the store loop
// a[i] = i (alloc-first on rs6000(8)) at 1024 and 4096 slots, and
// BM_SimulateKernels on the 16 kernels compiled combined on rs6000(6).
// The simulator costs what the instructions it retires cost, so the
// simulate_scaling gate (4096 / 1024) reads about 4; a drain that scans
// every slot ever stored at each block entry reads well over 10.
//
// A custom main wraps the console reporter so every run also lands in
// BENCH_perf_algorithms.json ("pira.bench" schema) with the
// PIRA_BENCH_SEED in effect recorded, keeping the perf trajectory
// machine-readable across PRs.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "ClosureOracle.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "core/FalseDepChecker.h"
#include "core/FalseDependenceGraph.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Strategies.h"
#include "pipeline/Tournament.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/IntegratedPrepass.h"
#include "sched/ListScheduler.h"
#include "sched/PreScheduler.h"
#include "sim/SuperscalarSim.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <benchmark/benchmark.h>

#include <set>

using namespace pira;

namespace {

Function makeBlock(unsigned Instructions) {
  // Block 0 (the block every per-block bench analyzes) holds exactly
  // `Instructions` instructions: two seed defs, the value-producing body,
  // and the trailing branch.
  RandomProgramOptions Opts;
  Opts.InstructionsPerBlock = Instructions > 3 ? Instructions - 3 : 1;
  Opts.Seed = pira::bench::benchSeed(4242);
  Opts.FloatPercent = 40;
  Opts.MemoryPercent = 25;
  return generateRandomProgram(Opts);
}

/// alloc-first on rs6000(12) of makeBlock(Instructions): spill
/// everywhere adds a store after each spilled def and a load before each
/// use, so block 0 of Final grows to about three times the input, mostly
/// memory ops on the one spill array. SymbolicTwin is the same code
/// before register assignment.
PipelineResult allocFirstBlock(unsigned Instructions) {
  return runStrategy(StrategyKind::AllocFirst, makeBlock(Instructions),
                     MachineModel::rs6000(12));
}

/// makeBlock(Instructions) after the first color/spill round of the
/// combined strategy on rs6000(12): the EP pre-ordering, one Section 4
/// coloring, and spill code for the webs it spilled. Spill-everywhere
/// roughly triples the code, and rounds 2 and 3 of a combined compile
/// build their PIGs on code like this.
Function makeSpilledBlock(unsigned Instructions) {
  Function F = makeBlock(Instructions);
  MachineModel M = MachineModel::rs6000(12);
  preScheduleFunction(F, M);
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, M);
  Allocation A = pinterColor(PIG, computeSpillCosts(F, W), 12);
  std::set<Reg> NoSpillRegs;
  insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
  return F;
}

void BM_DependenceGraph(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  for (auto _ : State) {
    DependenceGraph G(F, 0, M);
    benchmark::DoNotOptimize(G.size());
  }
}
BENCHMARK(BM_DependenceGraph)
    ->Arg(32)->Arg(128)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_DependenceGraphAllocated(benchmark::State &State) {
  // Spill-everywhere code, where most instructions are memory ops on one
  // array: the shape the Theorem 1 false-dependence check rebuilds Gs on.
  Function F = allocFirstBlock(static_cast<unsigned>(State.range(0))).Final;
  MachineModel M = MachineModel::rs6000(12);
  for (auto _ : State) {
    DependenceGraph G(F, 0, M);
    benchmark::DoNotOptimize(G.size());
  }
}
BENCHMARK(BM_DependenceGraphAllocated)->Arg(256)->Arg(1024);

void BM_FalseDepCheck(benchmark::State &State) {
  // The Theorem 1 check as every compile ends with it: both entry points
  // on the alloc-first output, against its symbolic twin.
  PipelineResult R = allocFirstBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(12);
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        findFalseDependences(R.SymbolicTwin, R.Final, M).size());
    benchmark::DoNotOptimize(
        countAntiOrderingLosses(R.SymbolicTwin, R.Final, M));
  }
}
BENCHMARK(BM_FalseDepCheck)->Arg(256)->Arg(1024);

void BM_TransitiveClosure(benchmark::State &State) {
  // The production path: one sweep from the last instruction to the
  // first, each row absorbing its successors' finished rows. Compare
  // with BM_TransitiveClosureUnreduced at equal args for the
  // Warshall-over-sweep speedup the CI perf gate tracks.
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  DependenceGraph G(F, 0, M);
  for (auto _ : State) {
    BitMatrix R = G.reachability();
    benchmark::DoNotOptimize(R.count());
  }
}
BENCHMARK(BM_TransitiveClosure)
    ->Arg(32)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_TransitiveClosureUnreduced(benchmark::State &State) {
  // Word-parallel Warshall straight over the adjacency matrix, kept as
  // the ratio denominator for the closure_reduction_speedup gate. The
  // matrix is built from edges() once; each iteration copies it and
  // closes the copy.
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  DependenceGraph G(F, 0, M);
  BitMatrix Edges(G.size());
  for (const DepEdge &E : G.edges())
    Edges.set(E.From, E.To);
  for (auto _ : State) {
    BitMatrix R = Edges;
    R.transitiveClosure();
    benchmark::DoNotOptimize(R.count());
  }
}
BENCHMARK(BM_TransitiveClosureUnreduced)
    ->Arg(32)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_TransitiveClosureSetBased(benchmark::State &State) {
  // The pre-rewrite per-node std::set closure, kept as the differential
  // oracle of the closure tests; timed against BM_TransitiveClosure at
  // the same sizes to pin the packed-bitset speedup in
  // BENCH_perf_algorithms.json.
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  DependenceGraph G(F, 0, M);
  BitMatrix Edges(G.size());
  for (const DepEdge &E : G.edges())
    Edges.set(E.From, E.To);
  for (auto _ : State) {
    BitMatrix R = setBasedClosure(Edges);
    benchmark::DoNotOptimize(R.count());
  }
}
BENCHMARK(BM_TransitiveClosureSetBased)->Arg(32)->Arg(128)->Arg(256)->Arg(512);

void BM_FalseDependenceGraph(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  for (auto _ : State) {
    FalseDependenceGraph FDG(F, 0, M);
    benchmark::DoNotOptimize(FDG.parallelPairs().numEdges());
  }
}
BENCHMARK(BM_FalseDependenceGraph)->Arg(32)->Arg(128)->Arg(512);

void BM_PigConstruction(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  Webs W(F);
  InterferenceGraph IG(F, W);
  for (auto _ : State) {
    ParallelInterferenceGraph PIG(F, W, IG, M);
    benchmark::DoNotOptimize(PIG.numWebs());
  }
}
BENCHMARK(BM_PigConstruction)->Arg(32)->Arg(128)->Arg(512)->Arg(1024);

void BM_PigConstructionSpilled(benchmark::State &State) {
  // The PIG of post-spill code, as a combined compile's later rounds
  // build it: many more webs, most of them short reload temporaries.
  Function F = makeSpilledBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(12);
  Webs W(F);
  InterferenceGraph IG(F, W);
  for (auto _ : State) {
    ParallelInterferenceGraph PIG(F, W, IG, M);
    benchmark::DoNotOptimize(PIG.numWebs());
  }
}
BENCHMARK(BM_PigConstructionSpilled)->Arg(256)->Arg(1024);

void BM_ChaitinColor(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  Webs W(F);
  InterferenceGraph IG(F, W);
  std::vector<double> Costs = computeSpillCosts(F, W);
  for (auto _ : State) {
    Allocation A = chaitinColor(IG.graph(), Costs, 16);
    benchmark::DoNotOptimize(A.NumColorsUsed);
  }
}
BENCHMARK(BM_ChaitinColor)
    ->Arg(32)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_InterferenceGraph(benchmark::State &State) {
  // Round 1's shape: every value still in a register, so the live sets
  // are wide and the graph dense.
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  Webs W(F);
  for (auto _ : State) {
    InterferenceGraph IG(F, W);
    benchmark::DoNotOptimize(IG.graph().numEdges());
  }
}
BENCHMARK(BM_InterferenceGraph)->Arg(256)->Arg(1024);

void BM_InterferenceGraphSpilled(benchmark::State &State) {
  // Rounds 2 and 3's shape: the symbolic code of an alloc-first compile
  // after spill-everywhere, about three times the input, with thousands
  // of short-lived reload webs and a live set of a dozen.
  Function F =
      allocFirstBlock(static_cast<unsigned>(State.range(0))).SymbolicTwin;
  Webs W(F);
  for (auto _ : State) {
    InterferenceGraph IG(F, W);
    benchmark::DoNotOptimize(IG.graph().numEdges());
  }
}
BENCHMARK(BM_InterferenceGraphSpilled)->Arg(256)->Arg(1024);

void BM_PinterColor(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(16);
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, M);
  std::vector<double> Costs = computeSpillCosts(F, W);
  for (auto _ : State) {
    Allocation A = pinterColor(PIG, Costs, 16);
    benchmark::DoNotOptimize(A.NumColorsUsed);
  }
}
BENCHMARK(BM_PinterColor)
    ->Arg(32)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_PinterColorSpilled(benchmark::State &State) {
  // Section 4 on the PIG of post-spill code at r = 12, as a combined
  // compile's later rounds color it: sparse interference under a dense
  // parallel family, most of which step 3 gives away.
  Function F = makeSpilledBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(12);
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, M);
  std::vector<double> Costs = computeSpillCosts(F, W);
  for (auto _ : State) {
    Allocation A = pinterColor(PIG, Costs, 12);
    benchmark::DoNotOptimize(A.ParallelEdgesDropped);
  }
}
BENCHMARK(BM_PinterColorSpilled)->Arg(256)->Arg(1024);

void BM_ListScheduler(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  for (auto _ : State) {
    FunctionSchedule S = scheduleFunction(F, M);
    benchmark::DoNotOptimize(S.totalMakespan());
  }
}
BENCHMARK(BM_ListScheduler)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

void BM_ListSchedulerAllocated(benchmark::State &State) {
  // scheduleFunction on the final code of alloc-first, as every phased
  // strategy's last step runs it.
  Function F = allocFirstBlock(static_cast<unsigned>(State.range(0))).Final;
  MachineModel M = MachineModel::rs6000(12);
  for (auto _ : State) {
    FunctionSchedule S = scheduleFunction(F, M);
    benchmark::DoNotOptimize(S.totalMakespan());
  }
}
BENCHMARK(BM_ListSchedulerAllocated)->Arg(256)->Arg(1024);

void BM_PreSchedule(benchmark::State &State) {
  // Section 4's EP pre-ordering of the symbolic input, on a fresh copy
  // each iteration (the copy is timed too; it is a small share).
  Function Input = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(12);
  for (auto _ : State) {
    Function F = Input;
    benchmark::DoNotOptimize(preScheduleFunction(F, M));
  }
}
BENCHMARK(BM_PreSchedule)->Arg(256)->Arg(1024);

void BM_Ips(benchmark::State &State) {
  // The Goodman-Hsu prepass of the symbolic input, as goodman-hsu-ips
  // runs it, on a fresh copy each iteration (the copy is timed too; it is
  // a small share).
  Function Input = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(12);
  for (auto _ : State) {
    Function F = Input;
    IpsStats S = integratedPrepassSchedule(F, M, M.numPhysRegs());
    benchmark::DoNotOptimize(S.CsrDecisions);
  }
}
BENCHMARK(BM_Ips)->Arg(256)->Arg(1024);

void BM_CombinedPipeline(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(12);
  for (auto _ : State) {
    PipelineResult R = runStrategy(StrategyKind::Combined, F, M);
    benchmark::DoNotOptimize(R.StaticCycles);
  }
}
BENCHMARK(BM_CombinedPipeline)
    ->Arg(32)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

/// One simulation of \p R's final code under its schedule: the work
/// runAndMeasure's dynamic cycle count pays for.
void simulateOnce(const PipelineResult &R, const MachineModel &M,
                  const ExecState &Initial) {
  SimResult Sim = simulate(R.Final, R.Sched, M, Initial);
  benchmark::DoNotOptimize(Sim.Cycles);
}

void BM_Simulate(benchmark::State &State) {
  // The store loop a[i] = i over State.range(0) slots, alloc-first on
  // rs6000(8): one block entry and one stored slot per iteration.
  MachineModel M = MachineModel::rs6000(8);
  PipelineResult R = runStrategy(
      StrategyKind::AllocFirst,
      storeLoop(static_cast<unsigned>(State.range(0))), M);
  ExecState Initial =
      makeInitialState(R.Final, pira::bench::benchSeed(4242));
  for (auto _ : State)
    simulateOnce(R, M, Initial);
}
BENCHMARK(BM_Simulate)->Arg(1024)->Arg(4096);

void BM_SimulateKernels(benchmark::State &State) {
  // The 16 kernels, combined on rs6000(6): small loop functions, the
  // simulations kernel-suite measures.
  MachineModel M = MachineModel::rs6000(6);
  std::vector<std::pair<PipelineResult, ExecState>> Compiled;
  for (const auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult R = runStrategy(StrategyKind::Combined, Kernel, M);
    ExecState Initial =
        makeInitialState(R.Final, pira::bench::benchSeed(4242));
    Compiled.emplace_back(std::move(R), std::move(Initial));
  }
  for (auto _ : State)
    for (const auto &[R, Initial] : Compiled)
      simulateOnce(R, M, Initial);
}
BENCHMARK(BM_SimulateKernels);

void BM_Oracle(benchmark::State &State) {
  // The exact branch-and-bound search on a tournament-corpus block.
  // Guarded to the small single blocks inside the oracle's envelope —
  // search cost is exponential in principle, so this stays out of the
  // CI perf gate (wildly machine-sensitive) and exists to track the
  // pruning machinery's trajectory offline.
  TournamentOptions TOpts;
  std::vector<BatchItem> Corpus = makeTournamentCorpus(
      1, static_cast<unsigned>(State.range(0)), pira::bench::benchSeed(4242),
      TOpts);
  MachineModel M = MachineModel::paperTwoUnit(8);
  for (auto _ : State) {
    PipelineResult R = runStrategy(StrategyKind::Oracle, Corpus[0].Input, M);
    benchmark::DoNotOptimize(R.StaticCycles);
  }
}
BENCHMARK(BM_Oracle)->Arg(8)->Arg(12)->Arg(16);

void BM_CompileBatch(benchmark::State &State) {
  // 24 functions through the combined pipeline, sharded across
  // State.range(0) workers. Serial-vs-parallel wall clock for the batch
  // driver; on a single-core host all arms degenerate to the Jobs=1 time
  // (the determinism guarantee makes the outputs identical either way).
  std::vector<BatchItem> Batch;
  for (unsigned I = 0; I != 24; ++I) {
    RandomProgramOptions Opts;
    Opts.InstructionsPerBlock = 40;
    Opts.FloatPercent = 40;
    Opts.MemoryPercent = 25;
    Opts.Seed = pira::bench::benchSeed(4242) + I;
    Batch.push_back({"f" + std::to_string(I), generateRandomProgram(Opts)});
  }
  MachineModel M = MachineModel::rs6000(12);
  BatchOptions Opts;
  Opts.Jobs = static_cast<unsigned>(State.range(0));
  Opts.Measure = false;
  for (auto _ : State) {
    BatchResult R = compileBatch(Batch, M, Opts);
    benchmark::DoNotOptimize(R.Succeeded);
  }
}
BENCHMARK(BM_CompileBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Forwards to the console reporter while collecting every run into a
/// "pira.bench" JSON document written at exit.
class JsonTeeReporter : public benchmark::ConsoleReporter {
public:
  JsonTeeReporter()
      : Report(pira::bench::makeBenchReport(
            "perf_algorithms", pira::bench::benchIterations(0),
            pira::bench::benchSeed(4242))),
        Results(pira::json::Value::array()) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      pira::json::Value Row = pira::json::Value::object();
      Row.set("name", R.benchmark_name());
      Row.set("iterations", static_cast<int64_t>(R.iterations));
      Row.set("real_time_ns", R.GetAdjustedRealTime());
      Row.set("cpu_time_ns", R.GetAdjustedCPUTime());
      if (R.error_occurred)
        Row.set("error", R.error_message);
      Results.push(std::move(Row));
    }
    ConsoleReporter::ReportRuns(Runs);
  }

  void Finalize() override {
    Report.set("results", std::move(Results));
    pira::bench::writeBenchReport("perf_algorithms", Report);
    ConsoleReporter::Finalize();
  }

private:
  pira::json::Value Report;
  pira::json::Value Results;
};

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  JsonTeeReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  return 0;
}
