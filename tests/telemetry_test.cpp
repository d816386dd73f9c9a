//===- tests/telemetry_test.cpp - Telemetry subsystem tests ---------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Covers the observability layer end to end: nested scope timing and
// path formation, counter registration and reset, Chrome trace-event
// export (valid JSON, complete events), the JSON library round trip,
// and the versioned stats report built from a real pipeline run.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "JsonParser.h"
#include "ir/IRBuilder.h"
#include "machine/MachineModel.h"
#include "pipeline/Report.h"
#include "pipeline/Strategies.h"
#include "support/Json.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>

using namespace pira;

namespace {

/// Every telemetry test runs against a clean, enabled registry and
/// restores the disabled default afterwards so ordering between test
/// suites cannot leak state.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    telemetry::reset();
    telemetry::setEnabled(true);
  }
  void TearDown() override {
    telemetry::setEnabled(false);
    telemetry::reset();
  }
};

PIRA_STAT(TestCounterA, "test-only counter A");
PIRA_STAT(TestCounterB, "test-only counter B");
PIRA_HIST(TestHistA, "test-only latency histogram A");

TEST_F(TelemetryTest, NestedScopesProduceHierarchicalPaths) {
  {
    PIRA_TIME_SCOPE("outer");
    {
      PIRA_TIME_SCOPE("middle/part");
      { PIRA_TIME_SCOPE("inner"); }
    }
    { PIRA_TIME_SCOPE("sibling"); }
  }
  std::vector<telemetry::TimedEvent> Events = telemetry::events();
  ASSERT_EQ(Events.size(), 4u);
  // Scopes record on exit, so innermost-first.
  EXPECT_EQ(Events[0].Path, "outer/middle/part/inner");
  EXPECT_EQ(Events[1].Path, "outer/middle/part");
  EXPECT_EQ(Events[2].Path, "outer/sibling");
  EXPECT_EQ(Events[3].Path, "outer");
  EXPECT_EQ(Events[0].Depth, 2u);
  EXPECT_EQ(Events[3].Depth, 0u);
  EXPECT_EQ(Events[0].Label, "inner");
  // A nested scope cannot run longer than its parent.
  EXPECT_LE(Events[0].DurationNs, Events[3].DurationNs);
}

TEST_F(TelemetryTest, ScopesRecordNothingWhenDisabled) {
  telemetry::setEnabled(false);
  { PIRA_TIME_SCOPE("ghost"); }
  EXPECT_TRUE(telemetry::events().empty());
  // Re-enabling starts from a clean thread stack: no stale prefix.
  telemetry::setEnabled(true);
  { PIRA_TIME_SCOPE("alone"); }
  std::vector<telemetry::TimedEvent> Events = telemetry::events();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Path, "alone");
}

TEST_F(TelemetryTest, CountersRegisterBumpAndReset) {
  const std::vector<telemetry::Counter *> &All = telemetry::counters();
  auto FindByName = [&](const char *Name) -> telemetry::Counter * {
    auto It = std::find_if(All.begin(), All.end(),
                           [&](const telemetry::Counter *C) {
                             return std::string(C->name()) == Name;
                           });
    return It == All.end() ? nullptr : *It;
  };
  ASSERT_NE(FindByName("TestCounterA"), nullptr);
  ASSERT_NE(FindByName("TestCounterB"), nullptr);

  ++TestCounterA;
  TestCounterA += 4;
  TestCounterB.updateMax(7);
  TestCounterB.updateMax(3); // lower: no effect
  EXPECT_EQ(TestCounterA.value(), 5u);
  EXPECT_EQ(TestCounterB.value(), 7u);

  telemetry::reset();
  EXPECT_EQ(TestCounterA.value(), 0u);
  EXPECT_EQ(TestCounterB.value(), 0u);
  // The registry survives a reset; only values are cleared.
  EXPECT_NE(FindByName("TestCounterA"), nullptr);
}

TEST_F(TelemetryTest, CountersAreThreadSafe) {
  constexpr unsigned PerThread = 10000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([] {
      for (unsigned I = 0; I != PerThread; ++I)
        ++TestCounterA;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(TestCounterA.value(), 4u * PerThread);
}

TEST_F(TelemetryTest, TimerAggregatesGroupByPath) {
  for (int I = 0; I != 3; ++I) {
    PIRA_TIME_SCOPE("agg/outer");
    PIRA_TIME_SCOPE("agg/inner");
  }
  std::vector<telemetry::TimerAggregate> Aggs = telemetry::timerAggregates();
  ASSERT_EQ(Aggs.size(), 2u);
  for (const telemetry::TimerAggregate &A : Aggs)
    EXPECT_EQ(A.Calls, 3u);
  // Descending by total time: the outer scope contains the inner one.
  EXPECT_EQ(Aggs[0].Path, "agg/outer");
  EXPECT_EQ(Aggs[1].Path, "agg/outer/agg/inner");
}

TEST_F(TelemetryTest, ChromeTraceIsValidJsonWithCompleteEvents) {
  {
    PIRA_TIME_SCOPE("phase/a");
    { PIRA_TIME_SCOPE("phase/b"); }
  }
  std::ostringstream OS;
  telemetry::writeChromeTrace(OS);

  json::Value Root;
  std::string Error;
  ASSERT_TRUE(json::parse(OS.str(), Root, Error)) << Error;
  const json::Value *Trace = Root.find("traceEvents");
  ASSERT_NE(Trace, nullptr);
  ASSERT_TRUE(Trace->isArray());
  // One process-name and one thread-name metadata event precede the two
  // complete events: every span came from this process's main thread.
  std::vector<const json::Value *> Meta, Spans;
  for (const json::Value &Ev : Trace->elements()) {
    ASSERT_TRUE(Ev.find("ph") != nullptr);
    if (Ev.find("ph")->asString() == "M")
      Meta.push_back(&Ev);
    else
      Spans.push_back(&Ev);
  }
  ASSERT_EQ(Meta.size(), 2u);
  EXPECT_EQ(Meta[0]->find("name")->asString(), "process_name");
  EXPECT_EQ(Meta[0]->find("args")->find("name")->asString(), "pirac");
  EXPECT_EQ(Meta[1]->find("name")->asString(), "thread_name");
  EXPECT_EQ(Meta[1]->find("args")->find("name")->asString(), "main");

  ASSERT_EQ(Spans.size(), 2u);
  for (const json::Value *EvP : Spans) {
    const json::Value &Ev = *EvP;
    // Complete ("X") events carry their duration inline, so every event
    // is trivially matched — no dangling B without E.
    EXPECT_EQ(Ev.find("ph")->asString(), "X");
    EXPECT_TRUE(Ev.has("name"));
    EXPECT_TRUE(Ev.has("ts"));
    EXPECT_TRUE(Ev.has("dur"));
    // Spans carry the real process id, not a placeholder.
    ASSERT_TRUE(Ev.has("pid"));
    EXPECT_EQ(Ev.find("pid")->asInt(),
              static_cast<int64_t>(telemetry::processId()));
    EXPECT_TRUE(Ev.has("tid"));
    ASSERT_NE(Ev.find("args"), nullptr);
    EXPECT_TRUE(Ev.find("args")->has("path"));
  }
  // Nesting is visible in the args.path of the inner event.
  EXPECT_EQ(Spans[0]->find("args")->find("path")->asString(),
            "phase/a/phase/b");
}

//===----------------------------------------------------------------------===//
// Histograms
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, HistogramBucketBoundaries) {
  using H = telemetry::Histogram;
  // Bucket 0 holds exactly {0}; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(H::bucketFor(0), 0u);
  EXPECT_EQ(H::bucketFor(1), 1u);
  EXPECT_EQ(H::bucketFor(2), 2u);
  EXPECT_EQ(H::bucketFor(3), 2u);
  EXPECT_EQ(H::bucketFor(4), 3u);
  EXPECT_EQ(H::bucketFor(1023), 10u);
  EXPECT_EQ(H::bucketFor(1024), 11u);
  // The top bucket absorbs everything that would overflow the range.
  EXPECT_EQ(H::bucketFor(UINT64_MAX), 63u);
  // Upper bounds are inclusive and consistent with bucketFor: a value at
  // a bucket's bound maps into that bucket, one past it does not.
  EXPECT_EQ(H::bucketUpperBound(0), 0u);
  EXPECT_EQ(H::bucketUpperBound(1), 1u);
  EXPECT_EQ(H::bucketUpperBound(2), 3u);
  EXPECT_EQ(H::bucketUpperBound(11), 2047u);
  EXPECT_EQ(H::bucketUpperBound(63), UINT64_MAX);
  for (unsigned I = 0; I != 20; ++I) {
    EXPECT_EQ(H::bucketFor(H::bucketUpperBound(I)), I) << I;
    EXPECT_EQ(H::bucketFor(H::bucketUpperBound(I) + 1), I + 1) << I;
  }
}

TEST_F(TelemetryTest, HistogramRecordAndPercentiles) {
  // Histograms record regardless of the trace flag, like counters.
  telemetry::setEnabled(false);
  for (uint64_t V : {0u, 1u, 5u, 5u, 100u, 1000u, 1000000u})
    TestHistA.record(V);
  EXPECT_EQ(TestHistA.count(), 7u);
  EXPECT_EQ(TestHistA.sum(), 1001111u);
  EXPECT_EQ(TestHistA.max(), 1000000u);
  EXPECT_EQ(TestHistA.bucketCount(0), 1u); // the 0
  EXPECT_EQ(TestHistA.bucketCount(3), 2u); // the 5s in [4,8)
  // Percentiles report the bucket's inclusive upper bound.
  EXPECT_EQ(TestHistA.percentileUpperBound(50.0),
            telemetry::Histogram::bucketUpperBound(
                telemetry::Histogram::bucketFor(5)));
  EXPECT_EQ(TestHistA.percentileUpperBound(100.0),
            telemetry::Histogram::bucketUpperBound(
                telemetry::Histogram::bucketFor(1000000)));
  // Registered once, cleared by reset.
  const std::vector<telemetry::Histogram *> &All = telemetry::histograms();
  ASSERT_EQ(std::count(All.begin(), All.end(), &TestHistA), 1);
  telemetry::reset();
  EXPECT_EQ(TestHistA.count(), 0u);
  EXPECT_EQ(TestHistA.sum(), 0u);
  EXPECT_EQ(TestHistA.max(), 0u);
}

TEST_F(TelemetryTest, EmptyHistogramPercentilesAreZeroAndOmittedFromReports) {
  // An empty histogram answers 0 for every percentile. The failure mode
  // this pins down: a rank walk that never reaches its target falls off
  // the end and reports the last bucket's upper bound — UINT64_MAX
  // masquerading as a latency for a histogram that recorded nothing.
  ASSERT_EQ(TestHistA.count(), 0u);
  for (double P : {1.0, 50.0, 90.0, 99.0, 100.0})
    EXPECT_EQ(TestHistA.percentileUpperBound(P), 0u) << "P" << P;

  // The pira.stats v5 histogram block keeps count (as 0) but omits the
  // percentile keys entirely rather than inventing values a dashboard
  // would average in.
  json::Value Hists = histogramsToJson();
  const json::Value *HV = Hists.find("TestHistA");
  ASSERT_NE(HV, nullptr);
  EXPECT_EQ(HV->find("count")->asInt(), 0);
  for (const char *Key : {"p50_ns", "p90_ns", "p99_ns"})
    EXPECT_FALSE(HV->has(Key)) << "unexpected " << Key;

  // One observation restores the full shape.
  TestHistA.record(7);
  Hists = histogramsToJson();
  HV = Hists.find("TestHistA");
  ASSERT_NE(HV, nullptr);
  for (const char *Key : {"p50_ns", "p90_ns", "p99_ns"})
    EXPECT_TRUE(HV->has(Key)) << "missing " << Key;
  EXPECT_EQ(HV->find("p99_ns")->asInt(), 7);
}

TEST_F(TelemetryTest, StatsReportCarriesProvenanceAndHistograms) {
  TestHistA.record(42);
  Function F = dotProduct(4);
  MachineModel M = MachineModel::rs6000(8);
  PipelineResult R = runAndMeasure(StrategyKind::Combined, F, M);
  ASSERT_TRUE(R.Success) << R.Error;
  json::Value Report = makeStatsReport(R, "combined", M);

  const json::Value *Prov = Report.find("provenance");
  ASSERT_NE(Prov, nullptr);
  EXPECT_EQ(Prov->find("tool")->asString(), "pirac");
  EXPECT_EQ(Prov->find("tool_version")->asString(), PiraVersionString);
  for (const char *Key : {"git_sha", "compiler", "build_type", "ndebug"})
    EXPECT_TRUE(Prov->has(Key)) << "missing provenance field " << Key;

  const json::Value *Hists = Report.find("histograms");
  ASSERT_NE(Hists, nullptr);
  const json::Value *HV = Hists->find("TestHistA");
  ASSERT_NE(HV, nullptr);
  EXPECT_EQ(HV->find("count")->asInt(), 1);
  EXPECT_EQ(HV->find("sum_ns")->asInt(), 42);
  for (const char *Key : {"description", "max_ns", "p50_ns", "p90_ns",
                          "p99_ns", "buckets"})
    EXPECT_TRUE(HV->has(Key)) << "missing histogram field " << Key;
}

TEST_F(TelemetryTest, StatsReportRoundTripsThroughParser) {
  Function F = dotProduct(4);
  MachineModel M = MachineModel::rs6000(8);
  PipelineResult R = runAndMeasure(StrategyKind::Combined, F, M);
  ASSERT_TRUE(R.Success) << R.Error;

  json::Value Report = makeStatsReport(R, "combined", M);
  std::string Text = Report.toString();

  json::Value Parsed;
  std::string Error;
  ASSERT_TRUE(json::parse(Text, Parsed, Error)) << Error;

  EXPECT_EQ(Parsed.find("schema")->asString(), StatsSchemaName);
  EXPECT_EQ(Parsed.find("version")->asInt(), StatsSchemaVersion);
  EXPECT_EQ(Parsed.find("strategy")->asString(), "combined");

  // Every PipelineResult field is present and faithful.
  const json::Value *P = Parsed.find("pipeline");
  ASSERT_NE(P, nullptr);
  for (const char *Key :
       {"success", "error", "registers_used", "spilled_webs",
        "spill_instructions", "false_deps", "anti_ordering_losses",
        "parallel_edges_dropped", "static_cycles", "dyn_cycles",
        "dyn_instructions", "semantics_preserved"})
    EXPECT_TRUE(P->has(Key)) << "missing pipeline field " << Key;
  EXPECT_EQ(P->find("dyn_cycles")->asInt(),
            static_cast<int64_t>(R.DynCycles));
  EXPECT_EQ(P->find("registers_used")->asInt(), R.RegistersUsed);
  EXPECT_TRUE(P->find("semantics_preserved")->asBool());

  // The counter registry made it through with >= 10 entries, each
  // carrying a value and a description.
  const json::Value *Counters = Parsed.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_GE(Counters->members().size(), 10u);
  for (const auto &[Name, C] : Counters->members()) {
    EXPECT_TRUE(C.has("value")) << Name;
    EXPECT_TRUE(C.has("description")) << Name;
  }

  // Timers made it through, and the combined run produced the scopes the
  // later perf PRs will regress against.
  const json::Value *Timers = Parsed.find("timers");
  ASSERT_NE(Timers, nullptr);
  bool SawClosure = false, SawColoring = false, SawList = false;
  for (const json::Value &T : Timers->elements()) {
    const std::string &Path = T.find("path")->asString();
    SawClosure |= Path.find("pig/closure") != std::string::npos;
    SawColoring |= Path.find("pig/coloring") != std::string::npos;
    SawList |= Path.find("sched/list") != std::string::npos;
  }
  EXPECT_TRUE(SawClosure);
  EXPECT_TRUE(SawColoring);
  EXPECT_TRUE(SawList);
}

TEST_F(TelemetryTest, OnlyStrategiesThatBuildAPigChargePigTelemetry) {
  // The Theorem 1 check ends every compile but builds no false-dependence
  // graph and no closure, so a strategy with no PIG records none of their
  // timers or counters.
  const char *PigCounters[] = {"NumFdgParallelPairs",
                               "NumFdgMachineConstraintPairs",
                               "NumPigParallelEdges", "NumPigEtPairs",
                               "NumPigLemma3Edges"};
  auto counterValue = [](const std::string &Name) -> uint64_t {
    for (const telemetry::Counter *C : telemetry::counters())
      if (C->name() == Name)
        return C->value();
    ADD_FAILURE() << "no counter " << Name;
    return 0;
  };
  // Both allocators time each round's webs, interference graph and spill
  // costs inside the round, so every round's time is attributed below
  // the allocator.
  const char *RoundLayers[] = {"alloc/webs", "alloc/interference",
                               "alloc/spill-costs"};
  auto sawUnder = [](const std::string &Parent, const std::string &Child) {
    for (const telemetry::TimerAggregate &T : telemetry::timerAggregates()) {
      size_t At = T.Path.find(Parent + "/" + Child);
      if (At != std::string::npos &&
          At + Parent.size() + 1 + Child.size() == T.Path.size())
        return true;
    }
    return false;
  };
  Function F = dotProduct(4);
  MachineModel M = MachineModel::rs6000(8);
  for (StrategyKind Kind : {StrategyKind::AllocFirst, StrategyKind::SchedFirst,
                            StrategyKind::IntegratedPrepass}) {
    telemetry::reset();
    PipelineResult R = runAndMeasure(Kind, F, M);
    ASSERT_TRUE(R.Success) << strategyName(Kind) << ": " << R.Error;
    bool SawCheck = false;
    for (const telemetry::TimerAggregate &T : telemetry::timerAggregates()) {
      EXPECT_EQ(T.Path.find("pig/"), std::string::npos)
          << strategyName(Kind) << ": " << T.Path;
      SawCheck |= T.Path.find("analysis/falsedeps") != std::string::npos;
    }
    EXPECT_TRUE(SawCheck) << strategyName(Kind);
    for (const char *Layer : RoundLayers)
      EXPECT_TRUE(sawUnder("alloc/chaitin/alloc/round", Layer))
          << strategyName(Kind) << " " << Layer;
    for (const char *Name : PigCounters)
      EXPECT_EQ(counterValue(Name), 0u) << strategyName(Kind) << " " << Name;
  }

  telemetry::reset();
  PipelineResult R = runAndMeasure(StrategyKind::Combined, F, M);
  ASSERT_TRUE(R.Success) << R.Error;
  bool SawPigClosure = false;
  for (const telemetry::TimerAggregate &T : telemetry::timerAggregates()) {
    size_t Pinter = T.Path.find("alloc/pinter");
    SawPigClosure |= Pinter != std::string::npos &&
                     T.Path.find("pig/closure", Pinter) != std::string::npos;
  }
  EXPECT_TRUE(SawPigClosure);
  for (const char *Name : PigCounters)
    EXPECT_GT(counterValue(Name), 0u) << Name;
  // The compile path reads the group form; nothing builds the parallel
  // or combined adjacency.
  EXPECT_EQ(counterValue("NumPigMaterializations"), 0u);
  for (const char *Layer : RoundLayers)
    EXPECT_TRUE(sawUnder("alloc/pinter/alloc/round", Layer)) << Layer;
}

TEST_F(TelemetryTest, PipelineFailureReasonsAreNeverSilent) {
  // A function whose only block loops forever: the reference interpreter
  // cannot complete, so runAndMeasure must fail with a populated error.
  Function F("spin");
  IRBuilder B(F);
  unsigned Entry = B.startBlock("entry");
  (void)B.loadImm(1);
  B.br(Entry);

  MachineModel M = MachineModel::rs6000(8);
  PipelineResult R = runAndMeasure(StrategyKind::AllocFirst, F, M);
  EXPECT_FALSE(R.Success);
  EXPECT_FALSE(R.Error.empty());
  // The report serializes that reason.
  json::Value Report = makeStatsReport(R, "alloc-first", M);
  EXPECT_FALSE(Report.find("pipeline")->find("error")->asString().empty());
}

//===----------------------------------------------------------------------===//
// JSON library
//===----------------------------------------------------------------------===//

TEST(JsonTest, WriterEscapesAndParserUnescapes) {
  json::Value V = json::Value::object();
  V.set("text", "line1\nline2\t\"quoted\" \\slash");
  V.set("neg", static_cast<int64_t>(-42));
  V.set("pi", 3.25);
  V.set("flag", true);
  V.set("nothing", nullptr);
  json::Value Arr = json::Value::array();
  Arr.push(1);
  Arr.push("two");
  V.set("arr", std::move(Arr));

  json::Value Back;
  std::string Error;
  ASSERT_TRUE(json::parse(V.toString(), Back, Error)) << Error;
  EXPECT_EQ(Back.find("text")->asString(), "line1\nline2\t\"quoted\" \\slash");
  EXPECT_EQ(Back.find("neg")->asInt(), -42);
  EXPECT_DOUBLE_EQ(Back.find("pi")->asDouble(), 3.25);
  EXPECT_TRUE(Back.find("flag")->asBool());
  EXPECT_TRUE(Back.find("nothing")->isNull());
  ASSERT_EQ(Back.find("arr")->elements().size(), 2u);
  EXPECT_EQ(Back.find("arr")->elements()[1].asString(), "two");
}

TEST(JsonTest, IntegersSurviveExactly) {
  json::Value V = json::Value::object();
  V.set("big", static_cast<uint64_t>(1) << 53);
  json::Value Back;
  std::string Error;
  ASSERT_TRUE(json::parse(V.toString(-1), Back, Error)) << Error;
  EXPECT_TRUE(Back.find("big")->isInt());
  EXPECT_EQ(Back.find("big")->asInt(), static_cast<int64_t>(1) << 53);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  json::Value V;
  std::string Error;
  EXPECT_FALSE(json::parse("{", V, Error));
  EXPECT_FALSE(json::parse("[1,]", V, Error));
  EXPECT_FALSE(json::parse("{\"a\":1} trailing", V, Error));
  EXPECT_FALSE(json::parse("\"unterminated", V, Error));
  EXPECT_FALSE(json::parse("01x", V, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  json::Value V = json::Value::object();
  V.set("zebra", 1);
  V.set("apple", 2);
  V.set("zebra", 3); // replaces in place, keeps position
  EXPECT_EQ(V.members()[0].first, "zebra");
  EXPECT_EQ(V.members()[0].second.asInt(), 3);
  EXPECT_EQ(V.members()[1].first, "apple");
  EXPECT_EQ(V.toString(-1), "{\"zebra\":3,\"apple\":2}");
}

} // namespace
