#!/usr/bin/env python3
"""Perf-regression gate over "pira.bench" reports.

Compares a fresh BENCH_perf_algorithms.json against a committed baseline
and fails (exit 1) when a gated metric regresses by more than the
threshold. The primary gates are *ratios between benchmarks from the
same run* — the set-based-closure / bitset-closure speedup and the
Warshall / one-sweep closure speedup — because a ratio divides out the
machine: a slow CI runner slows both numerator and denominator, while a
real regression (say the bitset closure losing its word-parallel inner
loop) collapses the ratio no matter the host.

Scaling gates divide one benchmark's time at a large block size by its
time at a smaller one. Lower is better: the ratio exposes the growth
order of a layer (4x the size at quadratic cost reads 16), so an
accidentally cubic coloring or pipeline fails them on any host.

Layer gates divide one layer's time by another's on the same input.
Lower is better too: the Theorem 1 check builds two schedule graphs per
block, so timing it in schedule-graph builds separates a check that
does no N^2 work from one that closes the graph, which a size ratio
cannot (both are bounded by their Gs builds). Likewise Chaitin's
coloring is Section 4's with no parallel family, so timing it in
Section 4 colorings of the same block separates the worklist engine
from a rescanning loop, which a size ratio cannot (round 1's dense
graphs make both quadratic). One layer gate instead divides one layer
by itself on two inputs: the interference build on the spill-everywhere
code of an alloc-first compile by the build on its input. A build that
scans the whole live bit row at every def pays for the spilled code's
five times as many webs; one that walks the live webs as a list pays
for its edges, and the spilled code has a tenth as many.

Absolute wall-clock gates (--absolute) are also available for
same-machine comparisons, e.g. a developer re-running the suite before
and after a change on one box.

A report may hold several rows of one benchmark, as a run with
--benchmark_repetitions=N writes them; each benchmark then reads the
median of its rows, so one preempted repetition cannot fail a gate.
google-benchmark's own summary rows of such a run (names ending in
_mean, _median, _stddev or _cv) are ignored.

Exit codes: 0 all gates pass, 1 regression, 2 usage / unreadable or
mismatched inputs.
"""

import argparse
import json
import statistics
import sys

# Name suffixes of google-benchmark's summary rows over repetitions.
AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv")

# (label, numerator benchmark, denominator benchmark). Higher is better
# for both: the numerator is the slow reference, the denominator the
# optimised path. closure_reduction_speedup_1024 reads Warshall ÷ sweep:
# word-parallel Warshall over the edge matrix against the production
# one-sweep closure.
RATIO_GATES = [
    ("closure_speedup_256",
     "BM_TransitiveClosureSetBased/256", "BM_TransitiveClosure/256"),
    ("closure_reduction_speedup_1024",
     "BM_TransitiveClosureUnreduced/1024", "BM_TransitiveClosure/1024"),
]

# Hard floors on the *fresh* ratio itself, enforced in addition to the
# baseline-relative threshold. These encode standing acceptance criteria
# (the one-sweep closure must keep beating plain Warshall by 2x at
# 1k-instruction blocks) so a slowly drifting committed baseline cannot
# ratchet a requirement away.
RATIO_FLOORS = {
    "closure_reduction_speedup_1024": 2.0,
}

# (label, larger-size benchmark, smaller-size benchmark). Lower is
# better: the fresh ratio must stay within the threshold above the
# baseline's and under its hard ceiling in CEILINGS.
SCALING_GATES = [
    ("pinter_color_scaling",
     "BM_PinterColor/1024", "BM_PinterColor/256"),
    ("combined_scaling",
     "BM_CombinedPipeline/512", "BM_CombinedPipeline/128"),
    ("combined_scaling_1024",
     "BM_CombinedPipeline/1024", "BM_CombinedPipeline/256"),
    ("pig_spilled_scaling",
     "BM_PigConstructionSpilled/1024", "BM_PigConstructionSpilled/256"),
    ("pinter_color_spilled_scaling",
     "BM_PinterColorSpilled/1024", "BM_PinterColorSpilled/256"),
    ("depgraph_scaling",
     "BM_DependenceGraph/4096", "BM_DependenceGraph/1024"),
    ("depgraph_allocated_scaling",
     "BM_DependenceGraphAllocated/1024", "BM_DependenceGraphAllocated/256"),
    ("list_scheduler_allocated_scaling",
     "BM_ListSchedulerAllocated/1024", "BM_ListSchedulerAllocated/256"),
    ("preschedule_scaling",
     "BM_PreSchedule/1024", "BM_PreSchedule/256"),
    ("ips_scaling",
     "BM_Ips/1024", "BM_Ips/256"),
    ("simulate_scaling",
     "BM_Simulate/4096", "BM_Simulate/1024"),
]

# (label, layer benchmark, reference-layer benchmark on the same code).
# Lower is better, gated like the scaling gates. The Theorem 1 check is
# timed in schedule-graph builds; Chaitin's coloring, which is Section 4
# with no parallel family, in Section 4 colorings of the same block. The
# interference build on spilled code (about five times the webs, a dozen
# live at a time) is timed in builds on round 1's dense input: walking
# the live webs as a list reads about a fifth there, scanning the live
# bit row at every def about half.
LAYER_GATES = [
    ("false_dep_check_over_depgraph",
     "BM_FalseDepCheck/1024", "BM_DependenceGraphAllocated/1024"),
    ("chaitin_over_pinter_color_1024",
     "BM_ChaitinColor/1024", "BM_PinterColor/1024"),
    ("interference_spilled_over_dense_1024",
     "BM_InterferenceGraphSpilled/1024", "BM_InterferenceGraph/1024"),
]

# Hard ceilings on the fresh scaling and layer ratios, the counterpart of
# RATIO_FLOORS. Per 4x of block size a linear layer reads about 4, a
# quadratic one about 16 and a cubic one about 64; each ceiling keeps at
# least 25% headroom over the measured runs (EXPERIMENTS.md P1e–P1l).
# Symbolic Gs cannot read 4: its memory edges grow quadratically with
# the block (one 32-element array). simulate_scaling grows the store
# loop's slots, not a block: a simulator that costs what it retires
# reads about 4, one that rescans every slot ever stored at each block
# entry about 14. pinter_color_spilled_scaling times Section 4 on
# post-spill code, whose parallel family is dense and mostly given away
# by step 3: a coloring that counts groups reads 7.3-8.2 there, one that
# walks every parallel edge at removal and select 14.5-15.9 (EXPERIMENTS.md
# P1n), so the ceiling sits under the second and 46% over the first.
CEILINGS = {
    "pinter_color_scaling": 24.0,
    "combined_scaling": 33.0,
    "combined_scaling_1024": 17.0,
    "pig_spilled_scaling": 16.5,
    "pinter_color_spilled_scaling": 12.0,
    "depgraph_scaling": 11.5,
    "depgraph_allocated_scaling": 8.5,
    "list_scheduler_allocated_scaling": 8.5,
    "preschedule_scaling": 20.0,
    "false_dep_check_over_depgraph": 18.0,
    "ips_scaling": 7.0,
    "simulate_scaling": 6.0,
    "chaitin_over_pinter_color_1024": 0.90,
    "interference_spilled_over_dense_1024": 0.35,
}


def fail_usage(msg):
    print("perf_gate: error: " + msg, file=sys.stderr)
    sys.exit(2)


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail_usage("cannot read %s: %s" % (path, e))
    if doc.get("schema") != "pira.bench":
        fail_usage("%s is not a pira.bench report" % path)
    samples = {}
    for row in doc.get("results", []):
        if "error" in row or row.get("name", "").endswith(AGGREGATE_SUFFIXES):
            continue
        try:
            value = float(row["real_time_ns"])
        except (KeyError, TypeError, ValueError):
            fail_usage("%s: result %r has no numeric real_time_ns"
                       % (path, row.get("name", "?")))
        if not value > 0.0:
            # A zero or negative time would silently pass (or divide by
            # zero in) every ratio gate downstream; it can only mean a
            # broken producer, so refuse the report outright.
            fail_usage("%s: benchmark %r reports non-positive time %r"
                       % (path, row.get("name", "?"), value))
        samples.setdefault(row["name"], []).append(value)
    times = {name: statistics.median(values)
             for name, values in samples.items()}
    if not times:
        fail_usage("%s has no usable benchmark results" % path)
    return doc, times


def check_provenance(base_doc, fresh_doc):
    """Refuse cross-build-type comparisons: Debug-vs-Release deltas are
    build-flag artifacts, not regressions. Git SHAs are expected to
    differ and are only reported."""
    base = base_doc.get("provenance", {})
    fresh = fresh_doc.get("provenance", {})
    problems = []
    for key in ("build_type", "ndebug"):
        if key in base and key in fresh and base[key] != fresh[key]:
            problems.append("%s: baseline=%r fresh=%r"
                            % (key, base[key], fresh[key]))
    return problems


def main():
    ap = argparse.ArgumentParser(
        description="Gate fresh pira.bench results against a baseline.")
    ap.add_argument("baseline", help="committed baseline BENCH_*.json")
    ap.add_argument("fresh", help="freshly produced BENCH_*.json")
    ap.add_argument("--threshold-pct", type=float, default=25.0,
                    help="allowed regression in percent (default 25)")
    ap.add_argument("--absolute", action="store_true",
                    help="also gate absolute real_time_ns of every "
                         "benchmark present in both reports (only "
                         "meaningful on the same machine)")
    ap.add_argument("--no-provenance-check", action="store_true",
                    help="compare even across build types")
    args = ap.parse_args()
    if not 0 <= args.threshold_pct < 100:
        fail_usage("--threshold-pct must be in [0, 100)")

    base_doc, base_times = load_report(args.baseline)
    fresh_doc, fresh_times = load_report(args.fresh)

    mismatches = check_provenance(base_doc, fresh_doc)
    if mismatches and not args.no_provenance_check:
        fail_usage("build provenance mismatch (pass --no-provenance-check "
                   "to override): " + "; ".join(mismatches))

    base_sha = base_doc.get("provenance", {}).get("git_sha", "?")
    fresh_sha = fresh_doc.get("provenance", {}).get("git_sha", "?")
    print("perf_gate: baseline git %s vs fresh git %s, threshold %.0f%%"
          % (base_sha, fresh_sha, args.threshold_pct))

    slack = args.threshold_pct / 100.0
    rows = []
    failed = []

    def record(label, base_val, fresh_val, floor, ok):
        rows.append((label, base_val, fresh_val, floor, ok))
        if not ok:
            failed.append(label)

    def ratios(label, num, den):
        missing = [n for n in (num, den)
                   if n not in base_times or n not in fresh_times]
        if missing:
            fail_usage("gate %s: benchmark(s) %s missing from a report"
                       % (label, ", ".join(missing)))
        return (base_times[num] / base_times[den],
                fresh_times[num] / fresh_times[den])

    for label, num, den in RATIO_GATES:
        base_ratio, fresh_ratio = ratios(label, num, den)
        floor = max(base_ratio * (1.0 - slack),
                    RATIO_FLOORS.get(label, 0.0))
        record(label, base_ratio, fresh_ratio, floor,
               fresh_ratio >= floor)

    for label, num, den in SCALING_GATES + LAYER_GATES:
        base_ratio, fresh_ratio = ratios(label, num, den)
        ceil = min(base_ratio * (1.0 + slack), CEILINGS[label])
        record(label, base_ratio, fresh_ratio, ceil, fresh_ratio <= ceil)

    if args.absolute:
        for name in sorted(set(base_times) & set(fresh_times)):
            ceil = base_times[name] * (1.0 + slack)
            record(name + " ns", base_times[name], fresh_times[name],
                   ceil, fresh_times[name] <= ceil)

    if not rows:
        fail_usage("no gates were evaluated (empty benchmark set)")
    width = max(len(r[0]) for r in rows)
    print("  %-*s  %12s  %12s  %12s  %s"
          % (width, "gate", "baseline", "fresh", "limit", "status"))
    for label, base_val, fresh_val, limit, ok in rows:
        print("  %-*s  %12.3f  %12.3f  %12.3f  %s"
              % (width, label, base_val, fresh_val, limit,
                 "ok" if ok else "REGRESSED"))

    if failed:
        print("perf_gate: FAIL: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    print("perf_gate: all %d gates pass" % len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
