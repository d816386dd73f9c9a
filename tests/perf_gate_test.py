#!/usr/bin/env python3
"""Pins tools/perf_gate.py's verdicts on synthetic pira.bench reports.

Usage: perf_gate_test.py PATH/TO/perf_gate.py

Cases by exit code: a fresh report equal to the baseline passes (0); a
scaling or layer ratio over its hard ceiling fails (1) even though it is
within the threshold of the baseline's, once for BM_PinterColor and once
for each schedule-layer, PIG-layer, Theorem 1 check, IPS, Chaitin
coloring, interference and simulator gate; a report missing a gated row
is unusable (2). The readings of a Section 4 coloring that walks every
parallel edge fail the spilled coloring's scaling gate (1).

Repeated rows of one benchmark gate on their median: one outlying
repetition of five passes (0), three fail (1). google-benchmark's
summary rows (_mean, _median, _stddev, _cv) are ignored, even a zero
_stddev or an outlying _mean (0).
"""

import json
import os
import subprocess
import sys
import tempfile

# Times in ns, chosen so every gate passes when fresh == baseline.
# pinter_color_scaling is 22 here: its baseline limit is 22 * 1.25 =
# 27.5, so only the hard ceiling (24) can fail a fresh ratio of 25.
BASE_TIMES = {
    "BM_TransitiveClosureSetBased/256": 1500000.0,
    "BM_TransitiveClosure/256": 80000.0,
    "BM_TransitiveClosureUnreduced/1024": 1500000.0,
    "BM_TransitiveClosure/1024": 600000.0,
    "BM_PinterColor/256": 1000000.0,
    "BM_PinterColor/1024": 22000000.0,
    "BM_CombinedPipeline/128": 10000000.0,
    "BM_CombinedPipeline/256": 30000000.0,
    "BM_CombinedPipeline/512": 200000000.0,
    "BM_CombinedPipeline/1024": 420000000.0,
    "BM_PigConstructionSpilled/256": 4000000.0,
    "BM_PigConstructionSpilled/1024": 56000000.0,
    "BM_PinterColorSpilled/256": 1000000.0,
    "BM_PinterColorSpilled/1024": 10000000.0,
    "BM_DependenceGraph/1024": 200000.0,
    "BM_DependenceGraph/4096": 1920000.0,
    "BM_DependenceGraphAllocated/256": 125000.0,
    "BM_DependenceGraphAllocated/1024": 900000.0,
    "BM_ListSchedulerAllocated/256": 350000.0,
    "BM_ListSchedulerAllocated/1024": 2520000.0,
    "BM_PreSchedule/256": 1200000.0,
    "BM_PreSchedule/1024": 20400000.0,
    "BM_FalseDepCheck/1024": 13500000.0,
    "BM_ChaitinColor/1024": 17600000.0,
    "BM_Ips/256": 350000.0,
    "BM_Ips/1024": 2100000.0,
    "BM_InterferenceGraph/1024": 3000000.0,
    "BM_InterferenceGraphSpilled/1024": 900000.0,
    "BM_Simulate/1024": 100000.0,
    "BM_Simulate/4096": 500000.0,
}

# One fresh ratio per schedule-layer, PIG-layer, check, coloring,
# interference and simulator gate, over the gate's hard ceiling but
# within the threshold of the baseline ratio above (9.6, 7.2, 7.2, 17,
# 14, 14, 10, 15, 6.0, 0.8, 0.3 and 5.0, whose limits are 12, 9, 9,
# 21.25, 17.5, 17.5, 12.5, 18.75, 7.5, 1.0, 0.375 and 6.25): (gate
# label, numerator bench, denominator bench, fresh ratio).
OVER_CEILING = [
    ("depgraph_scaling",
     "BM_DependenceGraph/4096", "BM_DependenceGraph/1024", 11.8),
    ("depgraph_allocated_scaling",
     "BM_DependenceGraphAllocated/1024", "BM_DependenceGraphAllocated/256",
     8.8),
    ("list_scheduler_allocated_scaling",
     "BM_ListSchedulerAllocated/1024", "BM_ListSchedulerAllocated/256", 8.8),
    ("preschedule_scaling",
     "BM_PreSchedule/1024", "BM_PreSchedule/256", 21.0),
    ("combined_scaling_1024",
     "BM_CombinedPipeline/1024", "BM_CombinedPipeline/256", 17.2),
    ("pig_spilled_scaling",
     "BM_PigConstructionSpilled/1024", "BM_PigConstructionSpilled/256",
     16.8),
    ("pinter_color_spilled_scaling",
     "BM_PinterColorSpilled/1024", "BM_PinterColorSpilled/256", 12.3),
    ("false_dep_check_over_depgraph",
     "BM_FalseDepCheck/1024", "BM_DependenceGraphAllocated/1024",
     18.4),
    ("ips_scaling", "BM_Ips/1024", "BM_Ips/256", 7.2),
    ("chaitin_over_pinter_color_1024",
     "BM_ChaitinColor/1024", "BM_PinterColor/1024", 0.95),
    ("interference_spilled_over_dense_1024",
     "BM_InterferenceGraphSpilled/1024", "BM_InterferenceGraph/1024", 0.36),
    ("simulate_scaling", "BM_Simulate/4096", "BM_Simulate/1024", 6.2),
]

# (gate label, a benchmark it reads): dropping the row from the fresh
# report makes it unusable.
MISSING_ROW = [
    ("combined_scaling", "BM_CombinedPipeline/512"),
    ("preschedule_scaling", "BM_PreSchedule/1024"),
    ("pig_spilled_scaling", "BM_PigConstructionSpilled/256"),
    ("pinter_color_spilled_scaling", "BM_PinterColorSpilled/1024"),
    ("false_dep_check_over_depgraph", "BM_FalseDepCheck/1024"),
    ("ips_scaling", "BM_Ips/256"),
    ("chaitin_over_pinter_color_1024", "BM_ChaitinColor/1024"),
    ("interference_spilled_over_dense_1024",
     "BM_InterferenceGraphSpilled/1024"),
    ("simulate_scaling", "BM_Simulate/4096"),
]


# BM_PinterColorSpilled at 256 and 1024 from a coloring that walks every
# parallel edge at removal and select: the medians of the Release run
# whose ratio (14.7) was the lowest of five.
EDGE_WALKING_SPILLED_COLORING = {
    "BM_PinterColorSpilled/256": 991000.0,
    "BM_PinterColorSpilled/1024": 14595000.0,
}


def report(rows):
    """A report of (name, time) rows, or of a {name: time} dict."""
    if isinstance(rows, dict):
        rows = rows.items()
    return {
        "schema": "pira.bench",
        "version": 2,
        "bench": "perf_algorithms",
        "provenance": {"build_type": "Release", "ndebug": False},
        "results": [{"name": n, "iterations": 1, "real_time_ns": t,
                     "cpu_time_ns": t} for n, t in rows],
    }


def repeated(times, count, overrides):
    """\p count rows of every benchmark in \p times, repetition by
    repetition as an interleaved run writes them; \p overrides maps a
    (name, repetition) to the time that row reads instead."""
    return [(n, overrides.get((n, rep), t))
            for rep in range(count) for n, t in times.items()]


def run_gate(gate, tmp, fresh_rows):
    base = os.path.join(tmp, "base.json")
    fresh = os.path.join(tmp, "fresh.json")
    with open(base, "w", encoding="utf-8") as f:
        json.dump(report(BASE_TIMES), f)
    with open(fresh, "w", encoding="utf-8") as f:
        json.dump(report(fresh_rows), f)
    proc = subprocess.run([sys.executable, gate, base, fresh],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    gate = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_gate(gate, tmp, dict(BASE_TIMES))
        if code != 0:
            failures.append("identical reports: exit %d\n%s" % (code, out))

        over = dict(BASE_TIMES)
        over["BM_PinterColor/1024"] = 25 * over["BM_PinterColor/256"]
        code, out = run_gate(gate, tmp, over)
        if code != 1 or "pinter_color_scaling" not in out:
            failures.append("scaling over ceiling: exit %d\n%s" % (code, out))

        for label, num, den, ratio in OVER_CEILING:
            over = dict(BASE_TIMES)
            over[num] = ratio * over[den]
            code, out = run_gate(gate, tmp, over)
            if code != 1 or label not in out:
                failures.append("%s over ceiling: exit %d\n%s"
                                % (label, code, out))

        # A Section 4 coloring that walks every parallel edge: the
        # spilled rows as the bit-row engine read them.
        walking = dict(BASE_TIMES)
        walking.update(EDGE_WALKING_SPILLED_COLORING)
        code, out = run_gate(gate, tmp, walking)
        if code != 1 or "pinter_color_spilled_scaling" not in out:
            failures.append("edge-walking coloring: exit %d\n%s" % (code, out))

        for label, num in MISSING_ROW:
            missing = dict(BASE_TIMES)
            del missing[num]
            code, out = run_gate(gate, tmp, missing)
            if code != 2 or label not in out:
                failures.append("missing %s row: exit %d\n%s"
                                % (label, code, out))

        # Five repetitions; the last reads BM_PinterColor/1024 at 25x its
        # 256 row, over the ceiling. The median ignores one such row ...
        slow = 25 * BASE_TIMES["BM_PinterColor/256"]
        one = {("BM_PinterColor/1024", 4): slow}
        code, out = run_gate(gate, tmp, repeated(BASE_TIMES, 5, one))
        if code != 0:
            failures.append("one slow repetition of five: exit %d\n%s"
                            % (code, out))
        # ... but not three.
        three = {("BM_PinterColor/1024", r): slow for r in (0, 2, 4)}
        code, out = run_gate(gate, tmp, repeated(BASE_TIMES, 5, three))
        if code != 1 or "pinter_color_scaling" not in out:
            failures.append("three slow repetitions of five: exit %d\n%s"
                            % (code, out))

        # Summary rows after the repetitions: a zero _stddev would be an
        # unusable time, and the _mean an over-ceiling one.
        rows = repeated(BASE_TIMES, 3, {})
        for name, t in BASE_TIMES.items():
            mean = slow if name == "BM_PinterColor/1024" else t
            rows += [(name + "_mean", mean), (name + "_median", t),
                     (name + "_stddev", 0.0), (name + "_cv", 0.0)]
        code, out = run_gate(gate, tmp, rows)
        if code != 0:
            failures.append("summary rows: exit %d\n%s" % (code, out))

    for f in failures:
        print("FAIL: " + f, file=sys.stderr)
    if not failures:
        print("perf_gate_test: %d cases pass"
              % (6 + len(OVER_CEILING) + len(MISSING_ROW)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
