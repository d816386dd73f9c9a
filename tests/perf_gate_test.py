#!/usr/bin/env python3
"""Pins tools/perf_gate.py's verdicts on synthetic pira.bench reports.

Usage: perf_gate_test.py PATH/TO/perf_gate.py

Three cases, one per exit code: a fresh report equal to the baseline
passes (0); a BM_PinterColor scaling ratio over its hard ceiling fails
(1) even though it is within the threshold of the baseline's; a report
missing a scaling row is unusable (2).
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
    "BM_CompileBatch/1/real_time": 200000000.0,
    "BM_CompileBatchWarmCache/real_time": 8000000.0,
    "BM_PinterColor/256": 1000000.0,
    "BM_PinterColor/1024": 22000000.0,
    "BM_CombinedPipeline/128": 10000000.0,
    "BM_CombinedPipeline/512": 200000000.0,
}


def report(times):
    return {
        "schema": "pira.bench",
        "version": 2,
        "bench": "perf_algorithms",
        "provenance": {"build_type": "Release", "ndebug": False},
        "results": [{"name": n, "iterations": 1, "real_time_ns": t,
                     "cpu_time_ns": t} for n, t in times.items()],
    }


def run_gate(gate, tmp, fresh_times):
    base = os.path.join(tmp, "base.json")
    fresh = os.path.join(tmp, "fresh.json")
    with open(base, "w", encoding="utf-8") as f:
        json.dump(report(BASE_TIMES), f)
    with open(fresh, "w", encoding="utf-8") as f:
        json.dump(report(fresh_times), f)
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

        missing = dict(BASE_TIMES)
        del missing["BM_CombinedPipeline/512"]
        code, out = run_gate(gate, tmp, missing)
        if code != 2 or "combined_scaling" not in out:
            failures.append("missing scaling row: exit %d\n%s" % (code, out))

    for f in failures:
        print("FAIL: " + f, file=sys.stderr)
    if not failures:
        print("perf_gate_test: 3 cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
