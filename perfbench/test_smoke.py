#!/usr/bin/env python3
"""Smoke test of the benchmark itself, using its tiny one-pass mode.

Run from the repository root:

    python3 perfbench/test_smoke.py

For every workload, in both trace modes, it checks that the last line of
stdout is the JSON result with exactly the keys BENCHMARK.json promises,
that every metric BENCHMARK.json names is printed with its unit (in the
JSON and on a human-readable line), and that the output checks ran and
passed. It also arms a fault that makes every combined compile degrade and
checks that the benchmark then fails the run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True,
                       env=dict(os.environ, **(env or {})), timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        code, lines, result = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        wanted = SPEC["per_layer" if trace else "end_to_end"]
        prefix = "layer " if trace else "metric "
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            printed = [l for l in lines
                       if l.startswith(prefix + m["name"] + " ")]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertEqual(printed[0].split()[3], m["unit"], printed[0])

        attempted = result["attempted"]
        self.assertIn("check outputs %d of %d cells" % (attempted, attempted),
                      "\n".join(lines))
        self.assertTrue(any(l.startswith("check digest sha256:")
                            for l in lines))
        if trace:
            self.assertIn("check replay every traced cell matches the real "
                          "compile", lines)
        if workload == "kernel-suite":
            s1 = [l for l in lines if l.startswith("check s1 ")]
            self.assertEqual(len(s1), 3)
            self.assertTrue(all(l.endswith(" ok") for l in s1), s1)
        return lines

    def test_every_workload_both_modes(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_same_seed_same_outputs(self):
        digests = []
        for _ in range(2):
            _, lines, _ = run("large-phased", 0)
            digests.append([l for l in lines if l.startswith("check digest")])
        self.assertEqual(digests[0], digests[1])

    def test_degraded_cells_fail_the_run(self):
        # Every combined compile reports non-convergence, so the guard
        # rescues it with alloc-first: correct code, but not what was asked.
        code, lines, result = run("large-combined", 0,
                                  {"PIRA_FAULT": "alloc.pinter:1"})
        self.assertNotEqual(code, 0)
        self.assertIs(result["correct"], False)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any(l.startswith("FAIL ") and "degraded" in l
                            for l in lines))


if __name__ == "__main__":
    unittest.main()
