#!/usr/bin/env python3
"""Self-test of the benchmark in miniature mode.

    python3 perfbench/test_perfbench.py

For every workload: the timed run emits exactly the end-to-end metrics
of BENCHMARK.json and the traced run exactly the per-layer ones, with
every answer correct; a corrupted answer makes the run fail its
correctness check; and a second seed runs clean.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--mini"] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, lines


class PerfbenchTest(unittest.TestCase):
    spec = load_spec()

    def workloads(self):
        return [w["name"] for w in self.spec["workloads"]]

    def check_clean(self, workload, seed, trace, names):
        code, result, lines = run(workload, seed=seed, trace=trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(metric["unit"], name)
        self.assertTrue(any(l.startswith("stamp source=") for l in lines))
        self.assertTrue(any(l.startswith("error_rate ") for l in lines))
        return lines

    def test_every_metric_and_workload_is_emitted(self):
        end_to_end = [m["name"] for m in self.spec["end_to_end"]]
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(set(self.workloads()),
                         {"study_full", "study_filtered", "ingest_cohort"})
        for workload in self.workloads():
            with self.subTest(workload=workload, trace=0):
                lines = self.check_clean(workload, 1, 0, end_to_end)
                if workload == "ingest_cohort":
                    for name in ("write_p50_ms", "write_p90_ms"):
                        self.assertTrue(any(l.startswith("metric " + name)
                                            for l in lines), name)
            with self.subTest(workload=workload, trace=1):
                self.check_clean(workload, 1, 1, per_layer)

    def test_corrupted_answer_fails_the_run(self):
        for workload in self.workloads():
            with self.subTest(workload=workload):
                code, result, lines = run(workload, extra=["--corrupt"])
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(result, "\n".join(lines[-20:]))
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_second_seed_runs_clean(self):
        end_to_end = [m["name"] for m in self.spec["end_to_end"]]
        for workload in self.workloads():
            with self.subTest(workload=workload):
                self.check_clean(workload, 2, 0, end_to_end)


if __name__ == "__main__":
    unittest.main()
