#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke_test.py        # from the repository root

Checks, for every workload in BENCHMARK.json:
  * --trace 0 prints every end-to-end metric and --trace 1 every per-layer
    metric, each exactly once and with the unit BENCHMARK.json gives it;
  * the run is correct and exits 0;
and that the correctness gate trips (exit 1, "correct": false) on an
injected digest mismatch, and that a second seed changes the fleet digest
while every flow still verifies.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def reject_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise AssertionError("duplicate keys in result: %s" % sorted(dupes))
    return dict(pairs)


def bench(workload, seed=1, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=reject_duplicates)
    digest = re.search(r"digest ([0-9a-f]{16})", proc.stdout).group(1)
    return proc.returncode, result, digest


class BenchmarkSmoke(unittest.TestCase):
    def check_metrics(self, result, spec_metrics):
        want = {m["name"]: m["unit"] for m in spec_metrics}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, entry in result["metrics"].items():
            self.assertEqual(set(entry), {"value", "unit"}, name)
            self.assertIsInstance(entry["value"], (int, float), name)

    def test_every_metric_once_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, _ = bench(w["name"], trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, SPEC[key])

    def test_gate_trips_on_digest_mismatch(self):
        code, result, _ = bench("bulk_ilp",
                                extra=["--inject-digest-mismatch"])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])

    def test_second_seed_changes_digest_and_still_verifies(self):
        for w in ("bulk_ilp", "fleet_mixed"):
            with self.subTest(workload=w):
                code1, r1, d1 = bench(w, seed=1)
                code2, r2, d2 = bench(w, seed=2)
                self.assertEqual((code1, code2), (0, 0))
                self.assertTrue(r1["correct"] and r2["correct"])
                self.assertNotEqual(d1, d2)


if __name__ == "__main__":
    unittest.main()
