#!/usr/bin/env python3
"""Tests of the benchmark itself: every output check fails on a
perturbed input, and both modes emit exactly the metrics that
BENCHMARK.json declares.

Run from the repository root (builds sfbench first if needed):

    python3 perfbench/tests/test_checks.py

Every case runs the workload's reduced 2x2 point (--reduced), so the
whole file takes well under a minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run as bench  # noqa: E402  (perfbench/run.py)


def sfbench(workload, *extra, trace=0, env=None):
    """Run one reduced sfbench invocation; return (exit code, result)."""
    cmd = [bench.BINARY, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--reduced"]
    cmd += list(extra)
    full_env = dict(os.environ)
    full_env.pop("SF_VERIFY_BUG", None)
    full_env.update(env or {})
    done = subprocess.run(cmd, cwd=bench.ROOT, env=full_env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 else None
    return done.returncode, result, done.stderr


class Checks(unittest.TestCase):
    def expect_clean(self, workload):
        rc, res, err = sfbench(workload)
        self.assertEqual(rc, 0, err)
        self.assertTrue(res["correct"], err)
        self.assertEqual(res["failed"], 0, err)
        return res

    def expect_incorrect(self, workload, perturb, message):
        rc, res, err = sfbench(workload, "--perturb", perturb)
        self.assertEqual(rc, 0, err)
        self.assertFalse(res["correct"])
        self.assertIn(message, err)

    def test_clean_runs_pass(self):
        res = self.expect_clean("sf_conv3d")
        self.assertEqual(res["attempted"], 4)  # 3 timed runs + oracle run
        res = self.expect_clean("sf_conv3d_4t")
        self.assertEqual(res["attempted"], 5)  # + 1-vs-4-worker pair

    def test_op_count_check_fails(self):
        self.expect_incorrect("sf_conv3d", "ops",
                              "committed ops vs drained op sources")

    def test_l3_class_check_fails(self):
        self.expect_incorrect("bingo_conv3d", "l3-classes",
                              "L3 requests by class vs hits + misses")

    def test_dram_read_check_fails(self):
        self.expect_incorrect("sf_conv3d", "dram-reads",
                              "DRAM channel reads vs L3 memory reads")

    def test_worker_identity_check_fails(self):
        self.expect_incorrect("sf_conv3d_4t", "threads",
                              "differs between 1 and 4 workers")

    def test_oracle_check_fails(self):
        # The injected writeback bug makes the oracle run diverge: that
        # operation fails, the others stay correct.
        rc, res, err = sfbench("sf_conv3d",
                               env={"SF_VERIFY_BUG": "drop-putm-data"})
        self.assertEqual(rc, 0, err)
        self.assertEqual(res["failed"], 1, err)
        self.assertEqual(res["attempted"], 4)
        self.assertIn("memory divergence", err)


class Metrics(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_mode(self, trace, key):
        declared = {m["name"]: m["unit"] for m in self.spec[key]}
        rc, res, err = sfbench("sf_conv3d", trace=trace)
        self.assertEqual(rc, 0, err)
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        self.assertEqual(got, declared)

    def test_untraced_emits_end_to_end_metrics(self):
        self.check_mode(0, "end_to_end")

    def test_traced_emits_per_layer_metrics(self):
        self.check_mode(1, "per_layer")

    def test_unknown_flag_is_rejected(self):
        done = subprocess.run([bench.BINARY, "--workload", "sf_conv3d",
                               "--thread=4"], capture_output=True)
        self.assertEqual(done.returncode, 2)


if __name__ == "__main__":
    bench.build()
    unittest.main()
