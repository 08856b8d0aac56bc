#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload at its smoke size (same code path as the full size,
smaller cluster and files) through perfbench/run.py and checks that:
  * the untraced run emits every end_to_end metric of BENCHMARK.json, and the
    traced run every per_layer metric, each with its declared unit;
  * both runs pass the correctness gates and record the seed;
  * the gate trips (exit 1, "correct": false) on a wrong expected trace_hash;
  * run.py fails without printing a result when the sources are missing.
Builds into the same directory run.py uses, so a later run reuses the build.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload, trace, *extra):
    return run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--size", "smoke", *extra)


class Catalogue(unittest.TestCase):
    def check_metrics(self, trace, declared):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines = smoke(w["name"], trace)
                self.assertEqual(code, 0, lines[-1:] if lines else "no output")
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                record = json.loads(lines[-2])["record"]
                self.assertEqual(record["seed"], 7)
                self.assertEqual(set(record["series"]), {"dfs", "mpiio", "hdf5"})
                got = result["metrics"]
                self.assertEqual(set(got), {m["name"] for m in declared})
                for m in declared:
                    self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got[m["name"]]["value"], (int, float), m["name"])

    def test_untraced_run_emits_every_end_to_end_metric(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_traced_run_emits_every_per_layer_metric(self):
        self.check_metrics(1, SPEC["per_layer"])


class Gate(unittest.TestCase):
    def test_wrong_expected_hash_trips_the_gate(self):
        code, lines = smoke("hard_64k", 0)
        self.assertEqual(code, 0)
        good = json.loads(lines[-2])["record"]["series"]["mpiio"]["trace_hash"]
        code, lines = smoke("hard_64k", 0, "--expect-hash", f"mpiio={good}")
        self.assertEqual(code, 0)
        bad = format(int(good, 16) ^ 1, "016x")
        code, lines = smoke("hard_64k", 0, "--expect-hash", f"mpiio={bad}")
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(lines[-1])["correct"])

    def test_same_seed_repeats_bit_identically(self):
        _, a = smoke("overwrite_prod", 0)
        _, b = smoke("overwrite_prod", 1)
        self.assertEqual(json.loads(a[-2])["record"]["series"],
                         json.loads(b[-2])["record"]["series"])

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        bare_run = os.path.join(bare, "perfbench", "run.py")
        code, lines = run("--workload", "easy_8m", "--seed", "1", "--seconds", "1", "--trace", "0",
                          cwd=bare, script=bare_run)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in lines))


if __name__ == "__main__":
    unittest.main()
