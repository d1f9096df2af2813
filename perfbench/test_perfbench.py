#!/usr/bin/env python3
"""The benchmark's own test: every workload at its tiny size, timed and
traced, through run.py exactly as a benchmark run goes.

    python3 perfbench/test_perfbench.py

Each run replays the workload through the distributed deployment, the
in-process reference and (traced mode) the traced replay; the benchmark checks
that all tallies are byte-identical and that the .summary is clean, and
reports failure as a non-zero exit and "correct": false. This test asserts
that, that every metric BENCHMARK.json names is printed with its unit, that
the traced run accounts for at least 90% of its wall time, and that the
benchmark refuses to run outside a tormet checkout.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# paper-day runs by name but is not in BENCHMARK.json (its schedule_s
# spreads past the bound); it is tested all the same.
WORKLOADS = sorted({w["name"] for w in SPEC["workloads"]} | {"paper-day"})


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


class PerfbenchTest(unittest.TestCase):
    def check_result(self, workload, trace, metrics):
        proc, lines = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(printed[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float))
        meta = [l for l in lines if l.startswith("perfbench-meta ")]
        self.assertEqual(len(meta), 1)
        meta = json.loads(meta[0][len("perfbench-meta "):])
        for key in ("nproc", "compiler", "build_type", "commit", "seed", "sizes"):
            self.assertIn(key, meta)
        return printed

    def test_timed_runs_print_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                printed = self.check_result(w, 0, SPEC["end_to_end"])
                for name in ("schedule_s", "inproc_s", "setup_s", "cpu_s",
                             "node_rss_mb"):
                    self.assertGreater(printed[name]["value"], 0, name)

    def test_traced_runs_match_reference_and_cover_wall_time(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                printed = self.check_result(w, 1, SPEC["per_layer"])
                wall = printed["traced.wall_s"]["value"]
                self.assertGreater(wall, 0)
                self.assertLessEqual(printed["traced.residual_s"]["value"],
                                     0.10 * wall)
                self.assertGreater(printed["core.ingest.events"]["value"], 0)
                self.assertEqual(printed["summary.round_retries"]["value"], 0)

    def test_refuses_to_run_outside_a_checkout(self):
        build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                    ".bench_build"))
        os.makedirs(build_root, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=build_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, os.path.join(bare, "perfbench", "run.py"),
                 "--workload", "paper-day", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
