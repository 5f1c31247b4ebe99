"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'     # from the repo root

The statistics tests take milliseconds; the smoke test runs every
workload at its smallest size (about two minutes in all)."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_median_is_a_sample(self):
        self.assertEqual(run.nearest_rank([1.0, 2.0, 3.0, 4.0], 50), 2.0)
        self.assertEqual(run.nearest_rank([1.0, 2.0, 3.0], 50), 2.0)
        self.assertEqual(run.nearest_rank([5.0], 50), 5.0)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.nearest_rank([float(i) for i in range(999)], 99))
        values = [float(i) for i in range(1000)]
        self.assertEqual(run.nearest_rank(values, 99), 989.0)
        self.assertEqual(sum(1 for v in values if v > 989.0), 10)

    def test_empty(self):
        self.assertIsNone(run.nearest_rank([], 50))


class Placement(unittest.TestCase):
    def test_percentile_inside_one_class(self):
        samples = [(0.1 + i * 1e-4, "fast") for i in range(700)] + [(5.0 + i * 1e-3, "slow") for i in range(300)]
        ok, cls, frac = run.placement(samples, 50)
        self.assertTrue(ok)
        self.assertEqual((cls, frac), ("fast", 1.0))
        ok, cls, _ = run.placement(samples, 99)
        self.assertTrue(ok)
        self.assertEqual(cls, "slow")

    def test_percentile_on_a_class_boundary_fails(self):
        # p50 sits where the fast class ends and the slow one begins.
        samples = [(0.1, "fast")] * 500 + [(5.0, "slow")] * 500
        ok, _, frac = run.placement(samples, 50)
        self.assertFalse(ok)
        self.assertLess(frac, 0.8)

    def test_interleaved_classes_fail(self):
        samples = [(1.0 + i * 1e-3, "a" if i % 2 else "b") for i in range(1000)]
        self.assertFalse(run.placement(samples, 50)[0])


class Smoke(unittest.TestCase):
    """Every workload at its smallest size: every metric of BENCHMARK.json
    prints with its unit, and no op fails."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--tiny"],
            cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                end_to_end = self.run_bench(w["name"], 0)
                self.check(end_to_end, self.spec["end_to_end"])
                for m in end_to_end["metrics"].values():
                    self.assertGreater(m["value"], 0)
                self.check(self.run_bench(w["name"], 1), self.spec["per_layer"])


class Standalone(unittest.TestCase):
    def test_fails_without_the_program(self):
        """In a directory holding only BENCHMARK.json and perfbench/, the
        benchmark exits non-zero without printing a result."""
        os.makedirs(os.path.join(REPO, ".bench_build"), exist_ok=True)
        d = tempfile.mkdtemp(dir=os.path.join(REPO, ".bench_build"))
        try:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "topk_cold",
                                   "--seed", "1", "--seconds", "10", "--trace", "0"],
                                  cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)
        finally:
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main()
