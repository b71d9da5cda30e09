"""Smoke self-test of the benchmark: one short run per workload and mode.

Run from the repository root:

    python3 -m unittest perfbench/test_smoke.py

It checks the output schema against BENCHMARK.json (metric names, units,
the keys of the result line), that every run is correct, that a traced run
repeats its exact counters and result digest in a second process, and that
the benchmark refuses to run without the library.  It never looks at how
long anything took.  Runs go two at a time; the whole test takes a couple of
minutes, most of it the octonion checks.
"""

import json
import shutil
import subprocess
import sys
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = (".calls", ".tuples", ".violations", "operators.candidates")


def run(workload: str, trace: int):
    """One pass of each kind: --seconds 0 stops after the first."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_of(proc) -> str:
    return next(line for line in proc.stdout.splitlines() if line.startswith("digest: "))


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        names = [w["name"] for w in SPEC["workloads"]]
        jobs = [(name, trace) for name in names for trace in (0, 1)] + [("cli", 1)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            cls.procs = list(pool.map(lambda job: run(*job), jobs))
        cls.jobs = jobs

    def test_result_lines_match_the_spec(self):
        for (workload, trace), proc in zip(self.jobs, self.procs):
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True, proc.stdout)
                self.assertIsInstance(result["attempted"], int)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertIsInstance(result["failed"], int)
                wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                                 {m["name"]: m["unit"] for m in wanted})
                for metric in result["metrics"].values():
                    self.assertEqual(set(metric), {"value", "unit"})
                    self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_metrics_are_positive(self):
        for (workload, trace), proc in zip(self.jobs, self.procs):
            if not trace:
                for name, metric in result_of(proc)["metrics"].items():
                    self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def test_counts_and_digest_repeat_across_processes(self):
        first, second = self.procs[self.jobs.index(("cli", 1))], self.procs[-1]
        self.assertEqual(digest_of(first), digest_of(second))
        exact = [{k: v["value"] for k, v in result_of(p)["metrics"].items()
                  if k.endswith(EXACT)} for p in (first, second)]
        self.assertEqual(exact[0], exact[1])
        self.assertGreater(exact[0]["algebras.mul_sparse.calls"], 0)

    def test_refuses_to_run_without_the_library(self):
        bare = ROOT / ".perfbench" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
