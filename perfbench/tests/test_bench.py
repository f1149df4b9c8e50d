"""The benchmark's own tests.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests -v

Each workload runs once at the tiny size (seconds per run) untraced and
traced; every metric BENCHMARK.json names must come out with its unit.
A negative control, a run whose determinism check compares against a
deliberately mismatched report, must count failed jobs.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra):
    """Runs one tiny benchmark run and returns (exit code, last stdout line)."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (lines[-1] if lines else "")


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, spec_key):
        code, last = bench(workload, trace)
        self.assertEqual(code, 0, f"{workload} --trace {trace} exited {code}")
        result = json.loads(last)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(emitted, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if spec_key == "end_to_end":
                self.assertGreater(metric["value"], 0, name)

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check_result(workload["name"], trace, key)

    def test_negative_control_fails_jobs(self):
        for workload in ("scalar-study", "serve-drift"):
            with self.subTest(workload=workload):
                code, last = bench(workload, 0, "--negative-control")
                self.assertEqual(code, 0)
                result = json.loads(last)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)


class BareDirectoryTest(unittest.TestCase):
    def test_without_the_program_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "scalar-study",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, check=False)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
