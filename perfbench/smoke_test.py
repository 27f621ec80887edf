"""Smoke test of the benchmark itself, at tiny size.

    python3 perfbench/smoke_test.py

Runs every workload traced and untraced, checks that each prints exactly
the metrics BENCHMARK.json declares, that the traced counts repeat exactly
for the same seed, that a wrong pinned value makes the command fail, and
that the command refuses to run without the package.  Takes about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, pin_domain  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer values that count work, not time: they must repeat exactly.
EXACT_COUNTS = (
    "sampling.elements", "sampling.cycles_per_element", "sampling.draws_per_element",
    "cycletypes.profiles", "cycletypes.dp_steps", "cycletypes.dp_bits_computed",
    "cycletypes.distinct_ratio", "montecarlo.trials", "montecarlo.elements_per_trial",
    "montecarlo.early_exit_ratio", "montecarlo.pool_calls", "exact.calls", "exact.classes",
    "exact.distinct_masks", "exact.lattice_points", "exact.bruteforce_tuples",
    "bounds.calls", "cli.calls", "cli.bytes_out",
)


def bench(workload: str, trace: int, cwd: Path = ROOT):
    """(exit code, parsed last line or None) of one tiny benchmark run of
    the benchmark in the tree at `cwd`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.scratch = ROOT / ".perfbench" / f"smoke-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def copy_tree(self, *dirs: str) -> Path:
        """A scratch tree holding BENCHMARK.json and copies of `dirs`."""
        tree = self.scratch / "tree"
        for d in dirs:
            shutil.copytree(ROOT / d, tree / d, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
        return tree

    def assert_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_runs_report_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, result = bench(workload, 0)
                self.assertEqual(rc, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assert_metrics(result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_counts_repeat_for_the_same_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [bench(workload, 1) for _ in range(2)]
                for rc, result in runs:
                    self.assertEqual(rc, 0)
                    self.assertTrue(result["correct"])
                    self.assert_metrics(result, SPEC["per_layer"])
                    self.assertEqual(result["metrics"]["montecarlo.replay_mismatches"]["value"], 0)
                first, second = (r["metrics"] for _, r in runs)
                for name in EXACT_COUNTS:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_wrong_pinned_value_fails_the_run(self):
        tree = self.copy_tree("perfbench", "src")
        pins_path = tree / "perfbench" / "pins.json"
        pins = json.loads(pins_path.read_text())
        family, n, l = pin_domain("tiny")[0][0]
        key = f"{family}/{n}/{l}"
        pins["J"][key] = "1/3" if pins["J"][key] != "1/3" else "1/4"
        pins_path.write_text(json.dumps(pins))
        rc, result = bench("exact_oracle", 0, cwd=tree)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_package(self):
        rc, result = bench("mc_small_n", 0, cwd=self.copy_tree("perfbench"))
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
