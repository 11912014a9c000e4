"""Self-tests of the benchmark, on the quick variant of every workload.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The measured workloads, plus fig6_trace, which runs by hand only.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["fig6_trace"]


def bench(workload, seed=1, trace=0, *extra):
    """Runs the quick variant; returns (check, result) from its output."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.splitlines()
    check = next(json.loads(l)["check"] for l in lines if l.startswith('{"check"'))
    return check, json.loads(lines[-1])


class MetricsTest(unittest.TestCase):
    def assert_emits(self, result, declared):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_named_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = bench(workload, trace=0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_emits(result, SPEC["end_to_end"])
                _, traced = bench(workload, trace=1)
                self.assertTrue(traced["correct"])
                self.assert_emits(traced, SPEC["per_layer"])


class CheckTest(unittest.TestCase):
    def test_perturbed_reference_digest_fails_every_replay(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                check, _ = bench(workload)
                wrong = f"{int(check['digest'], 16) ^ 1:016x}"
                _, result = bench(workload, 1, 0, "--reference", wrong)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])

    def test_seed_changes_inputs_but_not_shape(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                one, _ = bench(workload, seed=1)
                two, _ = bench(workload, seed=2)
                self.assertNotEqual(one["inputs"], two["inputs"])
                self.assertNotEqual(one["digest"], two["digest"])
                self.assertEqual(one["shape"], two["shape"])


if __name__ == "__main__":
    unittest.main()
