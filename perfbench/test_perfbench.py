"""Self-test of the benchmark at reduced n.

    python3 -m unittest perfbench/test_perfbench.py     # from the checkout root

Every workload must emit every metric BENCHMARK.json names, and a corrupted
expected value must show up as failed ops.
"""

import contextlib
import copy
import io
import json
import sys
import unittest
from unittest import mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def measure(workload, trace, expected=None):
    with contextlib.redirect_stdout(io.StringIO()):
        return run.measure(workload, 1, 0.5, trace, ROOT, scale="small", expected=expected)


class BenchmarkSelfTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual(WORKLOADS, list(run.WORKLOADS))

    def test_every_metric_emitted(self):
        for workload in WORKLOADS:
            for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = measure(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        {m["name"]: m["unit"] for m in BENCH[listed]},
                        {k: v["unit"] for k, v in result["metrics"].items()},
                    )
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)

    def assert_fails(self, workload, trace, expected):
        result = measure(workload, trace, expected=expected)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_corrupted_expected_value_fails(self):
        good = json.loads(run.EXPECTED_FILE.read_text())
        corruptions = {
            "tables": lambda e: e["tables"]["sortable"]["231"].__setitem__(5, 80),
            "probes": lambda e: e["payload_sha256"].__setitem__("conjecture vn-limit 5", "0" * 64),
            "generic": lambda e: e["values"].__setitem__("periodic_points vincular:1 231 6", 33),
        }
        for workload, corrupt in corruptions.items():
            with self.subTest(workload=workload):
                bad = copy.deepcopy(good)
                corrupt(bad)
                self.assert_fails(workload, False, bad)

    def test_wrong_closed_form_fails(self):
        """fanout's gate: each op checked against the other op's closed form."""
        workload = run.workload

        def swapped(name, scale, expected):
            spec = workload(name, scale, expected)
            first, second = spec["ops"]
            first["closed_form"], second["closed_form"] = second["closed_form"], first["closed_form"]
            return spec

        with mock.patch.object(run, "workload", swapped):
            self.assert_fails("fanout", False, None)

    def test_replay_check_fails(self):
        """A table row the CLI does not print makes the replay's CLI-vs-library check fail."""
        bad = json.loads(run.EXPECTED_FILE.read_text())
        bad["tables"]["sortable"]["4321"] = [1] * 10
        # generic's passes never read the tables, so the failure is the replay's
        self.assert_fails("generic", True, bad)


if __name__ == "__main__":
    unittest.main()
