#!/usr/bin/env python3
"""Tests for the paired perf gate's decision rule.

unittest-based, so it needs nothing beyond python3. Only decide() is
exercised: nothing here builds a tree or runs a bench.
"""

import importlib.util
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_gate.py"
_spec = importlib.util.spec_from_file_location("bench_gate", SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

BENCHMARK = {"end_to_end": [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "shards_per_s", "better": "higher", "bound": 0.25},
]}
BOUNDS = gate.gated_bounds(BENCHMARK)


def run(source="sweep", ok=True, attempted=24, failed=0, **metrics):
    return {"source": source, "ok": ok, "why": "exit 0" if ok else "exit 1",
            "attempted": attempted, "failed": failed, "metrics": metrics}


def side(wall_s=2.0, shards_per_s=12.0, **kwargs):
    """Ten runs spread by +-2% around the given medians."""
    return [run(wall_s=wall_s * f, shards_per_s=shards_per_s * f, **kwargs)
            for f in (0.98, 0.99, 1.0, 1.01, 1.02) * 2]


def verdicts(rows):
    return {r["metric"]: r["verdict"] for r in rows}


class DecideTest(unittest.TestCase):
    def test_equal_sides_pass(self):
        rows, failures = gate.decide(side(), side(), BOUNDS)
        self.assertEqual([], failures)
        self.assertEqual({"sweep/wall_s": "ok", "sweep/shards_per_s": "ok"},
                         verdicts(rows))
        self.assertAlmostEqual(1.0, rows[0]["ratio"])
        self.assertGreater(rows[0]["spread"], 0.0)

    def test_throughput_drop_of_30_percent_fails(self):
        rows, failures = gate.decide(side(), side(shards_per_s=12.0 * 0.7),
                                     BOUNDS)
        self.assertEqual(1, len(failures))
        self.assertIn("sweep/shards_per_s", failures[0])
        self.assertTrue(verdicts(rows)["sweep/shards_per_s"]
                        .startswith("WORSE"))

    def test_wall_rise_of_30_percent_fails(self):
        rows, failures = gate.decide(side(), side(wall_s=2.0 * 1.3), BOUNDS)
        self.assertEqual(1, len(failures))
        self.assertIn("sweep/wall_s", failures[0])

    def test_throughput_drop_of_20_percent_passes(self):
        _, failures = gate.decide(side(), side(shards_per_s=12.0 * 0.8),
                                  BOUNDS)
        self.assertEqual([], failures)

    def test_microbench_drop_beyond_its_bound_fails(self):
        parent = [run("msg_path", attempted=0, messages_per_sec=1e7)] * 3
        change = [run("msg_path", attempted=0, messages_per_sec=0.7e7)] * 3
        _, failures = gate.decide(parent, change, BOUNDS)
        self.assertEqual(1, len(failures))
        self.assertIn("msg_path/messages_per_sec", failures[0])

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [run(wall_s=w) for w in (1.0, 1.0, 2.0, 2.0, 3.0, 3.0)]
        rows, failures = gate.decide(parent, parent, BOUNDS)
        self.assertEqual([], failures)
        self.assertEqual("ok, unresolved: p-IQR above bound",
                         verdicts(rows)["sweep/wall_s"])

    def test_incorrect_change_run_fails(self):
        change = side()
        change[3] = dict(change[3], ok=False, why="exit 1, correct: false")
        _, failures = gate.decide(side(), change, BOUNDS)
        self.assertEqual(1, len(failures))
        self.assertIn("correct: false", failures[0])

    def test_higher_failed_share_fails(self):
        change = side()
        change[0] = dict(change[0], failed=1)
        _, failures = gate.decide(side(), change, BOUNDS)
        self.assertEqual(1, len(failures))
        self.assertIn("failed share", failures[0])

    def test_metric_the_parent_lacks_is_reported_not_gated(self):
        change = [dict(r, metrics=dict(r["metrics"], new_s=99.0))
                  for r in side()]
        rows, failures = gate.decide(side(), change, BOUNDS)
        self.assertEqual([], failures)
        row = next(r for r in rows if r["metric"] == "sweep/new_s")
        self.assertEqual(99.0, row["change"])
        self.assertIsNone(row["parent"])
        self.assertEqual("not gated: parent lacks it", row["verdict"])
        self.assertIn("sweep/new_s", gate.format_table(rows))


if __name__ == "__main__":
    unittest.main()
