#!/usr/bin/env python3
"""Checks compare.py's verdicts on made-up result sets.

Run directly (python3 benchmark/compare_test.py) or through the benchmark
project's ctest.
"""

import contextlib
import importlib.util
import io
import json
import tempfile
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "compare", Path(__file__).resolve().parent / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def write_runs(directory, rates):
    """One result set per rate, each in its own run directory."""
    for i, rate in enumerate(rates):
        run = Path(directory) / f"run{i:02d}"
        run.mkdir()
        doc = {"workload": "w", "correct": True, "attempted": 1, "failed": 0,
               "metrics": {"ops_per_s": {"value": rate, "unit": "key-ops/s"}}}
        (run / "w.json").write_text(json.dumps(doc))


def verdict(parent_rates, change_rates):
    """(exit status, verdict of the ops_per_s row, stderr)."""
    with tempfile.TemporaryDirectory() as parent, \
            tempfile.TemporaryDirectory() as change:
        write_runs(parent, parent_rates)
        write_runs(change, change_rates)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = compare.compare(parent, change)
    row = next(line for line in out.getvalue().splitlines()
               if line.startswith("w ") and "ops_per_s" in line)
    return status, row.split("  ")[-1].strip(), err.getvalue()


class CompareTest(unittest.TestCase):
    def test_one_pair_claims_no_gain(self):
        status, v, _ = verdict([100.0], [150.0])
        self.assertEqual((status, v), (0, "too few pairs"))

    def test_ten_pairs_all_won_is_a_gain(self):
        parent = [100.0 + i for i in range(10)]
        status, v, _ = verdict(parent, [p * 1.3 for p in parent])
        self.assertEqual((status, v), (0, "gain"))

    def test_eight_of_ten_pairs_is_no_gain(self):
        parent = [100.0 + i for i in range(10)]
        change = [p * 1.1 for p in parent[:8]] + [p * 0.99 for p in parent[8:]]
        status, v, _ = verdict(parent, change)
        self.assertEqual((status, v), (0, "within bound"))

    def test_unequal_run_counts_warn_and_claim_no_gain(self):
        parent = [100.0 + i for i in range(10)]
        status, v, err = verdict(parent, [p * 1.3 for p in parent[:9]])
        self.assertEqual((status, v), (0, "too few pairs"))
        self.assertIn("10 parent runs but 9 change runs", err)

    def test_regression_beyond_bound_fails_even_with_one_pair(self):
        status, v, _ = verdict([100.0], [50.0])
        self.assertEqual((status, v), (1, "REGRESSION"))


if __name__ == "__main__":
    unittest.main()
