#!/usr/bin/env python3
"""Static self-tests of the benchmark definition.

    python3 appbench/test_bench.py

Checks that BENCHMARK.json keeps to its format, and that the metric
names the benchmark prints (run.py for end-to-end, the worker's trace
subcommand for per-layer) are exactly the names BENCHMARK.json declares.
The worker's own tests (attribution closes, the event-kind table is
complete) run with `cargo test --manifest-path appbench/Cargo.toml`.
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in b[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_workloads_match_the_runner(self):
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]), run.WORKLOADS)

    def test_end_to_end_names_match_the_runner(self):
        self.assertEqual([m["name"] for m in self.bench["end_to_end"]], list(run.END_TO_END))

    def test_per_layer_names_match_the_worker(self):
        with open(os.path.join(HERE, "src", "main.rs")) as f:
            src = f.read()
        printed = re.findall(r'\.(?:num|int)\(\s*"([a-z_]+\.[a-z0-9_]+)"', src)
        self.assertEqual(printed, [m["name"] for m in self.bench["per_layer"]])


if __name__ == "__main__":
    unittest.main()
