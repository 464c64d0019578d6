#!/usr/bin/env python3
"""Check BENCHMARK.json against the limits the benchmark format sets, and
against the workload list run.py accepts.

    python3 perfbench/test_contract.py
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        path = os.path.join(ROOT, "BENCHMARK.json")
        with open(path, encoding="utf-8") as f:
            cls.text = f.read()
        cls.b = json.loads(cls.text)

    def test_keys_and_size(self):
        self.assertEqual(set(self.b), {"command", "paths", "run_seconds",
                                       "workloads", "end_to_end",
                                       "per_layer"})
        self.assertLessEqual(len(self.text.encode()), 64 * 1024)

    def test_command_and_paths(self):
        cmd = self.b["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        paths = self.b["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        # Every repo file the command names lies under a listed path.
        for arg in cmd[1:]:
            if os.path.exists(os.path.join(ROOT, arg)):
                self.assertTrue(any(arg == p or arg.startswith(p + "/")
                                    for p in paths), arg)

    def test_run_seconds_fit_the_time_budget(self):
        secs = self.b["run_seconds"]
        self.assertIsInstance(secs, int)
        self.assertTrue(1 <= secs <= 60)
        runs = 4 + 22 * len(self.b["workloads"])
        # Two builds of about a minute each, plus a few seconds of
        # start-up per run, must fit in 3420 s.
        self.assertLess(runs * (secs + 4) + 2 * 90, 3420)

    def test_workloads_match_run_py(self):
        w = self.b["workloads"]
        self.assertTrue(2 <= len(w) <= 8)
        for entry in w:
            self.assertEqual(set(entry), {"name", "why"})
            self.assertLessEqual(len(entry["why"]), 200)
            self.assertNotIn("\n", entry["why"])
        self.assertEqual([e["name"] for e in w], run.WORKLOADS)

    def test_metrics(self):
        e2e, layer = self.b["end_to_end"], self.b["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layer) <= 128)
        names = [m["name"] for m in self.b["workloads"] + e2e + layer]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))


if __name__ == "__main__":
    unittest.main()
