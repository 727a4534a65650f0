"""Checks that the metrics run.py prints match BENCHMARK.json by name, unit,
direction and bound, and that the workloads agree.

  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


class MetricsMatchBenchmarkJson(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         run.WORKLOADS)

    def test_end_to_end(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in BENCHMARK["end_to_end"]],
            run.END_TO_END)

    def test_per_layer(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in BENCHMARK["per_layer"]],
            run.PER_LAYER)

    def test_printed_blocks_carry_every_name_and_unit(self):
        for table, key in ((run.END_TO_END, "end_to_end"),
                           (run.PER_LAYER, "per_layer")):
            values = {m[0]: 1.0 for m in table}
            block = run.metric_block(values, table)
            self.assertEqual(
                {n: v["unit"] for n, v in block.items()},
                {m["name"]: m["unit"] for m in BENCHMARK[key]})

    def test_command_and_paths(self):
        self.assertEqual(BENCHMARK["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(BENCHMARK["paths"], ["perfbench"])


if __name__ == "__main__":
    unittest.main()
