"""The benchmark's own test.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

run from the repository root.  Smoke mode runs every workload on tiny
rounds with a fixed seed, traced and untraced, and this test checks that
each run prints exactly the metrics BENCHMARK.json names, with their
units, and that every correctness check of the workload ran and passed.
It also checks that the benchmark refuses to run without the program,
and that the benchmark's own letter definitions agree with the
library's alphabets.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from worker import EXPECTED_CHECKS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONTRACT = json.load(fh)


def run_bench(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed_and_every_check_run(self):
        for name, wl in WORKLOADS.items():
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = run_bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "0.2",
                                     "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    res = json.loads(lines[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], proc.stdout)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    units = {m["name"]: m["unit"] for m in CONTRACT[section]}
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, units)
                    if trace == 0:
                        for k, v in res["metrics"].items():
                            self.assertGreater(v["value"], 0, k)
                    else:
                        self.assertGreater(res["metrics"]["trace.overhead_ratio"]["value"], 0)
                    checks = next(ln for ln in lines if ln.startswith("checks "))
                    counts = dict(kv.split("=") for kv in checks.split()[1:])
                    for check in EXPECTED_CHECKS[wl.kind]:
                        self.assertGreater(int(counts.get(check, 0)), 0, check)

    def test_refuses_without_the_program(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(tmp, "--workload", "m3_grid", "--seed", "1", "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(tmp)

    def test_oracle_letters_match_the_alphabets(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import tropmono as tm

        cases = [("gl", n, tm.gens_gl_zmax(n).letters) for n in range(2, 7)]
        cases.append(("m3", 3, tm.gens_m3_zmax(4).letters))
        cases.append(("m2", 2, tm.gens_m2_zmax().letters))
        cases += [("ut", n, tm.gens_ut_zmax(n).letters) for n in (3, 5)]
        cases.append(("u", 4, [tm.elem_letter(1, 3, -7), tm.elem_letter(2, 4, 12)]))
        for monoid, n, letters in cases:
            for g in letters:
                with self.subTest(monoid=monoid, n=n, letter=g.text()):
                    self.assertEqual(oracle.letter(g.text(), monoid, n), g.realize(n, tm.ZMAX).rows)


if __name__ == "__main__":
    unittest.main()
