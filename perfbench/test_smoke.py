"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py      (or: python3 perfbench/test_smoke.py)

Checks that each run prints every end-to-end metric BENCHMARK.json names,
with its unit, and failed_frac 0; that the verdict digest repeats for the
same seed and is unchanged by tracing; that a traced run prints every
per-layer metric; and that the benchmark refuses to run without the
approxalg sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["exhaustive-axioms", "integer-spectrum", "finite-lattices",
             "cli-requests"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run(workload, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--rounds", "1", "--tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


def digest_of(done):
    return re.search(r"^digest: (\w+)$", done.stdout, re.M).group(1)


class SmokeTest(unittest.TestCase):
    def test_workloads_print_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run(workload, "--trace", "0")
                last = result_of(done)
                self.assertTrue(last["correct"], done.stdout)
                self.assertEqual(last["failed"], 0)
                self.assertGreater(last["attempted"], 0)
                want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                self.assertEqual(got, want)
                for name, unit in list(want.items()) + [("failed_frac", "1")]:
                    self.assertRegex(done.stdout, rf"(?m)^{re.escape(name)} +"
                                     rf"[0-9.]+ {re.escape(unit)}\b")
                self.assertRegex(done.stdout, r"(?m)^failed_frac +0\.0+ 1\b")
                for name, entry in last["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)

    def test_digest_repeats_and_tracing_changes_no_output(self):
        first = run("cli-requests", "--trace", "0")
        again = run("cli-requests", "--trace", "0")
        self.assertEqual(digest_of(first), digest_of(again))
        traced = run("cli-requests", "--trace", "1")
        last = result_of(traced)
        # correct also requires the untraced rerun's digest to be equal
        self.assertTrue(last["correct"], traced.stdout)
        self.assertEqual(digest_of(traced), digest_of(first))
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        got = {k: v["unit"] for k, v in last["metrics"].items()}
        self.assertEqual(got, want)
        self.assertGreater(last["metrics"]["cli.requests"]["value"], 0)
        self.assertGreater(last["metrics"]["grammar.calls"]["value"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = run("cli-requests", "--trace", "0", cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
