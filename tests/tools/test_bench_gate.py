"""Fixture-driven tests of tools/bench_gate.py.

The baseline is tests/obs/data/diff_base.json (a perf_micro-shaped report
with the REQUIRED_ZERO counters, the WINDOWS values and a profile); each
case copies it or diff_current.json into a temporary directory, edits one
value and runs the gate on it.

  python3 tests/tools/test_bench_gate.py [BenchGateTest.test_name]

Set SKS_REPORT to the sks-report binary for the attribution case (it is
skipped otherwise).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GATE = os.path.join(ROOT, "tools", "bench_gate.py")
DATA = os.path.join(ROOT, "tests", "obs", "data")


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="bench_gate_test_")
        self.baseline_dir = os.path.join(self.tmp, "baseline")
        os.mkdir(self.baseline_dir)
        shutil.copy(os.path.join(DATA, "diff_base.json"),
                    os.path.join(self.baseline_dir, "BENCH_perf_micro.json"))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def write_report(self, source, edit):
        with open(os.path.join(DATA, source)) as f:
            doc = json.load(f)
        edit(doc["values"])
        path = os.path.join(self.tmp, "BENCH_perf_micro.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, report, *extra):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("SKS_BENCH_")}
        return subprocess.run(
            [sys.executable, GATE, "check", "--report", report,
             "--baseline-dir", self.baseline_dir, *extra],
            capture_output=True, text=True, env=env, timeout=60)

    def test_counter_raised_by_one_fails(self):
        def edit(values):
            values["fixed.dc.newton_iterations"] += 1
        proc = self.gate(self.write_report("diff_base.json", edit))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("BENCH_GATE_FAIL kind=counter-regression "
                      "key=fixed.dc.newton_iterations", proc.stderr)

    def test_missing_required_zero_key_exits_2(self):
        def edit(values):
            del values["fixed.obs.stream_updates"]
        proc = self.gate(self.write_report("diff_base.json", edit))
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("kind=missing-key key=fixed.obs.stream_updates",
                      proc.stderr)

    @unittest.skipUnless(os.environ.get("SKS_REPORT"), "SKS_REPORT not set")
    def test_attribution_follows_failure_lines(self):
        def edit(values):
            values["fixed.obs.profile_builds"] = 1
        proc = self.gate(self.write_report("diff_current.json", edit),
                         "--attribute-with", os.environ["SKS_REPORT"])
        self.assertEqual(proc.returncode, 3, proc.stderr)
        err = proc.stderr
        last_fail = err.rindex("BENCH_GATE_FAIL kind=required-zero")
        first_row = err.index("#1 ")
        self.assertLess(last_fail, first_row, err)
        self.assertIn("esim.run_transient", err[first_row:])
        self.assertNotIn("attribution unavailable", err)

    def test_sentinel_flag_rejected(self):
        report = self.write_report("diff_base.json", lambda values: None)
        proc = self.gate(report, "--sentinel", "history.jsonl")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("unrecognized arguments: --sentinel", proc.stderr)


if __name__ == "__main__":
    unittest.main()
