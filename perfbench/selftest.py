"""Self-tests of the benchmark, on its smoke mode.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit, that
the checker flags results this file corrupts on purpose, and that the benchmark
refuses to run without the package source.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from nonlocalsolver import cli, solver  # noqa: E402

RUN = os.path.join(HERE, "run.py")
WORKDIR = os.path.join(ROOT, ".perfbench_work")


def run_bench(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=180, cwd=cwd)


class MetricsEmitted(unittest.TestCase):
    def test_every_named_metric_is_emitted(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for w in spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run_bench(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)

    def test_refuses_to_run_without_the_package(self):
        os.makedirs(WORKDIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORKDIR) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("fd_plan", 0, cwd=bare,
                             script=os.path.join(bare, "perfbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class CheckerFlagsCorruption(unittest.TestCase):
    def _library(self, cls):
        w = cls(5, smoke=True)
        w.compute_references()
        w.build()
        return w

    def test_library_results(self):
        for cls in (wl.FdPlan, wl.SpectralSweep):
            with self.subTest(workload=cls.name):
                w = self._library(cls)
                self.assertIsNone(w.run(0).error)
                problem, config, ts = w.built[0]
                samples = solver.solve_many(problem, config, ts)
                self.assertIsNone(w.check(0, samples, 0.0).error)
                shift = 10 * w.tolerance * w.u0_norm[0]
                bad = [dataclasses.replace(s, value=s.value + shift) for s in samples]
                self.assertIsNotNone(w.check(0, bad, 0.0).error)
                bad = [dataclasses.replace(s, value=np.full_like(s.value, np.nan)) for s in samples]
                self.assertIsNotNone(w.check(0, bad, 0.0).error)
                self.assertIsNotNone(w.check(0, samples[:-1], 0.0).error)

    def test_resolvent_count_change_is_a_failure(self):
        w = self._library(wl.FdPlan)
        original = solver.solve_many

        def one_solve_too_many(problem, config, ts):
            problem.op.resolvent_apply(1.0 + 1.0j, problem.u0)
            return original(problem, config, ts)

        solver.solve_many = one_solve_too_many
        try:
            outcome = w.run(0)
        finally:
            solver.solve_many = original
        self.assertIn("resolvent_calls", outcome.error)

    def test_cli_results(self):
        os.makedirs(WORKDIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
            w = wl.CliSmall(5, smoke=True, workdir=tmp)
            w.compute_references()
            w.build()
            for i, spec in enumerate(w.specs):
                with self.subTest(kind=spec["kind"], i=i):
                    self.assertIsNone(w.run(i).error)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        self.assertEqual(cli.main(list(w.built[i])), 0)
                    text = out.getvalue()
                    self.assertIsNone(w.check(i, text, 0.0).error)
                    lines = text.split("\n")
                    row = lines[1].split(",")
                    row[4] = repr(float(row[4]) + 10 * w.tolerance * w.refs[i][1])
                    corrupt = "\n".join([lines[0], ",".join(row)] + lines[2:])
                    self.assertIsNotNone(w.check(i, corrupt, 0.0).error)
                    self.assertIsNotNone(w.check(i, text.replace("n,N", "N,n", 1), 0.0).error)
            w.built[0] = ["reproduce", "--example", "1", "--n", "-1", "--N", "8"]
            self.assertIsNotNone(w.run(0).error)


class TracerReportsAbsentNames(unittest.TestCase):
    def test_absent_name_does_not_crash(self):
        saved = tr.TRACED
        tr.TRACED = saved + ((solver, "no_such_name", "solver.nothing", None),)
        try:
            tracer = tr.Tracer()
        finally:
            tr.TRACED = saved
        self.assertEqual(tracer.absent, ["nonlocalsolver.solver.no_such_name"])
        w = wl.SpectralSweep(5, smoke=True)
        w.compute_references()
        w.build()
        with tracer:
            self.assertIsNone(w.run(0).error)
        self.assertFalse(hasattr(solver, "no_such_name"))
        m = tracer.layer_metrics(1)
        self.assertEqual(m["trace.absent_names"], 1)
        self.assertEqual(m["operators.resolvent_calls"], w.expected_resolvents(0))


if __name__ == "__main__":
    unittest.main()
