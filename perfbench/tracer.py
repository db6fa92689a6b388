"""Spans around the package's public names, installed by the benchmark only.

The tracer replaces each traced name where its caller looks it up (a module
global or a class attribute), records one span per call and restores the
original names on ``uninstall``. Spans stay in memory until the run ends.
"""

import functools
import gzip
from time import perf_counter

import numpy as np

from nonlocalsolver import cli, operators, quadrature, solver


def _samples(problem, config, ts):
    return len(ts)


def _one_sample(problem, config, t):
    return 1


def _dim(op, z, v):
    return op.dim


def _weight_evals(rule, w, T, z):
    return np.size(z) * len(rule.nodes)


def _rows(rows, path=None):
    return len(rows)


# (owner, attribute, span name, work count from the call's arguments)
TRACED = (
    (solver, "solve_many", "solver.solve", _samples),
    (cli, "solve_many", "solver.solve", _samples),
    (cli, "solve_at", "solver.solve", _one_sample),
    (solver, "make_contour", "contour.make", None),
    (solver, "check_existence", "solver.check_existence", None),
    (solver, "gauss_legendre", "quadrature.gauss", None),
    (solver, "nonlocal_integral", "quadrature.denominator", _weight_evals),
    (quadrature.WeightFunction, "sup_norm", "quadrature.sup_norm", None),
    (operators.SectorialOperator, "modified_resolvent_apply", "operators.resolvent", _dim),
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "emit_csv", "cli.emit_csv", _rows),
    (cli, "main", "cli.main", None),
)

# span record layout
NAME, START, END, PARENT, REQUEST, FAILED, WORK = range(7)


class Tracer:
    """Spans of the traced names while installed; ``with tracer:`` installs it."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.absent = []
        self._stack = []
        self._patches = []
        self.names = set()  # span names that have at least one traced entry point
        for owner, attr, name, work in TRACED:
            original = owner.__dict__.get(attr)
            if original is None:
                self.absent.append(f"{owner.__name__}.{attr}")
                continue
            self._patches.append((owner, attr, original, self._wrap(name, original, work)))
            self.names.add(name)

    def __enter__(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, False,
                    work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def write(self, path):
        """Gzipped CSV, one span a line; times in microseconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,parent,request,start_us,end_us,failed,work\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[PARENT]},{s[REQUEST]},{(s[START] - t0) * 1e6:.3f},"
                         f"{(s[END] - t0) * 1e6:.3f},{int(s[FAILED])},{s[WORK]}\n")

    def resolvents_by_request(self):
        counts = {}
        for s in self.spans:
            if s[NAME] == "operators.resolvent":
                counts[s[REQUEST]] = counts.get(s[REQUEST], 0) + 1
        return counts

    def layer_metrics(self, passes):
        """Per-layer totals divided by the number of passes over the pool."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        calls, busy, own, work, failed = {}, {}, {}, {}, {}
        for i, s in enumerate(self.spans):
            name, dur = s[NAME], s[END] - s[START]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child[i]
            work[name] = work.get(name, 0) + s[WORK]
            layer = name.split(".")[0]
            failed[layer] = failed.get(layer, 0) + int(s[FAILED])

        def per_pass(table, name):
            return table.get(name, 0) / passes

        resolvent_s = busy.get("operators.resolvent", 0.0)
        samples = work.get("solver.solve", 0)
        m = {
            "operators.resolvent_calls": per_pass(calls, "operators.resolvent"),
            "operators.resolvent_s": resolvent_s / passes,
            "operators.dof_per_s": work.get("operators.resolvent", 0) / resolvent_s
            if resolvent_s > 0 else 0.0,
            "solver.solve_calls": per_pass(calls, "solver.solve"),
            "solver.solve_s": per_pass(busy, "solver.solve"),
            "solver.self_s": per_pass(own, "solver.solve"),
            "solver.self_us_per_sample": 1e6 * own.get("solver.solve", 0.0) / samples
            if samples else 0.0,
            "solver.check_existence_s": per_pass(busy, "solver.check_existence"),
            "quadrature.gauss_calls": per_pass(calls, "quadrature.gauss"),
            "quadrature.gauss_s": per_pass(busy, "quadrature.gauss"),
            "quadrature.denominator_s": per_pass(busy, "quadrature.denominator"),
            "quadrature.weight_evals": per_pass(work, "quadrature.denominator"),
            "quadrature.sup_norm_s": per_pass(busy, "quadrature.sup_norm"),
            "contour.make_s": per_pass(busy, "contour.make"),
            "cli.main_calls": per_pass(calls, "cli.main"),
            "cli.main_s": per_pass(busy, "cli.main"),
            "cli.self_s": per_pass(own, "cli.main"),
            "cli.parse_config_s": per_pass(busy, "cli.parse_config"),
            "cli.emit_csv_s": per_pass(busy, "cli.emit_csv"),
            "cli.rows": per_pass(work, "cli.emit_csv"),
            "trace.spans": len(self.spans) / passes,
            "trace.absent_names": len(self.absent),
        }
        for layer in ("operators", "quadrature", "contour", "solver", "cli"):
            m[f"{layer}.failed_spans"] = failed.get(layer, 0) / passes
        return m
