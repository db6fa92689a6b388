"""Fingerprint the solver's output over a fixed grid of plans, or the CLI's.

    python tools/fingerprint.py SRC_DIR
    python tools/fingerprint.py --cli SRC_DIR
    python tools/fingerprint.py --oracle SRC_DIR
    python tools/fingerprint.py --refusals SRC_DIR

imports nonlocalsolver from SRC_DIR (for instance the src directory of
another checkout) and runs solve_many on 192 plans: 3 operators x 4 weights
x (n, N) in {(8, 16), (16, 64)} x 4 step rules x both sums, at 6 times from 0
to inf. It prints the plan count, with the number refused, and one SHA-256
over every plan's values, grids, condition reports and resolvent counts; a
refused plan contributes its error instead. At one time of each plan it
asserts that solve_at gives the same bits as solve_many. Two trees that print
the same digest gave the same results bit for bit, on the same machine and
BLAS.

With --cli it runs instead the 600 requests of the benchmark's cli_small
workload for seeds 1 to 3 (perfbench/workloads.py, CliSmall, read from this
checkout), each through nonlocalsolver.cli.main in this process. It prints the
call count, with the number that exited nonzero, and one SHA-256 over every
call's exit code and standard output.

With --oracle it fingerprints the reference solver instead: the Laplace
integral J(lam) of weight_laplace_integral for five weights (cos, cos(s^2), a
constant, a quadratic and cos(400 s)), five horizons T and 23 lam from 1e-3 to
1e8; reference_solution on the 3 operators x 4 weights above at 3 horizons and
4 times; and every reference that the three benchmark workloads compute for
seeds 1 to 3 (perfbench/workloads.py, read from this checkout). It prints the
count of values, with the number refused, and one SHA-256 over all of them; a
refusal contributes its error instead.

With --refusals it feeds the bad library inputs, each row of the tables of
tests/test_inputs.py (read from this checkout, after nonlocalsolver is
imported from SRC_DIR), to the public constructors and entry points, with a
warning raised as an error. It then feeds the CLI's config forms that it
refuses, each through nonlocalsolver.cli.main(["solve", "--config", ...]) in a
temporary directory: operator kinds that are unknown, written without their
colon, with an empty or non-integer size, or with a bad eigenvalue; unknown
weight and step_mode forms; a u0 sine mode out of range, empty or not an
integer; and u0 forms written without their argument (sine) or with one they
do not take (poly_x2_1mx:3), which are refused as forms, not read as file
paths. It prints one line per input: "test ID -> Type: message" or "test ID ->
accepted" for a library row, "label -> exit N: <first stderr line>" for a CLI
form, and one SHA-256 over all of them, so that two trees can be compared line
by line.
"""

import contextlib
import hashlib
import io
import itertools
import math
import os
import sys
import tempfile
import warnings

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH, TESTS = os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")


def main(src):
    sys.path.insert(0, src)
    import nonlocalsolver as ns

    operators = (lambda: ns.DiagonalOperator([2.0, 9.0, 30.0]),
                 lambda: ns.Laplacian1D(40), lambda: ns.SineSpectralOperator(30))
    weights = (ns.WeightFunction.cos(), ns.WeightFunction.cos_square(),
               ns.WeightFunction.constant(-0.5),
               ns.WeightFunction.polynomial([0.3, -0.1, 0.05]))
    orders = ((8, 16), (16, 64))
    steps = (ns.UniformStep(), ns.WindowStep(0.05), ns.CalibratedStep(), ns.FixedStep(0.2))
    ts = [0.0, 0.05, 0.3, 1.0, 5.0, math.inf]
    digest = hashlib.sha256()
    plans = refused = 0
    for i, (make_op, w, (n, N), step, use_symmetry) in enumerate(
            itertools.product(operators, weights, orders, steps, (True, False))):
        op = make_op()
        problem = ns.NonlocalProblem(op=op, T=0.5, w=w, u0=np.cos(np.arange(op.dim) + 0.5))
        config = ns.SolverConfig(n=n, N=N, step=step, use_symmetry=use_symmetry)
        plans += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                samples = ns.solve_many(problem, config, ts)
            except Exception as e:  # a refusal is part of the fingerprint
                digest.update(f"{type(e).__name__}: {e}".encode())
                refused += 1
                continue
            calls = op.resolvent_calls
            t = ts[i % len(ts)]
            one = ns.solve_at(problem, config, t).value.view(np.uint64)
            many = samples[i % len(ts)].value.view(np.uint64)
            assert np.array_equal(one, many), f"plan {i}: solve_at({t}) differs from solve_many"
        for s in samples:
            digest.update(s.value.tobytes())
            digest.update(repr((s.t, s.grid, s.report)).encode())
        digest.update(repr(calls).encode())
    print(f"plans {plans} (refused {refused})")
    print(f"sha256 {digest.hexdigest()}")


def cli_calls(src):
    sys.path[:0] = [src, PERFBENCH]
    from nonlocalsolver import cli
    from workloads import CliSmall

    digest = hashlib.sha256()
    calls = nonzero = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in (1, 2, 3):
            workload = CliSmall(seed, workdir=os.path.join(workdir, str(seed)))
            workload.build()
            for argv in workload.built:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(argv))
                calls += 1
                nonzero += code != 0
                digest.update(f"{code}\n{out.getvalue()}".encode())
    print(f"calls {calls} (exit != 0: {nonzero})")
    print(f"sha256 {digest.hexdigest()}")


def _feed(digest, value):
    """Hash a float, an array, or a list or tuple of them, nested."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _feed(digest, item)
    else:
        digest.update(np.asarray(value, dtype=float).tobytes())


def oracle_values(src):
    sys.path[:0] = [src, PERFBENCH]
    import nonlocalsolver as ns
    from nonlocalsolver.oracle import weight_laplace_integral
    from workloads import WORKLOADS

    digest = hashlib.sha256()
    values = refused = 0

    def record(compute):
        nonlocal values, refused
        values += 1
        try:
            _feed(digest, compute())
        except Exception as e:  # a refusal is part of the fingerprint
            digest.update(f"{type(e).__name__}: {e}".encode())
            refused += 1

    weights = (ns.WeightFunction.cos(), ns.WeightFunction.cos_square(),
               ns.WeightFunction.constant(-0.5),
               ns.WeightFunction.polynomial([0.3, -0.1, 0.05]),
               ns.WeightFunction.from_callable(lambda s: np.cos(400.0 * s), 1.0))
    for w, T, lam in itertools.product(weights, (0.5, 1.0, math.pi / 2, 2.0, 5.0),
                                       np.logspace(-3, 8, 23).tolist()):
        record(lambda: weight_laplace_integral(w, lam, T))
    operators = (ns.DiagonalOperator([2.0, 9.0, 30.0]), ns.Laplacian1D(40),
                 ns.SineSpectralOperator(30))
    for op, w, T in itertools.product(operators, weights[:4], (0.5, 1.0, 2.0)):
        u0 = np.cos(np.arange(op.dim) + 0.5)
        record(lambda: ns.reference_solution(op, w, T, u0, [0.0, 0.3, 1.0, math.inf]))
    for seed, workload in itertools.product((1, 2, 3), WORKLOADS.values()):
        bench = workload(seed)
        before = set(vars(bench))
        bench.compute_references()
        for name in sorted(set(vars(bench)) - before):
            record(lambda: getattr(bench, name))
    print(f"values {values} (refused {refused})")
    print(f"sha256 {digest.hexdigest()}")


def _cli_refusals(cli, workdir):
    """(label, outcome) for every config form that --refusals feeds to the CLI,
    each as the only bad key of an otherwise valid solve config."""
    base = {"operator": "diagonal:2,5", "T": "1.0", "weight": "cos", "u0": "sine:1",
            "t": "0.5"}
    cases = [("operator", v) for v in (
        "bogus", "bogus:1", "diagonal", "laplacian1d", "sine_spectral", "diagonal:",
        "laplacian1d:", "sine_spectral:", "laplacian1d:2.5", "sine_spectral:abc",
        "diagonal:2,x")]
    cases += [("weight", "const"), ("weight", "sin"), ("step_mode", "fixed"),
              ("step_mode", "window:1"), ("u0", "sine:0"), ("u0", "sine:x"),
              ("u0", "sine"), ("u0", "sine:"), ("u0", "poly_x2_1mx:3")]
    path = os.path.join(workdir, "refused.cfg")
    for key, value in cases:
        with open(path, "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in {**base, key: value}.items())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["solve", "--config", path])
        first_line = err.getvalue().partition("\n")[0]
        yield f"solve({key} = {value})", f"exit {code}: {first_line}"


def refusals(src):
    sys.path[:0] = [src, TESTS]
    from nonlocalsolver import cli
    from test_inputs import cases

    digest = hashlib.sha256()

    def report(label, outcome):
        line = f"{label} -> {outcome}"
        print(line)
        digest.update(f"{line}\n".encode())

    for label, call in cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call()
                outcome = "accepted"
            except Exception as e:  # the refusal is the output
                outcome = f"{type(e).__name__}: {e}"
        report(label, outcome)
    with tempfile.TemporaryDirectory() as workdir:
        for label, outcome in _cli_refusals(cli, workdir):
            report(label, outcome)
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--cli"] and len(args) == 2:
        cli_calls(args[1])
    elif args[:1] == ["--oracle"] and len(args) == 2:
        oracle_values(args[1])
    elif args[:1] == ["--refusals"] and len(args) == 2:
        refusals(args[1])
    elif len(args) == 1:
        main(args[0])
    else:
        sys.exit("usage: python tools/fingerprint.py [--cli | --oracle | --refusals] SRC_DIR")
