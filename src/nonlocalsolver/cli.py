"""Command-line front end.

Subcommands:
  solve      run a problem described by a key = value config file
  reproduce  run one of the two built-in benchmark problems
  converge   emit the error decay of benchmark 1 over a list of N values
"""

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from .errors import ConfigError, ExistenceError, NumericalError, positive_finite
from .operators import (
    DiagonalOperator,
    Laplacian1D,
    SineSpectralOperator,
    poly_x2_1mx_coefficients,
)
from .quadrature import WeightFunction
from .solver import (
    CalibratedStep,
    FixedStep,
    NonlocalProblem,
    SolverConfig,
    UniformStep,
    WindowStep,
    _times,
    check_node_buffer,
    solve_at,
    solve_many,
)

# both benchmarks: T = pi/2, A = -d2/dx2 in sine modes; the row of benchmark k is
# u(t, x) at t = BENCH_T and x = BENCH_X[k]
BENCH_T, BENCH_X = 1.0, {1: 0.5, 2: 0.4}
# benchmark 1: w = cos(s), exact solution e^{-pi^2 t} sin(pi x); the initial-data
# coefficient that produces it is (1 + J) with J = (pi^2 + e^{-pi^3/2}) / (1 + pi^4)
BENCH1_C0 = (1.0 + math.pi**4 + math.pi**2 + math.exp(-math.pi**3 / 2)) / (
    1.0 + math.pi**4
)
# benchmark 2: w = cos(s^2), u0 = (1-x) x^2 in this many sine modes
BENCH2_MODES = 200

N_HELP = ("Gauss order: n+1 points per panel of the I(z) rule; the panel count "
          "is chosen per contour node")

# every config key and its default (_REQUIRED: a config must give it)
_REQUIRED = object()
_KEYS = {
    "operator": _REQUIRED, "T": _REQUIRED, "weight": _REQUIRED, "u0": _REQUIRED,
    "t": _REQUIRED, "n": str(SolverConfig.n), "N": str(SolverConfig.N),
    "rho1": str(SolverConfig.rho1), "x": "0.5", "step_mode": "uniform",
}


def _at(key, parse, *args, **kwargs):
    """parse(...), refusing its ValueError as a ConfigError that names key."""
    try:
        return parse(*args, **kwargs)
    except ValueError as e:  # ConfigError too; never nested, so one key per message
        raise ConfigError(f"key {key}: {e}") from None


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _real(text, within=None, source=""):
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"expected a real number{source}, got {text!r}") from None
    if within and not (within[0] <= v <= within[1]):  # refuses nan too
        raise ValueError(f"must lie in [{within[0]:g}, {within[1]:g}], got {v}")
    return v


def _list(text, parse, what):
    vals = [parse(p) for p in text.split(",") if p.strip()]
    if not vals:
        raise ValueError(f"at least one {what} is required")
    return vals


class RunConfig:
    """Validated contents of a config file."""

    def __init__(self, raw):
        self.operator = raw["operator"]
        # the library refuses n, N, T, rho1 and t in its own words; the CLI adds no rule
        self.n = _at("n", SolverConfig, n=_at("n", _int, raw["n"])).n
        self.N = _at("N", SolverConfig, N=_at("N", _int, raw["N"])).N
        self.T = _at("T", positive_finite, "horizon T", _at("T", _real, raw["T"]))
        self.rho1 = _at("rho1", SolverConfig, rho1=_at("rho1", _real, raw["rho1"])).rho1
        self.x = _at("x", _real, raw["x"], within=(0, 1))  # the problem lives on [0, 1]
        self.u0_spec = raw["u0"]
        self.weight = _at("weight", _parse_weight, raw["weight"])
        self.ts = _at("t", _times, _at("t", _list, raw["t"], _real, "time"))[0]
        self.step = _at("step_mode", _parse_step, raw["step_mode"], self.ts)


def _read(path, what):
    """The text of the file at path, decoded as UTF-8 with a leading BOM skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {what} {path!r}: {e}") from None


def _form(spec, forms, what, expected):
    """forms[NAME]() for a spec NAME, forms["NAME:"](ARG) for a spec NAME:ARG."""
    name, colon, arg = spec.partition(":")
    if name + colon not in forms:
        raise ValueError(f"unknown {what} {spec!r} (expected {expected})")
    return forms[name + colon](*([arg] if colon else []))


def _parse_weight(spec):
    return _form(spec, {
        "cos": WeightFunction.cos, "cos_square": WeightFunction.cos_square,
        "const:": lambda c: WeightFunction.constant(_real(c)),
        "poly:": lambda cs: WeightFunction.polynomial(map(_real, cs.split(","))),
    }, "form", "cos, cos_square, const:C or poly:c0,c1,...")


def _parse_step(spec, ts):
    def window():  # fitted to the earliest time; t = 0 lies outside every window
        t_min = min((t for t in ts if 0 < t < math.inf), default=None)
        if t_min is None:
            raise ValueError("window needs a time in (0, inf) in t")
        return WindowStep(t_min)
    return _form(spec, {
        "uniform": UniformStep, "uniform:": lambda alpha: UniformStep(_real(alpha)),
        "window": window, "calibrated": CalibratedStep,
        "fixed:": lambda h: FixedStep(h=_real(h)),
    }, "mode", "uniform[:ALPHA], window, calibrated or fixed:H")


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines; unknown keys are errors (fail-closed)."""
    given = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {body!r}")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        given[key] = value
    for key, default in _KEYS.items():
        if default is _REQUIRED and key not in given:
            raise ConfigError(f"missing required key {key!r}")
    return RunConfig({**_KEYS, **given})


def _build_operator(rc: RunConfig):
    size, make = _at("operator", _form, rc.operator, {  # each kind gives (size, constructor)
        "diagonal:": lambda ls: (ls.count(",") + 1,  # one dimension per eigenvalue
                                 lambda _: DiagonalOperator([_real(p) for p in ls.split(",")])),
        "laplacian1d:": lambda m: (_int(m), Laplacian1D),
        "sine_spectral:": lambda modes: (_int(modes), SineSpectralOperator),
    }, "kind", "sine_spectral:MODES, laplacian1d:M or diagonal:l1,l2,...")
    # refused before anything is allocated: one node's row under operator, all under N
    _at("operator", check_node_buffer, rc.n, 0, size)
    _at("N", check_node_buffer, rc.n, rc.N, size)
    return _at("operator", make, size)


def _build_u0(spec, op):
    def sine(arg):
        k = _int(arg)
        if not (1 <= k <= op.dim):
            raise ValueError(f"mode {k} outside 1..{op.dim}")
        if isinstance(op, Laplacian1D):
            return np.sin(k * math.pi * op.grid)
        return np.eye(1, op.dim, k - 1)[0]

    def poly_x2_1mx():
        if isinstance(op, SineSpectralOperator):
            return poly_x2_1mx_coefficients(op.dim)
        if isinstance(op, Laplacian1D):
            return (1.0 - op.grid) * op.grid * op.grid
        raise ValueError("poly_x2_1mx is not defined for diagonal operators")
    forms = {"sine:": sine, "poly_x2_1mx": poly_x2_1mx}
    if spec.partition(":")[0] in {form.rstrip(":") for form in forms}:  # else a file path
        return _form(spec, forms, "form", "sine:K, poly_x2_1mx or a file path")
    lines = map(str.strip, _read(spec, "file").splitlines())
    vals = [_real(v, source=f" in file {spec!r}") for v in lines if v]
    return np.asarray(vals)  # NonlocalProblem checks its length


def _sample_value(op, sample, x):
    """Scalar value for the CSV row; x is meaningless for diagonal operators."""
    if isinstance(op, SineSpectralOperator):
        return op.evaluate(sample.value, x), x
    if isinstance(op, Laplacian1D):
        xs = np.concatenate(([0.0], op.grid, [1.0]))
        vs = np.concatenate(([0.0], sample.value, [0.0]))
        return float(np.interp(x, xs, vs)), x
    i = int(np.argmax(np.abs(sample.value)))
    return float(sample.value[i]), None


def _fmt(v):
    if v is None:
        return ""
    return "%.17g" % v


def emit_csv(rows, path=None):
    """Write rows under the fixed header; path None means stdout."""
    lines = ["n,N,t,x,value,abs_error"] + [",".join(map(_fmt, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path!r}: {e}")


def _benchmark_value(w, u0, n, N, x):
    """u(BENCH_T, x) of a benchmark: A = -d2/dx2 in len(u0) sine modes, T = pi/2."""
    op = SineSpectralOperator(len(u0))
    problem = NonlocalProblem(op=op, T=math.pi / 2, w=w, u0=u0)
    sample = solve_at(problem, SolverConfig(n=n, N=N, step=CalibratedStep()), BENCH_T)
    return op.evaluate(sample.value, x)


def _benchmark1_value(n, N):
    return _benchmark_value(WeightFunction.cos(), np.array([BENCH1_C0]), n, N, BENCH_X[1])


def _benchmark2_value(n, N):
    u0 = poly_x2_1mx_coefficients(BENCH2_MODES)
    return _benchmark_value(WeightFunction.cos_square(), u0, n, N, BENCH_X[2])


def _example_plans(example, n, N):
    """(n, N, dim) of each plan that run_reproduction(example, n, N) solves, in
    order: the requested one and, for example 2, its self-reference."""
    if example == 1:
        return [(n, N, 1)]
    if example == 2:
        return [(n, N, BENCH2_MODES),
                (SolverConfig.n, max(2 * N, 512), BENCH2_MODES)]
    raise ConfigError(f"example must be 1 or 2, got {example}")


def run_reproduction(example: int, n: int, N: int):
    """The row of one benchmark run: (n, N, t, x, value, abs_error)."""
    plans = _example_plans(example, n, N)
    if example == 1:  # against the exact solution
        value = _benchmark1_value(n, N)
        ref = math.exp(-math.pi**2 * BENCH_T) * math.sin(math.pi * BENCH_X[1])
    else:  # against the self-reference, whose (n, N) lead its plan
        value = _benchmark2_value(n, N)
        ref = _benchmark2_value(*plans[1][:2])
    return n, N, BENCH_T, BENCH_X[example], value, abs(value - ref)


def run_solve(rc: RunConfig):
    op = _build_operator(rc)
    # T is checked already, so the problem can refuse only its u0
    problem = _at("u0", lambda: NonlocalProblem(op=op, T=rc.T, w=rc.weight,
                                                u0=_build_u0(rc.u0_spec, op)))
    config = SolverConfig(n=rc.n, N=rc.N, rho1=rc.rho1, step=rc.step)
    rows = []
    for sample in solve_many(problem, config, rc.ts):
        value, x = _sample_value(op, sample, rc.x)
        rows.append((rc.n, rc.N, sample.t, x, value, None))
    return rows


@functools.cache
def _parser():
    """The argument parser, built once per process: main can be called
    repeatedly in-process, and help text is still laid out when printed."""
    parser = argparse.ArgumentParser(
        prog="nonlocalsolver",
        description="Contour-quadrature solver for evolution equations with "
        "an integral nonlocal-in-time condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a problem from a config file")
    p_solve.add_argument("--config", required=True, help="key = value config file")

    p_rep = sub.add_parser("reproduce", help="run a built-in benchmark problem")
    p_rep.add_argument("--example", type=int, required=True, choices=(1, 2))
    p_rep.add_argument("--n", type=int, required=True, help=N_HELP)
    p_rep.add_argument("--N", type=int, required=True, help="Sinc truncation")

    p_conv = sub.add_parser("converge", help="error decay of benchmark 1 over N")
    p_conv.set_defaults(example=1)
    p_conv.add_argument("--n", type=int, required=True, help=N_HELP)
    p_conv.add_argument("--N-list", required=True, help="comma-separated N values")
    for p in (p_solve, p_rep, p_conv):
        p.add_argument("--out", help="CSV output path (default stdout)")
    return parser


def _main(argv):
    args = _parser().parse_args(argv)

    if args.command == "solve":
        rc = parse_config(_read(args.config, "config"))
        rows = run_solve(rc)
    else:  # reproduce one N, or converge over a list of them
        n = _at("--n", SolverConfig, n=args.n).n
        if args.command == "reproduce":
            flag, N_list = "--N", [args.N]
        else:
            flag = "--N-list"
            N_list = _at(flag, _list, args.N_list, _int, "N")
        for N in N_list:  # every plan is checked before the first solve
            _at(flag, SolverConfig, N=N)
            for plan in _example_plans(args.example, n, N):
                _at(flag, check_node_buffer, *plan)
        rows = [run_reproduction(args.example, n, N) for N in N_list]
    emit_csv(rows, args.out)
    return 0


def main(argv=None):
    """Return the exit code of one command; its warnings follow its output on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        # appended, so a filter already set (python -W, a test's) still applies
        warnings.simplefilter("always", append=True)
        try:
            return _main(argv)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        except ExistenceError as e:
            print(f"existence condition violated: {e}", file=sys.stderr)
            return 3
        except NumericalError as e:
            print(f"numerical failure: {e}", file=sys.stderr)
            return 4
        finally:  # every call shows its own warnings, each distinct one once
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
