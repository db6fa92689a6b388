"""Command-line front end.

Subcommands:
  solve      run a problem described by a key = value config file
  reproduce  run one of the two built-in benchmark problems
  converge   emit the error decay of benchmark 1 over a list of N values
"""

import argparse
import math
import sys

import numpy as np

from .errors import ConfigError, ExistenceError, NumericalError
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
    LargeTStep,
    NonlocalProblem,
    SolverConfig,
    UniformStep,
    solve_at,
    solve_many,
)

# benchmark 1: w = cos(s), T = pi/2, A = -d2/dx2, exact solution
# e^{-pi^2 t} sin(pi x); the initial-data coefficient that produces it is
# (1 + J) with J = (pi^2 + e^{-pi^3/2}) / (1 + pi^4)
BENCH1_C0 = (1.0 + math.pi**4 + math.pi**2 + math.exp(-math.pi**3 / 2)) / (
    1.0 + math.pi**4
)

_KNOWN_KEYS = {
    "operator", "modes", "m", "T", "weight", "u0", "n", "N",
    "alpha", "rho1", "t", "x", "step_mode", "c1", "out",
}

_DEFAULTS = {
    "n": "16", "N": "64", "alpha": "0.5", "rho1": "0",
    "x": "0.5", "step_mode": "uniform", "c1": "1",
}


class RunConfig:
    """Validated contents of a config file."""

    def __init__(self, raw):
        self.raw = raw
        self.operator = raw["operator"]
        self.n = self._int("n", low=0)
        self.N = self._int("N", low=0)
        self.T = self._float("T", positive=True)
        self.alpha = self._float("alpha")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"key alpha: must lie in (0,1), got {self.alpha}")
        self.rho1 = self._float("rho1")
        self.x = self._float("x")
        self.u0_spec = raw["u0"]
        self.out = raw.get("out")
        self.weight = _parse_weight(raw["weight"])
        self.step = _parse_step(raw["step_mode"], float(raw["c1"]))
        try:
            self.ts = [float(p) for p in raw["t"].split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"key t: expected comma-separated reals, got {raw['t']!r}")
        if not self.ts:
            raise ConfigError("key t: at least one time is required")
        if not all(t >= 0 for t in self.ts):
            raise ConfigError("key t: times must be nonnegative")

    def _int(self, key, low=None):
        try:
            v = int(self.raw[key])
        except ValueError:
            raise ConfigError(f"key {key}: expected an integer, got {self.raw[key]!r}")
        if low is not None and v < low:
            raise ConfigError(f"key {key}: must be >= {low}, got {v}")
        return v

    def _float(self, key, positive=False):
        try:
            v = float(self.raw[key])
        except ValueError:
            raise ConfigError(f"key {key}: expected a real number, got {self.raw[key]!r}")
        if positive and not (0 < v < math.inf):
            raise ConfigError(f"key {key}: must be positive and finite, got {v}")
        return v


def _parse_weight(spec):
    if spec == "cos":
        return WeightFunction.cos()
    if spec == "cos_square":
        return WeightFunction.cos_square()
    if spec.startswith("const:"):
        try:
            return WeightFunction.constant(float(spec[len("const:"):]))
        except ValueError:
            raise ConfigError(f"key weight: bad constant in {spec!r}")
    if spec.startswith("poly:"):
        try:
            coeffs = [float(p) for p in spec[len("poly:"):].split(",")]
        except ValueError:
            raise ConfigError(f"key weight: bad coefficient list in {spec!r}")
        return WeightFunction.polynomial(coeffs)
    raise ConfigError(
        f"key weight: unknown form {spec!r} "
        "(expected cos, cos_square, const:C or poly:c0,c1,...)"
    )


def _parse_step(spec, c1):
    if spec == "uniform":
        return UniformStep()
    if spec == "large_t":
        return LargeTStep(c1=c1)
    if spec == "calibrated":
        return CalibratedStep()
    if spec.startswith("fixed:"):
        try:
            return FixedStep(h=float(spec[len("fixed:"):]))
        except ValueError:
            raise ConfigError(f"key step_mode: bad step size in {spec!r}")
    raise ConfigError(
        f"key step_mode: unknown mode {spec!r} "
        "(expected uniform, large_t, calibrated or fixed:H)"
    )


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines; unknown keys are errors (fail-closed)."""
    raw = dict(_DEFAULTS)
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {body!r}")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        raw[key] = value
    for req in ("operator", "T", "weight", "u0", "t"):
        if req not in raw:
            raise ConfigError(f"missing required key {req!r}")
    return RunConfig(raw)


def _build_operator(rc: RunConfig):
    spec = rc.operator
    if spec == "sine_spectral":
        modes = int(rc.raw.get("modes", rc.raw.get("m", "0")))
        if modes < 1:
            raise ConfigError("key modes: sine_spectral needs modes >= 1")
        return SineSpectralOperator(modes)
    if spec == "laplacian1d":
        m = int(rc.raw.get("m", rc.raw.get("modes", "0")))
        if m < 2:
            raise ConfigError("key m: laplacian1d needs m >= 2")
        return Laplacian1D(m)
    if spec.startswith("diagonal:"):
        try:
            lams = [float(p) for p in spec[len("diagonal:"):].split(",")]
        except ValueError:
            raise ConfigError(f"key operator: bad eigenvalue list in {spec!r}")
        try:
            return DiagonalOperator(lams)
        except ValueError as e:
            raise ConfigError(f"key operator: {e}")
    raise ConfigError(
        f"key operator: unknown kind {rc.operator!r} "
        "(expected sine_spectral, laplacian1d or diagonal:l1,l2,...)"
    )


def _build_u0(rc: RunConfig, op):
    spec = rc.u0_spec
    if spec.startswith("sine:"):
        try:
            k = int(spec[len("sine:"):])
        except ValueError:
            raise ConfigError(f"key u0: bad mode index in {spec!r}")
        if not (1 <= k <= op.dim):
            raise ConfigError(f"key u0: mode {k} outside 1..{op.dim}")
        if isinstance(op, Laplacian1D):
            return np.sin(k * math.pi * op.grid)
        e = np.zeros(op.dim)
        e[k - 1] = 1.0
        return e
    if spec == "poly_x2_1mx":
        if isinstance(op, SineSpectralOperator):
            return poly_x2_1mx_coefficients(op.modes)
        if isinstance(op, Laplacian1D):
            x = op.grid
            return (1.0 - x) * x * x
        raise ConfigError("key u0: poly_x2_1mx is not defined for diagonal operators")
    try:
        with open(spec) as fh:
            vals = [float(line) for line in fh if line.strip()]
    except OSError as e:
        raise ConfigError(f"key u0: cannot read file {spec!r}: {e}")
    except ValueError:
        raise ConfigError(f"key u0: file {spec!r} must hold one real per line")
    if len(vals) != op.dim:
        raise ConfigError(
            f"key u0: file has {len(vals)} values, operator dim is {op.dim}"
        )
    return np.asarray(vals)


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
    if isinstance(v, int):
        return str(v)
    return "%.17g" % v


def emit_csv(rows, path=None):
    """Write rows under the fixed header; path None means stdout."""
    lines = ["n,N,t,x,value,abs_error"]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path!r}: {e}")


def _benchmark1_value(n, N, t=1.0, x=0.5):
    op = SineSpectralOperator(1)
    problem = NonlocalProblem(
        op=op, T=math.pi / 2, w=WeightFunction.cos(), u0=np.array([BENCH1_C0])
    )
    config = SolverConfig(n=n, N=N, step=CalibratedStep())
    sample = solve_at(problem, config, t)
    return op.evaluate(sample.value, x)


def _benchmark2_value(n, N, t=1.0, x=0.4, modes=200):
    op = SineSpectralOperator(modes)
    problem = NonlocalProblem(
        op=op,
        T=math.pi / 2,
        w=WeightFunction.cos_square(),
        u0=poly_x2_1mx_coefficients(modes),
    )
    config = SolverConfig(n=n, N=N, step=CalibratedStep())
    sample = solve_at(problem, config, t)
    return op.evaluate(sample.value, x)


def run_reproduction(example: int, n: int, N: int):
    """Rows for one benchmark run: (n, N, t, x, value, abs_error)."""
    if example == 1:
        t, x = 1.0, 0.5
        value = _benchmark1_value(n, N, t, x)
        exact = math.exp(-math.pi**2 * t) * math.sin(math.pi * x)
        return [(n, N, t, x, value, abs(value - exact))]
    if example == 2:
        t, x = 1.0, 0.4
        value = _benchmark2_value(n, N, t, x)
        ref = _benchmark2_value(max(2 * n, 64), max(2 * N, 512), t, x)
        return [(n, N, t, x, value, abs(value - ref))]
    raise ConfigError(f"example must be 1 or 2, got {example}")


def run_convergence(n: int, N_list):
    """Error of benchmark 1 at (t=1, x=0.5) for each N in N_list."""
    return [run_reproduction(1, n, N)[0] for N in N_list]


def run_solve(rc: RunConfig):
    op = _build_operator(rc)
    u0 = _build_u0(rc, op)
    try:
        problem = NonlocalProblem(op=op, T=rc.T, w=rc.weight, u0=u0, alpha=rc.alpha)
        config = SolverConfig(n=rc.n, N=rc.N, rho1=rc.rho1, step=rc.step)
    except ValueError as e:
        raise ConfigError(str(e))
    samples = solve_many(problem, config, rc.ts)
    rows = []
    for sample in samples:
        value, x = _sample_value(op, sample, rc.x)
        rows.append((rc.n, rc.N, sample.t, x, value, None))
    return rows


def _main(argv):
    parser = argparse.ArgumentParser(
        prog="nonlocalsolver",
        description="Contour-quadrature solver for evolution equations with "
        "an integral nonlocal-in-time condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a problem from a config file")
    p_solve.add_argument("--config", required=True, help="key = value config file")
    p_solve.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_rep = sub.add_parser("reproduce", help="run a built-in benchmark problem")
    p_rep.add_argument("--example", type=int, required=True, choices=(1, 2))
    p_rep.add_argument("--n", type=int, required=True, help="Gauss order (n+1 points)")
    p_rep.add_argument("--N", type=int, required=True, help="Sinc truncation")
    p_rep.add_argument("--out", default=None)

    p_conv = sub.add_parser("converge", help="error decay of benchmark 1 over N")
    p_conv.add_argument("--example", type=int, default=1, choices=(1,))
    p_conv.add_argument("--n", type=int, required=True)
    p_conv.add_argument("--N-list", required=True, help="comma-separated N values")
    p_conv.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "solve":
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {args.config!r}: {e}")
        rc = parse_config(text)
        rows = run_solve(rc)
        emit_csv(rows, args.out if args.out is not None else rc.out)
    elif args.command == "reproduce":
        rows = run_reproduction(args.example, args.n, args.N)
        emit_csv(rows, args.out)
    else:
        try:
            N_list = [int(p) for p in args.N_list.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"bad N list {args.N_list!r}")
        if not N_list:
            raise ConfigError("N list is empty")
        rows = run_convergence(args.n, N_list)
        emit_csv(rows, args.out)
    return 0


def main(argv=None):
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


if __name__ == "__main__":
    sys.exit(main())
