"""Seeded workloads: request pools, references and result checks.

Each workload draws a pool of requests from its seed. Parameters that set a
request's cost (operator size, fold or full sum, command kind) follow a fixed
cycle, so the latency distribution has the same shape for every seed; the seed
draws the data (weights, initial data, times, eigenvalues). The timed loop walks
the pool in order and starts again at its head.

Every result is checked against a reference computed from
``nonlocalsolver.oracle`` before the timed phase, and cached per problem. The
oracle is never timed.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from nonlocalsolver import cli, oracle, quadrature, solver
from nonlocalsolver.operators import (
    Laplacian1D,
    SineSpectralOperator,
    poly_x2_1mx_coefficients,
)
from nonlocalsolver.quadrature import WeightFunction

CSV_HEADER = "n,N,t,x,value,abs_error"


@dataclass
class Outcome:
    """One request: time spent in the call, samples returned, and the check."""

    elapsed: float
    samples: int
    digits: float
    error: str | None = None


def digits(rel_err):
    """Correct digits, -log10 of the error relative to ||u0||_inf (capped at 17)."""
    if not math.isfinite(rel_err):
        return 0.0
    return -math.log10(max(rel_err, 1e-17))


def make_weight(spec):
    """WeightFunction from a ("cos" | "cos_square" | "const" | "poly", coeffs) spec."""
    kind, coeffs = spec
    if kind == "cos":
        return WeightFunction.cos()
    if kind == "cos_square":
        return WeightFunction.cos_square()
    if kind == "const":
        return WeightFunction.constant(coeffs[0])
    return WeightFunction.polynomial(coeffs)


def weight_cli_spec(spec):
    kind, coeffs = spec
    if kind in ("cos", "cos_square"):
        return kind
    return kind + ":" + ",".join(repr(c) for c in coeffs)


class JCache:
    """J(lam) = int_0^T w(s) e^{-lam s} ds from the oracle, cached per problem data."""

    def __init__(self):
        self._values = {}

    def __call__(self, wspec, T, lam):
        key = (wspec[0], tuple(wspec[1]), T, lam)
        if key not in self._values:
            self._values[key] = oracle.weight_laplace_integral(make_weight(wspec), lam, T)
        return self._values[key]


def _log_uniform(rng, low, high, size):
    return np.exp(rng.uniform(math.log(low), math.log(high), size))


class Workload:
    """Base class: subclasses fill the pool, references, build and run."""

    name = ""
    tolerance = 0.0  # max ||u_h(t) - u_ref(t)||_inf / ||u0||_inf per sample
    cycle = ()  # cost-setting parameters, one entry per position in the pool
    cycles = 1  # the pool repeats the cycle this many times (once in smoke mode)
    warmup_key = ""  # spec field naming the operator or command kind

    def __init__(self, seed, smoke=False):
        self.rng = np.random.default_rng(seed)
        self.pool_size = len(self.cycle) * (1 if smoke else self.cycles)
        self.specs = [self.make_spec(i) for i in range(self.pool_size)]
        self.built = None

    def make_spec(self, i):
        raise NotImplementedError

    def compute_references(self):
        """Oracle references for every request in the pool (untimed)."""
        raise NotImplementedError

    def build(self):
        """Operators, problems, u0 and config files: the timed set-up."""
        raise NotImplementedError

    def warmup_indices(self):
        """Pool positions run once in set-up: the first of each operator or command kind."""
        first = {}
        for i, spec in enumerate(self.specs):
            first.setdefault(spec[self.warmup_key], i)
        return sorted(first.values())

    def run(self, i) -> Outcome:
        raise NotImplementedError

    def expected_resolvents(self, i):
        """Resolvent solves request i must make: N+1 folded, 2N+1 full."""
        raise NotImplementedError


def _solves(N, use_symmetry):
    return N + 1 if use_symmetry else 2 * N + 1


class _LibraryWorkload(Workload):
    """Requests that call ``solver.solve_many`` on a prebuilt problem."""

    def run(self, i):
        problem, config, ts = self.built[i]
        op = problem.op
        before = op.resolvent_calls
        t0 = perf_counter()
        try:
            samples = solver.solve_many(problem, config, ts)
        except Exception as e:  # a failed request is counted, not fatal
            return Outcome(perf_counter() - t0, 0, 0.0, f"{type(e).__name__}: {e}")
        elapsed = perf_counter() - t0
        calls = op.resolvent_calls - before
        expected = self.expected_resolvents(i)
        if calls != expected:
            return Outcome(elapsed, len(samples), 0.0,
                           f"resolvent_calls moved by {calls}, expected {expected}")
        return self.check(i, samples, elapsed)

    def check(self, i, samples, elapsed):
        ts = self.built[i][2]
        if len(samples) != len(ts):
            return Outcome(elapsed, len(samples), 0.0,
                           f"{len(samples)} samples for {len(ts)} times")
        worst = math.inf
        for j, sample in enumerate(samples):
            if sample.t != ts[j]:
                return Outcome(elapsed, len(samples), 0.0,
                               f"sample {j} is at t={sample.t}, asked {ts[j]}")
            value = np.asarray(sample.value)
            ref = self.reference(i, j)
            if value.shape != ref.shape or not np.all(np.isfinite(value)):
                return Outcome(elapsed, len(samples), 0.0,
                               f"sample {j}: non-finite or misshapen value")
            rel = float(np.max(np.abs(value - ref))) / self.u0_norm[i]
            worst = min(worst, digits(rel))
            if not rel <= self.tolerance:
                return Outcome(elapsed, len(samples), worst,
                               f"sample {j} at t={ts[j]}: rel error {rel:.3e} "
                               f"> tolerance {self.tolerance:g}")
        return Outcome(elapsed, len(samples), worst)


class FdPlan(_LibraryWorkload):
    """Finite-difference Laplacian: the scalar Thomas sweep dominates."""

    name = "fd_plan"
    warmup_key = "m"
    tolerance = 1e-3
    n, N = 16, 64
    # (m, use_symmetry, number of times): m in proportion 500:1000:2000 =
    # 2:3:3 and one request in four summing the full 2N+1 nodes at m=2000.
    # Costs (dof-solves) sort into plateaus of 25, 37.5, 12.5 and 25 percent,
    # so p50 falls inside the m=1000 folded class and p90 inside the m=2000
    # full class, whatever the seed.
    cycle = ((500, True, 1), (1000, True, 2), (2000, False, 3), (500, True, 4),
             (1000, True, 1), (2000, True, 2), (1000, True, 3), (2000, False, 4))
    cycles = 12
    # u0 mixes all discrete sine modes 1..8 with seeded signs and magnitudes
    # in [0.5, 1]; T and t come from fixed grids. With a continuous mix the
    # worst sample of a pool, and so digits_min, swung with the seed.
    modes = 8
    horizons = (0.5, 1.0, math.pi / 2, 2.0)
    times = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)

    def make_spec(self, i):
        rng = self.rng
        m, sym, count = self.cycle[i % len(self.cycle)]
        kind = ("cos", "cos_square", "poly")[int(rng.integers(3))]
        coeffs = ()
        if kind == "poly":
            coeffs = (float(rng.uniform(0.2, 0.8)), float(rng.uniform(-0.3, 0.3)),
                      float(rng.uniform(-0.1, 0.1)))
        amps = rng.choice([-1.0, 1.0], self.modes) * rng.uniform(0.5, 1.0, self.modes)
        return {
            "m": m, "use_symmetry": sym, "w": (kind, coeffs),
            "T": float(rng.choice(self.horizons)),
            "ks": list(range(1, self.modes + 1)), "amps": [float(a) for a in amps],
            "ts": [float(t) for t in rng.choice(self.times, size=count, replace=False)],
        }

    def compute_references(self):
        jc = JCache()
        self.refs = []
        self.u0_norm = []
        for spec in self.specs:
            op = Laplacian1D(spec["m"])
            x = op.grid
            basis = np.array([np.sin(k * math.pi * x) for k in spec["ks"]])
            lam = np.array([op.eigenvalue(k) for k in spec["ks"]])
            den = np.array([1.0 + jc(spec["w"], spec["T"], float(l)) for l in lam])
            amp = np.asarray(spec["amps"]) / den
            self.refs.append([(amp * np.exp(-lam * t)) @ basis for t in spec["ts"]])
            self.u0_norm.append(float(np.max(np.abs(np.asarray(spec["amps"]) @ basis))))

    def reference(self, i, j):
        return self.refs[i][j]

    def build(self):
        ops = {m: Laplacian1D(m) for m in sorted({c[0] for c in self.cycle})}
        built = []
        for spec in self.specs:
            op = ops[spec["m"]]
            x = op.grid
            u0 = sum(a * np.sin(k * math.pi * x) for k, a in zip(spec["ks"], spec["amps"]))
            problem = solver.NonlocalProblem(op=op, T=spec["T"], w=make_weight(spec["w"]), u0=u0)
            config = solver.SolverConfig(n=self.n, N=self.N, use_symmetry=spec["use_symmetry"])
            built.append((problem, config, spec["ts"]))
        self.built = built

    def expected_resolvents(self, i):
        return _solves(self.N, self.specs[i]["use_symmetry"])


class SpectralSweep(_LibraryWorkload):
    """Sine-spectral Laplacian, example-2 data: the per-time sum dominates."""

    name = "spectral_sweep"
    warmup_key = "modes"
    tolerance = 1e-4
    n, N = 16, 64
    T = math.pi / 2
    weight = ("cos_square", ())
    # The (N+1) x modes complex node stack is 2 MB at 2000 modes and 8 MB at
    # 8000, on either side of the L2 size; 2:1 keeps p50 and p90 in one class.
    cycle = (2000, 2000, 8000)
    cycles = 8
    times = 50

    def make_spec(self, i):
        ts = _log_uniform(self.rng, 0.01, self.T, self.times)
        return {"modes": self.cycle[i % len(self.cycle)], "ts": [float(t) for t in ts]}

    def compute_references(self):
        # one problem per mode count; modes share eigenvalues (k pi)^2
        top = max(self.cycle)
        lam = SineSpectralOperator(top).eigenvalues
        w = make_weight(self.weight)
        J = np.array([oracle.weight_laplace_integral(w, float(l), self.T) for l in lam])
        amp = poly_x2_1mx_coefficients(top) / (1.0 + J)
        self._lam = lam
        self._amp = amp
        norms = {m: float(np.max(np.abs(poly_x2_1mx_coefficients(m)))) for m in self.cycle}
        self.u0_norm = [norms[s["modes"]] for s in self.specs]

    def reference(self, i, j):
        m = self.specs[i]["modes"]
        return self._amp[:m] * np.exp(-self._lam[:m] * self.specs[i]["ts"][j])

    def build(self):
        problems = {}
        for m in sorted(set(self.cycle)):
            problems[m] = solver.NonlocalProblem(
                op=SineSpectralOperator(m), T=self.T, w=make_weight(self.weight),
                u0=poly_x2_1mx_coefficients(m))
        config = solver.SolverConfig(n=self.n, N=self.N, step=solver.CalibratedStep())
        self.built = [(problems[s["modes"]], config, s["ts"]) for s in self.specs]

    def expected_resolvents(self, i):
        return _solves(self.N, True)


def _bench1_u0_norm():
    # benchmark 1: u(t) = e^{-pi^2 t} sin(pi x), so u0 = (1 + J(pi^2)) sin(pi x)
    return 1.0 + oracle.weight_laplace_integral(WeightFunction.cos(), math.pi**2, math.pi / 2)


def _bench1_exact(t, x):
    return math.exp(-math.pi**2 * t) * math.sin(math.pi * x)


class CliSmall(Workload):
    """In-process CLI calls on tiny problems: per-call Python overhead dominates."""

    name = "cli_small"
    warmup_key = "kind"
    tolerance = 1e-4
    # Per 20 requests: 8 reproduce --example 1, 7 solve --config (diagonal),
    # 4 converge and 1 reproduce --example 2. Each position fixes what sets
    # the cost: (n, N), the N list, or the number of times of a solve.
    cycle = (
        ("rep1", 8, 16), ("solve", 1), ("rep1", 12, 24), ("converge", 12, (16, 32, 64)),
        ("solve", 2), ("rep1", 16, 32), ("solve", 3), ("rep1", 16, 48),
        ("converge", 16, (24, 48, 64)), ("solve", 4), ("rep1", 8, 24), ("rep2", 16, 64),
        ("solve", 1), ("rep1", 12, 32), ("converge", 16, (16, 24, 48)), ("solve", 2),
        ("rep1", 16, 16), ("solve", 3), ("rep1", 12, 48), ("converge", 12, (32, 48, 64)),
    )
    cycles = 10
    EX2_MODES, EX2_T, EX2_X = 200, 1.0, 0.4

    def __init__(self, seed, smoke=False, workdir=None):
        super().__init__(seed, smoke)
        self.workdir = workdir

    def make_spec(self, i):
        rng = self.rng
        kind, *fixed = self.cycle[i % len(self.cycle)]
        if kind in ("rep1", "rep2"):
            return {"kind": kind, "n": fixed[0], "N": fixed[1]}
        if kind == "converge":
            return {"kind": kind, "n": fixed[0], "Ns": list(fixed[1])}
        d = int(rng.integers(2, 7))
        lams = np.sort(rng.uniform(2.0, 40.0, d))
        wkind = ("cos", "cos_square", "const", "poly")[int(rng.integers(4))]
        coeffs = ()
        if wkind == "const":
            coeffs = (float(rng.uniform(0.1, 0.5)),)
        elif wkind == "poly":
            coeffs = (float(rng.uniform(0.1, 0.5)), float(rng.uniform(-0.2, 0.2)))
        if rng.random() < 0.5:
            u0 = ("sine", int(rng.integers(1, d + 1)))
        else:
            u0 = ("file", [float(v) for v in rng.uniform(-1.0, 1.0, d)])
        return {
            "kind": kind, "lams": [float(v) for v in lams], "w": (wkind, coeffs),
            "T": float(rng.uniform(0.5, 1.0)), "u0": u0, "n": int(rng.choice([12, 16])),
            "N": 64, "ts": [float(t) for t in np.sort(rng.uniform(0.05, 1.0, fixed[0]))],
        }

    def _u0_vector(self, spec):
        kind, val = spec["u0"]
        if kind == "sine":
            e = np.zeros(len(spec["lams"]))
            e[val - 1] = 1.0
            return e
        return np.asarray(val)

    def compute_references(self):
        jc = JCache()
        self.refs = []
        bench1_norm = _bench1_u0_norm()
        ex2 = None
        for spec in self.specs:
            kind = spec["kind"]
            if kind in ("rep1", "converge"):
                self.refs.append((_bench1_exact(1.0, 0.5), bench1_norm))
            elif kind == "rep2":
                if ex2 is None:
                    op = SineSpectralOperator(self.EX2_MODES)
                    coeffs = oracle.reference_solution(
                        op, WeightFunction.cos_square(), math.pi / 2,
                        poly_x2_1mx_coefficients(self.EX2_MODES), self.EX2_T)
                    ex2 = (float(op.evaluate(coeffs, self.EX2_X)), 4.0 / 27.0)
                self.refs.append(ex2)
            else:
                u0 = self._u0_vector(spec)
                lam = np.asarray(spec["lams"])
                den = np.array([1.0 + jc(spec["w"], spec["T"], float(l)) for l in lam])
                vecs = [u0 * np.exp(-lam * t) / den for t in spec["ts"]]
                self.refs.append((vecs, float(np.max(np.abs(u0)))))

    def build(self):
        os.makedirs(self.workdir, exist_ok=True)
        argvs = []
        for i, spec in enumerate(self.specs):
            kind = spec["kind"]
            if kind == "rep1":
                argv = ["reproduce", "--example", "1", "--n", str(spec["n"]), "--N", str(spec["N"])]
            elif kind == "rep2":
                argv = ["reproduce", "--example", "2", "--n", str(spec["n"]), "--N", str(spec["N"])]
            elif kind == "converge":
                argv = ["converge", "--n", str(spec["n"]),
                        "--N-list", ",".join(str(N) for N in spec["Ns"])]
            else:
                path = os.path.join(self.workdir, f"req{i}.cfg")
                u0kind, u0val = spec["u0"]
                if u0kind == "sine":
                    u0_field = f"sine:{u0val}"
                else:
                    u0_field = os.path.join(self.workdir, f"req{i}.u0")
                    with open(u0_field, "w") as fh:
                        fh.write("".join(repr(v) + "\n" for v in u0val))
                with open(path, "w") as fh:
                    fh.write(
                        "operator = diagonal:" + ",".join(repr(v) for v in spec["lams"]) + "\n"
                        f"T = {spec['T']!r}\n"
                        f"weight = {weight_cli_spec(spec['w'])}\n"
                        f"u0 = {u0_field}\n"
                        "t = " + ", ".join(repr(t) for t in spec["ts"]) + "\n"
                        f"n = {spec['n']}\nN = {spec['N']}\n"
                    )
                argv = ["solve", "--config", path]
            argvs.append(argv)
        self.built = argvs

    def expected_resolvents(self, i):
        spec = self.specs[i]
        kind = spec["kind"]
        if kind == "converge":
            return sum(_solves(N, True) for N in spec["Ns"])
        if kind == "rep2":
            # the row's self-reference re-solves at max(2N, 512)
            return _solves(spec["N"], True) + _solves(max(2 * spec["N"], 512), True)
        return _solves(spec["N"], True)

    def run(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(list(self.built[i]))
            except Exception as e:  # a failed request is counted, not fatal
                code = f"{type(e).__name__}: {e}"
            elapsed = perf_counter() - t0
        if code != 0:
            return Outcome(elapsed, 0, 0.0, f"exit {code}: {err.getvalue().strip()}")
        return self.check(i, out.getvalue(), elapsed)

    def check(self, i, text, elapsed):
        spec = self.specs[i]
        lines = text.split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            return Outcome(elapsed, 0, 0.0, "malformed CSV")
        try:
            rows = [line.split(",") for line in lines[1:-1]]
            if any(len(r) != 6 for r in rows):
                raise ValueError("row width")
            ints = [(int(r[0]), int(r[1])) for r in rows]
            ts = [float(r[2]) for r in rows]
            values = [float(r[4]) for r in rows]
        except ValueError as e:
            return Outcome(elapsed, len(lines) - 2, 0.0, f"malformed CSV row: {e}")
        kind = spec["kind"]
        if kind == "converge":
            want_nN = [(spec["n"], N) for N in spec["Ns"]]
            want_ts = [1.0] * len(spec["Ns"])
        elif kind == "solve":
            want_nN = [(spec["n"], spec["N"])] * len(spec["ts"])
            want_ts = spec["ts"]
        else:
            want_nN = [(spec["n"], spec["N"])]
            want_ts = [self.EX2_T if kind == "rep2" else 1.0]
        if ints != want_nN or ts != want_ts:
            return Outcome(elapsed, len(rows), 0.0, f"rows {ints} at t={ts} do not match the request")
        if not all(math.isfinite(v) for v in values):
            return Outcome(elapsed, len(rows), 0.0, "non-finite value")
        worst = math.inf
        if kind == "solve":
            vecs, norm = self.refs[i]
            for j, (value, ref) in enumerate(zip(values, vecs)):
                # the CSV value is the largest-magnitude component of u(t)
                rel = float(np.min(np.abs(ref - value))) / norm
                lead = float(np.max(np.abs(ref))) - abs(value)
                worst = min(worst, digits(rel))
                if not (rel <= self.tolerance and lead <= self.tolerance * norm):
                    return Outcome(elapsed, len(rows), worst,
                                   f"row {j}: rel error {rel:.3e} > tolerance {self.tolerance:g}")
        else:
            exact, norm = self.refs[i]
            for j, value in enumerate(values):
                rel = abs(value - exact) / norm
                worst = min(worst, digits(rel))
                if not rel <= self.tolerance:
                    return Outcome(elapsed, len(rows), worst,
                                   f"row {j}: rel error {rel:.3e} > tolerance {self.tolerance:g}")
        return Outcome(elapsed, len(rows), worst)


WORKLOADS = {w.name: w for w in (FdPlan, SpectralSweep, CliSmall)}


def clear_lazy_caches():
    """Empty the package's lazy caches so that set-up pays for filling them."""
    clear = getattr(quadrature.gauss_legendre, "cache_clear", None)
    if clear is not None:
        clear()
