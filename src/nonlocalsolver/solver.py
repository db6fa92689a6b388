"""Contour-quadrature solver for the nonlocal-in-time evolution problem

    u'(t) + A u(t) = 0,   u(0) + int_0^T w(s) u(s) ds = u0.

The solution u(t) = e^{-At} [I + int_0^T w(s) e^{-As} ds]^{-1} u0 is written
as a contour integral over the integration hyperbola and discretized by the
Sinc (trapezoid) rule in the contour parameter; the scalar weight integral
I(z) is discretized at each node by composite Gauss-Legendre: n+1 points per
panel, with the number of panels chosen by the program from |z| so that
e^{-zs} is resolved to double precision (see
quadrature.nonlocal_integral). For real data the integrand at -zeta is the
conjugate of the integrand at zeta, so the sum is folded onto k >= 0 and the
number of resolvent solves drops from 2N+1 to N+1. Both settings build the
same N+1 nodes z_k, k = N..0, their I(z) stage and their coefficients,
weighted 2 for k >= 1, and store the real and imaginary parts of the
resolvents as the rows of one real buffer, in descending k so that each sum
adds its smallest terms first. With use_symmetry=False the plan also solves
the N conjugate nodes conj(z_k), k >= 1, adds each result, conjugated, into
row k, and halves those rows at the end: each pair is averaged in place. The
whole sum runs in the operator's modal coordinates
(SectorialOperator.to_modal; the identity for an operator without a basis of
its own): u0 is transformed once, each node applies the modified resolvent to
those coefficients, and each requested time costs one from_modal back to the
state. u(t) is the real part of the sum, h times one stacked matrix product
per column tile of the buffer, in fixed blocks of _BLOCK times. The tile width
follows from the buffer's shape alone, each block has _BLOCK rows, the last
one zero-padded, and copying a tile to contiguous memory changes no operand;
so a time's value does not depend on the other times of the call.
The factors f_k(t) = c_k e^{-z_k t} of all times come from one vectorized
exp, and those below _NEGLIGIBLE = 2^-800 in modulus are set to zero before
the products: they decay double-exponentially in k, and their products with
the buffer would otherwise run subnormal arithmetic, many times slower than
normal. A dropped term is below 2^-800 |R1_k|, under the rounding of any
sample relative to |u0|. The rule reads only the time's own factors, so
solve_many still equals solve_at bit for bit. Complex weights are rejected
(see quadrature.nonlocal_integral), and u0 is real, so the data are
conjugate-symmetric.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .contour import Contour, contour_point, make_contour
from .errors import ConfigError, ExistenceError, NumericalError
from .operators import SectorialOperator
from .quadrature import WeightFunction, gauss_legendre, integral_bytes, nonlocal_integral

TWO_PI_I = 2j * math.pi
MAX_GAUSS_ORDER = 128
# rows per matrix product in _Plan.samples; fixed, so that a row's rounding
# does not depend on the number of times requested
_BLOCK = 8
# the L2 cache that _Plan.samples is sized for: a node buffer larger than
# this has its column tiles copied to contiguous memory before reuse
_L2_BYTES = 2 * 1024 * 1024
# bytes of the node buffer that one column tile of _Plan.samples holds: small
# enough to stay in L2 while every block of times runs over it
_TILE_BYTES = _L2_BYTES // 4
# factors |f_k(t)| below this are set to zero in _Plan.samples, so that no
# product runs subnormal; a fixed constant, not an option
_NEGLIGIBLE = 2.0**-800
# bytes a plan's real (N+1, 2, dim) node buffer and its I(z) stage may take;
# a larger plan is refused before anything is allocated
_NODE_BUFFER_BYTES = 2**30


@dataclass(frozen=True)
class UniformStep:
    """Default step rule, uniform in t: h = sqrt(pi d1 / (alpha (N+1))), which
    balances the strip and truncation errors. alpha in (0,1) is the regularity
    of the initial data (u0 is assumed to lie in the domain of A^alpha)."""

    alpha: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")

    def step_size(self, contour, N):
        return math.sqrt(math.pi * contour.d1 / (self.alpha * (N + 1)))


@dataclass(frozen=True)
class WindowStep:
    """Step rule for the times t >= t_min: h solves pi d1 / h = a_I t_min cosh(N h),
    so that the strip error exp(-pi d1 / h) equals the truncation error
    exp(-a_I t_min cosh(N h)) at the earliest time. Later times truncate faster."""

    t_min: float

    def __post_init__(self):
        if not (0.0 < self.t_min < math.inf):
            raise ValueError(f"t_min must be positive and finite, got {self.t_min}")

    def step_size(self, contour, N):
        # bisection on x = log h: log(pi d1 / h) - log(a_I t_min cosh(N h)) falls
        # through 0 once in (-inf, top], and is positive at lo, where N h < 1/e.
        # log cosh y = y + log1p(e^-2y) - log 2 cannot overflow, and y = inf
        # keeps the sign; the cap e^700 can bind only at N = 0
        top = math.log(math.pi * contour.d1) - math.log(contour.a_I) - math.log(self.t_min)
        lo, hi = min(top, -math.log(N + 1)) - 1.0, min(top, 700.0)
        for _ in range(100):  # the bracket is narrower than 2^11
            x = (lo + hi) / 2
            y = math.exp(x) * float(N)
            above = top - x > y + math.log1p(math.exp(-2 * y)) - math.log(2)
            lo, hi = (x, hi) if above else (lo, x)
        return math.exp((lo + hi) / 2)


@dataclass(frozen=True)
class CalibratedStep:
    """Benchmark-calibrated step rule (used by the reproduction commands).

    h = 1.71 (N+1)^(-0.67) decays faster than the uniform rule's inverse
    square root, trading the worst-case truncation guarantee for the accuracy
    the benchmarks actually exhibit at moderate N.
    """

    def step_size(self, contour, N):
        return 1.71 * (N + 1) ** (-0.67)


@dataclass(frozen=True)
class FixedStep:
    """Explicit user-chosen step size."""

    h: float

    def __post_init__(self):
        if not (0.0 < self.h < math.inf):
            raise ValueError(f"step size must be positive and finite, got {self.h}")

    def step_size(self, contour, N):
        return self.h


@dataclass
class NonlocalProblem:
    """Problem data: operator, horizon T, weight w, initial data u0."""

    op: SectorialOperator
    T: float
    w: WeightFunction
    u0: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.T < math.inf):
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if np.iscomplexobj(self.u0):  # the folded sum assumes real data
            raise ValueError("u0 must be real")
        self.u0 = np.asarray(self.u0, dtype=float)
        if self.u0.shape != (self.op.dim,):
            raise ValueError(
                f"u0 length {self.u0.shape} does not match operator dim {self.op.dim}"
            )
        if not np.all(np.isfinite(self.u0)):
            raise ValueError("u0 must be finite")


@dataclass
class SolverConfig:
    n: int = 16
    N: int = 64
    rho1: float = 0.0
    step: object = field(default_factory=UniformStep)
    use_symmetry: bool = True

    def __post_init__(self):
        for name, k in (("n", self.n), ("N", self.N)):
            if not (isinstance(k, (int, np.integer)) and k >= 0):
                raise ValueError(f"{name} must be an integer >= 0, got {k}")
        if self.n > MAX_GAUSS_ORDER:  # leggauss(n + 1) builds a dense (n+1)^2 matrix
            raise ValueError(f"n must be <= {MAX_GAUSS_ORDER}, got {self.n}")
        if not (0.0 <= self.rho1 < math.inf):
            raise ValueError(f"rho1 must be finite and >= 0, got {self.rho1}")
        if not hasattr(self.step, "step_size"):
            raise ValueError(f"unknown step mode {self.step!r}")


@dataclass(frozen=True)
class ConditionReport:
    """Solvability conditions evaluated on the problem data.

    sharp_ok: sup|w| < a_I (denominator bounded away from zero on the
    contour). rough_ok: sup|w| <= 1/T (cruder sufficient condition assumed by
    parts of the error analysis).
    """

    a_I: float
    w_sup: float
    w_sup_estimated: bool
    sharp_ok: bool
    rough_ok: bool


@dataclass(frozen=True)
class SolutionSample:
    """The state at time t. value is a row view of the array of all the call's
    states, so a value kept on its own keeps that array alive: copy it."""

    t: float
    value: np.ndarray
    report: ConditionReport
    grid: tuple  # (h, N, n)


def check_existence(problem: NonlocalProblem, contour: Contour) -> ConditionReport:
    """Evaluate the solvability conditions; pure report, never raises."""
    w_sup, estimated = problem.w.sup_norm(problem.T)
    return ConditionReport(
        a_I=contour.a_I,
        w_sup=w_sup,
        w_sup_estimated=estimated,
        sharp_ok=w_sup < contour.a_I,
        rough_ok=w_sup <= 1.0 / problem.T,
    )


def check_node_buffer(n: int, N: int, dim: int, phi: float = 0.0) -> None:
    """Refuse with ConfigError a plan of order n, truncation N and dimension
    dim whose N+1 nodes, each a buffer row of 2*dim reals and an I(z) stage,
    exceed _NODE_BUFFER_BYTES; the full sum solves its N conjugate nodes
    into the same rows. A node's stage is charged at rho1 = 0, where the bound
    |z| / Re z <= 1 / cos(pi/4 + phi/2) is largest, so never below its own."""
    stage = integral_bytes(n, 1.0 / math.cos(math.pi / 4 + phi / 2))
    size = (N + 1) * (2 * dim * 8 + stage)
    if size > _NODE_BUFFER_BYTES:
        raise ConfigError(
            f"the node buffer of {N + 1} nodes x dim {dim} with its I(z) stage needs "
            f"{size / 2**30:.3g} GiB, above the limit of {_NODE_BUFFER_BYTES / 2**30:g} GiB"
        )


def _denominator(problem, rule, z):
    """1 + I_n(z) with a collapse check (z scalar or array)."""
    den = 1.0 + nonlocal_integral(rule, problem.w, problem.T, z)
    # written so that a NaN denominator fails the check too
    if not np.all(np.abs(den) >= 1e-13):
        raise NumericalError(
            "denominator 1 + I_n vanished or is not finite on the contour; "
            "the solvability condition is violated or w is not finite"
        )
    return den


class _Plan:
    """t-independent precomputation shared by all samples of one config.

    Holds, per Sinc node z_k with k = N..0, the coefficient
    c_k = z'(kh) / (2 pi i (1 + I_n(z_k))), doubled for k >= 1 to account for
    the conjugate -k term, and the rows Re R1_k, Im R1_k of the modified
    resolvent applied to u0, in one (2(N+1), dim) real buffer. With
    use_symmetry=False the node -k, which is conj(z_k), is solved too, after
    the k >= 0 nodes, and its conjugate is added into the rows of node k at
    once; the N rows with k >= 1 are then halved. The rows are modal
    coefficients: u0 goes through op.to_modal once, and samples applies
    op.from_modal once to the summed values of all requested times.
    """

    def __init__(self, problem: NonlocalProblem, config: SolverConfig):
        # rho1 < rho0 is checked here: SolverConfig does not know the operator
        contour = make_contour(problem.op.spectral, config.rho1)
        self.report = check_existence(problem, contour)
        if not self.report.sharp_ok:
            raise ExistenceError(
                f"solvability condition violated: sup|w| = {self.report.w_sup} "
                f">= a_I = {self.report.a_I}"
            )
        if not self.report.rough_ok:
            warnings.warn(
                "sup|w| exceeds 1/T: proceeding under the sharp condition only "
                "(parts of the error analysis assumed sup|w| <= 1/T)",
                stacklevel=3,
            )
        rule = gauss_legendre(config.n)
        self.h = config.step.step_size(contour, config.N)
        self.grid = (self.h, config.N, config.n)
        N = config.N
        with np.errstate(all="ignore"):  # refused before any per-node array exists
            outer = contour_point(contour, N * self.h)
        if not np.isfinite([outer.z, outer.dz]).all():
            raise ConfigError(f"outermost node z(N*h) is not finite: N = {N}, h = {self.h}")
        check_node_buffer(config.n, N, problem.op.dim, problem.op.spectral.phi)
        # descending k: the terms decay with |k|, so the sums add the smallest first
        nodes = contour_point(contour, np.arange(N, -1, -1) * self.h)
        z = nodes.z
        coef = nodes.dz / (TWO_PI_I * _denominator(problem, rule, z))
        coef[:-1] *= 2.0
        self.z, self.coef = z, coef
        self.op = problem.op
        # the plan solves 2^-k u0, its largest entry in [1/2, 1), and samples
        # multiplies by 2^k after from_modal, whose unnormalized transform could
        # leave the float range; exact unless a value is subnormal, so data near
        # the float max or subnormal keep their digits and the rest their bits
        self.exponent = math.frexp(float(np.max(np.abs(problem.u0))))[1]
        c0 = self.op.to_modal(np.ldexp(problem.u0, -self.exponent)).astype(complex)
        r1 = np.empty((N + 1, 2, self.op.dim))
        for row, zk in zip(r1, z):
            r = self.op.modified_resolvent_apply(zk, c0)
            row[0], row[1] = r.real, r.imag
        if not config.use_symmetry:
            # solve each -k node at conj(z_k) and fold it onto row k (Re parts
            # add, Im parts subtract), then average: exact when the data are
            # conjugate-symmetric, as they are for real w and u0
            for row, zk in zip(r1, z[:N]):
                r = self.op.modified_resolvent_apply(zk.conjugate(), c0)
                row[0] += r.real
                row[1] -= r.imag
            r1[:N] *= 0.5  # the same bits as / 2, and faster
            r1[N, 1] = 0.0  # the k = 0 node is its own conjugate
        self.r1 = r1.reshape(2 * (N + 1), -1)

    def samples(self, ts) -> list:
        ts = list(ts)
        for t in ts:
            if not (t >= 0):
                raise ValueError(f"time must be nonnegative, got {t}")
        t = np.array(ts, dtype=float)
        nt = len(ts)
        f = np.zeros((-(-nt // _BLOCK) * _BLOCK, len(self.z)), dtype=complex)
        live = f[:nt]
        # a huge t overflows t z_k to a factor 0 or NaN, and both are dropped
        with np.errstate(all="ignore"):
            live[:] = np.exp(np.multiply.outer(-t, self.z)) * self.coef
        live[~(abs(live) >= _NEGLIGIBLE)] = 0.0
        # conj(f) as float interleaves [Re f_k, -Im f_k], matching the rows
        # [Re R1_k, Im R1_k], so each product row is Re(f R1); matmul runs
        # the stack one 8-row block at a time
        e = f.conj().view(float).reshape(-1, _BLOCK, 2 * len(self.z))
        rows, dim = self.r1.shape
        # a multiple of 64 columns, set by the buffer's shape and never by the
        # number of times, so that tiling cannot change a time's value either
        width = max(64, _TILE_BYTES // (rows * self.r1.itemsize) // 64 * 64)
        # a tile of a buffer larger than L2 has its rows far apart, so when
        # more than one block re-reads it, it is copied to contiguous memory
        copy = self.r1.nbytes > _L2_BYTES and nt > _BLOCK
        values = np.empty((len(e), _BLOCK, dim))
        for c in range(0, dim, width):
            tile = self.r1[:, c:c + width]
            np.matmul(e, tile.copy() if copy else tile, out=values[:, :, c:c + width])
        values = values.reshape(-1, dim)[:nt]
        values *= self.h
        values = self.op.from_modal(values)
        np.ldexp(values, self.exponent, out=values)
        return [SolutionSample(t=t, value=v, report=self.report, grid=self.grid)
                for t, v in zip(ts, values)]


def solve_at(problem: NonlocalProblem, config: SolverConfig, t: float) -> SolutionSample:
    """Approximate u(t) by the Sinc-quadrature contour sum."""
    return _Plan(problem, config).samples([t])[0]


def solve_many(problem: NonlocalProblem, config: SolverConfig, ts) -> list:
    """Solve at several times, reusing all t-independent work (in particular
    the N+1 resolvent applications) across the samples."""
    return _Plan(problem, config).samples(ts)
