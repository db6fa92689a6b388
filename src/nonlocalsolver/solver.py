"""Contour-quadrature solver for the nonlocal-in-time evolution problem

    u'(t) + A u(t) = 0,   u(0) + int_0^T w(s) u(s) ds = u0.

The solution u(t) = e^{-At} [I + int_0^T w(s) e^{-As} ds]^{-1} u0 is written
as a contour integral over the integration hyperbola and discretized by the
Sinc (trapezoid) rule in the contour parameter. A solve has three stages:

- scalar (_nodes): the N+1 nodes z_k, k = N..0, descending so that each sum
  adds its smallest terms first, 1 + I_n(z_k) by composite Gauss-Legendre
  (quadrature.nonlocal_integral), and the coefficients c_k. It reads
  op.spectral, op.dim, w and T, and solves nothing.
- operator (_modal_rows): the modified resolvent of each node applied to u0
  in the operator's modal coordinates (SectorialOperator.to_modal; the
  identity for an operator without a basis of its own), as the real and
  imaginary rows of one real buffer. It reads op, u0 and the node set.
- time (_solve): u(t) is the real part of h sum_k c_k e^{-z_k t} R1_k, and
  one from_modal maps all times back. It reads the nodes, the rows and ts.
  The times are checked before the scalar stage, so a refused one costs no
  solve.

For real data the integrand at -zeta is the conjugate of the integrand at
zeta, so the sum is folded onto k >= 0 with c_k doubled for k >= 1, and the
resolvent solves drop from 2N+1 to N+1. With use_symmetry=False the operator
stage also solves the N nodes conj(z_k), k >= 1, adds each result, conjugated,
into row k, and halves those rows at the end. Complex weights are rejected and
u0 is real, so the data are conjugate-symmetric. The time sum runs one stacked
matrix product per column tile of the buffer, in fixed blocks of _BLOCK times,
the last one zero-padded. The tile width follows from the buffer's shape
alone, and copying a tile to contiguous memory changes no operand; so a
time's value does not depend on the other times of the call. The factors
f_k(t) = c_k e^{-z_k t} of all times come from one vectorized exp, and those
below _NEGLIGIBLE = 2^-800 in modulus are set to zero before the products:
they decay double-exponentially in k, and their products with the buffer
would otherwise run subnormal arithmetic, many times slower than normal. A
dropped term is below 2^-800 |R1_k|, under the rounding of any sample
relative to |u0|. The rule reads only the time's own factors, so solve_many
still equals solve_at bit for bit.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .contour import Contour, contour_point, make_contour
from .errors import (ConfigError, ExistenceError, NumericalError, count, positive_finite,
                     real_array, real_number)
from .operators import SectorialOperator
from .quadrature import WeightFunction, gauss_legendre, integral_bytes, nonlocal_integral

MAX_GAUSS_ORDER = 128
# rows per matrix product of the time sum; fixed, so that a row's rounding
# does not depend on the number of times requested
_BLOCK = 8
# the L2 cache that the time sum is sized for: a node buffer larger than
# this has its column tiles copied to contiguous memory before reuse
_L2_BYTES = 2 * 1024 * 1024
# bytes of the node buffer that one column tile of the time sum holds: small
# enough to stay in L2 while every block of times runs over it
_TILE_BYTES = _L2_BYTES // 4
# factors |f_k(t)| below this are set to zero in the time sum, so that no
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
        if not (0.0 < real_number("alpha", self.alpha) < 1.0):
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
        positive_finite("t_min", self.t_min)

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
        positive_finite("step size", self.h)

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
        if not isinstance(self.op, SectorialOperator):
            raise ValueError(f"op must be a SectorialOperator, got {type(self.op).__name__}")
        if not isinstance(self.w, WeightFunction):
            raise ValueError("w must be a WeightFunction: see WeightFunction.from_callable")
        positive_finite("horizon T", self.T)
        self.u0 = real_array("u0", self.u0)
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
        count("n", self.n, 0)
        count("N", self.N, 0)
        if self.n > MAX_GAUSS_ORDER:  # leggauss(n + 1) builds a dense (n+1)^2 matrix
            raise ValueError(f"n must be <= {MAX_GAUSS_ORDER}, got {self.n}")
        if not (0.0 <= real_number("rho1", self.rho1) < math.inf):
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


def _nodes(problem: NonlocalProblem, config: SolverConfig):
    """The scalar stage of a solve: (report, h, z, coef) of its N+1 Sinc nodes
    z_k, k = N..0, c_k = z'(kh) / (2 pi i (1 + I_n(z_k))) doubled for k >= 1.
    It reads op.spectral, op.dim, w and T, never u0, and solves nothing."""
    # rho1 < rho0 is checked here: SolverConfig does not know the operator
    contour = make_contour(problem.op.spectral, config.rho1)
    report = check_existence(problem, contour)
    if not report.sharp_ok:
        raise ExistenceError(
            f"solvability condition violated: sup|w| = {report.w_sup} "
            f">= a_I = {report.a_I}"
        )
    if not report.rough_ok:
        warnings.warn(
            "sup|w| exceeds 1/T: proceeding under the sharp condition only "
            "(parts of the error analysis assumed sup|w| <= 1/T)",
            stacklevel=4,  # past _solve and solve_at or solve_many, to their caller
        )
    N = config.N
    h = config.step.step_size(contour, N)
    with np.errstate(all="ignore"):  # refused before any per-node array exists
        outer = contour_point(contour, N * h)
    if not np.isfinite([outer.z, outer.dz]).all():
        raise ConfigError(f"outermost node z(N*h) of {contour} is not finite: N = {N}, h = {h}")
    check_node_buffer(config.n, N, problem.op.dim, problem.op.spectral.phi)
    # descending k: the terms decay with |k|, so the sums add the smallest first
    nodes = contour_point(contour, np.arange(N, -1, -1) * h)
    den = 1.0 + nonlocal_integral(gauss_legendre(config.n), problem.w, problem.T, nodes.z)
    # written so that a NaN denominator fails the check too
    if not np.all(np.abs(den) >= 1e-13):
        raise NumericalError(
            "denominator 1 + I_n vanished or is not finite on the contour; "
            "the solvability condition is violated or w is not finite"
        )
    coef = nodes.dz / (2j * math.pi * den)
    coef[:-1] *= 2.0
    return report, h, nodes.z, coef


def _modal_rows(op: SectorialOperator, u0: np.ndarray, z: np.ndarray, fold: bool):
    """The operator stage: (r1, exponent), the rows Re R1_k, Im R1_k of the
    modified resolvent of each node z_k applied to 2^-exponent u0 in op's modal
    coordinates, as one (2 len(z), dim) real buffer. fold (the full sum) also
    solves conj(z_k), k >= 1, after all of z and averages it into row k. It
    reads op, u0 and z, never w or T."""
    N = len(z) - 1
    # the rows solve 2^-k u0, its largest entry in [1/2, 1), and the sum
    # multiplies by 2^k after from_modal, whose unnormalized transform could
    # leave the float range; exact unless a value is subnormal, so data near
    # the float max or subnormal keep their digits and the rest their bits
    exponent = math.frexp(float(np.max(np.abs(u0))))[1]
    c0 = op.to_modal(np.ldexp(u0, -exponent)).astype(complex)
    r1 = np.empty((N + 1, 2, op.dim))
    for row, zk in zip(r1, z):
        r = op.modified_resolvent_apply(zk, c0)
        row[0], row[1] = r.real, r.imag
    if fold:
        # solve each -k node at conj(z_k) and fold it onto row k (Re parts
        # add, Im parts subtract), then average: exact when the data are
        # conjugate-symmetric, as they are for real w and u0
        for row, zk in zip(r1, z[:N]):
            r = op.modified_resolvent_apply(zk.conjugate(), c0)
            row[0] += r.real
            row[1] -= r.imag
        r1[:N] *= 0.5  # the same bits as / 2, and faster
        r1[N, 1] = 0.0  # the k = 0 node is its own conjugate
    return r1.reshape(2 * (N + 1), -1), exponent


def _times(ts):
    """The times as given, in a list and a float array: real numbers >= 0."""
    ts = list(ts)
    for t in ts:
        if not real_number("time", t) >= 0:
            raise ValueError(f"time must be a nonnegative number, got {t}")
    return ts, np.array(ts, dtype=float)


def _solve(problem: NonlocalProblem, config: SolverConfig, ts) -> list:
    """The samples of ts from the three stages of the module docstring."""
    if not isinstance(config, SolverConfig):
        raise ValueError(f"config must be a SolverConfig, got {type(config).__name__}")
    ts, t = _times(ts)
    report, h, z, coef = _nodes(problem, config)
    if not ts:  # _nodes refused what it would refuse for any times; no solve is needed
        return []
    r1, exponent = _modal_rows(problem.op, problem.u0, z, not config.use_symmetry)
    nt = len(ts)
    f = np.zeros((-(-nt // _BLOCK) * _BLOCK, len(z)), dtype=complex)
    live = f[:nt]
    # a huge t overflows t z_k to a factor 0 or NaN, and both are dropped
    with np.errstate(all="ignore"):
        live[:] = np.exp(np.multiply.outer(-t, z)) * coef
    live[~(abs(live) >= _NEGLIGIBLE)] = 0.0
    # conj(f) as float interleaves [Re f_k, -Im f_k], matching the rows
    # [Re R1_k, Im R1_k], so each product row is Re(f R1); matmul runs
    # the stack one 8-row block at a time
    e = f.conj().view(float).reshape(-1, _BLOCK, 2 * len(z))
    rows, dim = r1.shape
    # a multiple of 64 columns, set by the buffer's shape and never by the
    # number of times, so that tiling cannot change a time's value either
    width = max(64, _TILE_BYTES // (rows * r1.itemsize) // 64 * 64)
    # a tile of a buffer larger than L2 has its rows far apart, so when
    # more than one block re-reads it, it is copied to contiguous memory
    copy = r1.nbytes > _L2_BYTES and nt > _BLOCK
    values = np.empty((len(e), _BLOCK, dim))
    for c in range(0, dim, width):
        tile = r1[:, c:c + width]
        np.matmul(e, tile.copy() if copy else tile, out=values[:, :, c:c + width])
    values = values.reshape(-1, dim)[:nt]
    values *= h
    values = problem.op.from_modal(values)
    np.ldexp(values, exponent, out=values)
    return [SolutionSample(t=s, value=v, report=report, grid=(h, config.N, config.n))
            for s, v in zip(ts, values)]


def solve_at(problem: NonlocalProblem, config: SolverConfig, t: float) -> SolutionSample:
    """Approximate u(t) by the Sinc-quadrature contour sum."""
    return _solve(problem, config, [t])[0]


def solve_many(problem: NonlocalProblem, config: SolverConfig, ts) -> list:
    """Solve at several times, reusing all t-independent work (in particular
    the N+1 resolvent applications) across the samples."""
    return _solve(problem, config, ts)
