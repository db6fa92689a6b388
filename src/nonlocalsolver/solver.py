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
number of resolvent solves drops from 2N+1 to N+1. The fold is done once per
plan: with use_symmetry=False the 2N+1 nodes are solved and each -k row is
averaged with the conjugate of its k row. Both settings then store N+1
coefficients, weighted 2 for k >= 1, and each time t costs one product of
their factors exp(-z_k t) with the stored resolvents, whose real part is
u(t). Complex weights are rejected (see quadrature.nonlocal_integral), and u0
is real, so the data are conjugate-symmetric.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .contour import Contour, contour_point, make_contour
from .errors import ConfigError, ExistenceError, NumericalError
from .operators import SectorialOperator
from .quadrature import (
    WeightFunction,
    gauss_legendre,
    nonlocal_integral,
    sinc_step_calibrated,
    sinc_step_large_t,
    sinc_step_uniform,
)

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class UniformStep:
    """Default step rule, uniform in t; alpha = None defers to the problem."""

    alpha: float | None = None

    def step_size(self, problem, contour, N):
        alpha = problem.alpha if self.alpha is None else self.alpha
        return sinc_step_uniform(contour.d1, alpha, N)


@dataclass(frozen=True)
class LargeTStep:
    """Step rule tuned for large evaluation times."""

    c1: float = 1.0

    def step_size(self, problem, contour, N):
        return sinc_step_large_t(N, self.c1)


@dataclass(frozen=True)
class CalibratedStep:
    """Benchmark-calibrated step rule (used by the reproduction commands)."""

    def step_size(self, problem, contour, N):
        return sinc_step_calibrated(N)


@dataclass(frozen=True)
class FixedStep:
    """Explicit user-chosen step size."""

    h: float

    def __post_init__(self):
        if not (self.h > 0):
            raise ValueError(f"step size must be positive, got {self.h}")

    def step_size(self, problem, contour, N):
        return self.h


@dataclass
class NonlocalProblem:
    """Problem data: operator, horizon T, weight w, initial data u0.

    alpha in (0,1) is a regularity hint for the uniform step rule (u0 is
    assumed to lie in the domain of A^alpha).
    """

    op: SectorialOperator
    T: float
    w: WeightFunction
    u0: np.ndarray
    alpha: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.T < math.inf):
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
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
        if not all(isinstance(k, (int, np.integer)) and k >= 0 for k in (self.n, self.N)):
            raise ValueError(f"n and N must be integers >= 0, got {self.n}, {self.N}")
        if not hasattr(self.step, "step_size"):
            raise ValueError(f"unknown step mode {self.step!r}")


@dataclass(frozen=True)
class ConditionReport:
    """Solvability conditions evaluated on the problem data.

    sharp_ok: sup|w| < a_I (denominator bounded away from zero on the
    contour). rough_ok: sup|w| <= 1/T (cruder sufficient condition assumed by
    parts of the error analysis). self_adjoint_ok: sup|w| < rho0/sqrt(2),
    reported when the operator is self-adjoint.
    """

    a_I: float
    w_sup: float
    w_sup_estimated: bool
    sharp_ok: bool
    rough_ok: bool
    self_adjoint_ok: bool | None


@dataclass(frozen=True)
class SolutionSample:
    t: float
    value: np.ndarray
    report: ConditionReport
    grid: tuple  # (h, N, n)


def check_existence(problem: NonlocalProblem, contour: Contour) -> ConditionReport:
    """Evaluate the solvability conditions; pure report, never raises."""
    w_sup, estimated = problem.w.sup_norm(problem.T)
    sa = problem.op.spectral.phi == 0.0
    return ConditionReport(
        a_I=contour.a_I,
        w_sup=w_sup,
        w_sup_estimated=estimated,
        sharp_ok=w_sup < contour.a_I,
        rough_ok=w_sup <= 1.0 / problem.T,
        self_adjoint_ok=(w_sup < problem.op.spectral.rho0 / math.sqrt(2.0))
        if sa
        else None,
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

    Holds, per Sinc node z_k with k = 0..N, the coefficient
    c_k = z'(kh) / (2 pi i (1 + I_n(z_k))), doubled for k >= 1 to account for
    the conjugate -k term, and the modified resolvent applied to u0.
    """

    def __init__(self, problem: NonlocalProblem, config: SolverConfig):
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
        self.h = config.step.step_size(problem, contour, config.N)
        self.grid = (self.h, config.N, config.n)
        N = config.N
        with np.errstate(all="ignore"):  # refused before any per-node array exists
            outer = contour_point(contour, N * self.h)
        if not np.isfinite([outer.z, outer.dz]).all():
            raise ConfigError(f"outermost node z(N*h) is not finite: N = {N}, h = {self.h}")
        ks = np.arange(0 if config.use_symmetry else -N, N + 1)
        nodes = contour_point(contour, ks * self.h)
        z = nodes.z
        coef = nodes.dz / (TWO_PI_I * _denominator(problem, rule, z))
        u0c = problem.u0.astype(complex)
        r1 = np.stack([problem.op.modified_resolvent_apply(zk, u0c) for zk in z])
        if not config.use_symmetry:
            # fold the -k rows onto k: exact when the data are
            # conjugate-symmetric, as they are for real w and u0
            z, coef, r1 = ((a[N:] + a[N::-1].conj()) / 2 for a in (z, coef, r1))
        coef[1:] *= 2.0
        self.z, self.coef = z, coef
        self.r1_re = np.ascontiguousarray(r1.real)
        self.r1_im = np.ascontiguousarray(r1.imag)

    def samples(self, ts) -> list:
        out = []
        for t in ts:
            if not (t >= 0):
                raise ValueError(f"time must be nonnegative, got {t}")
            # one product per time (not one gemm for all times), so a time's value
            # does not depend on the other times; at t = inf every factor is 0
            e = np.exp(-self.z * t) * self.coef if t < math.inf else 0.0 * self.coef
            value = self.h * (e.real @ self.r1_re - e.imag @ self.r1_im)
            out.append(SolutionSample(t=t, value=value, report=self.report, grid=self.grid))
        return out


def solve_at(problem: NonlocalProblem, config: SolverConfig, t: float) -> SolutionSample:
    """Approximate u(t) by the Sinc-quadrature contour sum."""
    return _Plan(problem, config).samples([t])[0]


def solve_many(problem: NonlocalProblem, config: SolverConfig, ts) -> list:
    """Solve at several times, reusing all t-independent work (in particular
    the N+1 resolvent applications) across the samples."""
    return _Plan(problem, config).samples(ts)
