"""Contour-quadrature solver for the nonlocal-in-time evolution problem

    u'(t) + A u(t) = 0,   u(0) + int_0^T w(s) u(s) ds = u0.

The solution u(t) = e^{-At} [I + int_0^T w(s) e^{-As} ds]^{-1} u0 is written
as a contour integral over the integration hyperbola and discretized by the
Sinc (trapezoid) rule in the contour parameter; the scalar weight integral is
discretized by Gauss-Legendre. For real data the integrand at -zeta is the
conjugate of the integrand at zeta, so the sum is folded onto k >= 0 and the
number of resolvent solves drops from 2N+1 to N+1.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .contour import Contour, contour_point, make_contour
from .errors import ExistenceError, NumericalError
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
        if self.n < 0 or self.N < 0:
            raise ValueError("n and N must be nonnegative")
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
    value_complex: np.ndarray
    value: np.ndarray
    imag_residual: float
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

    Holds, per Sinc node z_k: the denominator 1 + I_n(z_k), the derivative
    z'(kh), and the modified resolvent applied to u0. Evaluating at a time t
    then only costs the scalar factors exp(-z_k t).
    """

    def __init__(self, problem: NonlocalProblem, config: SolverConfig):
        self.problem = problem
        self.config = config
        self.contour = make_contour(problem.op.spectral, config.rho1)
        self.report = check_existence(problem, self.contour)
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
        self.rule = gauss_legendre(config.n)
        self.h = config.step.step_size(problem, self.contour, config.N)
        ks = np.arange(0 if config.use_symmetry else -config.N, config.N + 1)
        nodes = contour_point(self.contour, ks * self.h)
        self.z, self.dz = nodes.z, nodes.dz
        self.den = _denominator(problem, self.rule, self.z)
        u0c = problem.u0.astype(complex)
        self.r1 = np.stack(
            [problem.op.modified_resolvent_apply(z, u0c) for z in self.z]
        )

    def sample(self, t: float) -> SolutionSample:
        if not (t >= 0):
            raise ValueError(f"time must be nonnegative, got {t}")
        cfg = self.config
        # per-node vector terms F_k = integrand at zeta = k*h
        factors = np.exp(-self.z * t) / (TWO_PI_I * self.den) * self.dz
        terms = factors[:, None] * self.r1
        if cfg.use_symmetry:
            # ascending k, with the k = 0 term added last; the negative
            # half-axis contributes the conjugates, so 2*Re for k >= 1
            acc = np.zeros(self.problem.op.dim, dtype=complex)
            for k in range(1, cfg.N + 1):
                acc += 2.0 * terms[k].real
            acc += terms[0]
        else:
            # same fixed order as the folded branch: ascending k, the +-k
            # pair summed together, the k = 0 term last
            acc = np.zeros(self.problem.op.dim, dtype=complex)
            for k in range(1, cfg.N + 1):
                acc += terms[cfg.N - k] + terms[cfg.N + k]
            acc += terms[cfg.N]
        value_complex = self.h * acc
        value = value_complex.real.copy()
        imag_residual = float(np.max(np.abs(value_complex.imag))) if value.size else 0.0
        scale = float(np.max(np.abs(value))) if value.size else 0.0
        if scale > 0 and imag_residual > 1e-8 * scale:
            warnings.warn(
                f"imaginary residual {imag_residual:.3e} is large relative to "
                f"the solution ({scale:.3e}); check the problem data",
                stacklevel=3,
            )
        return SolutionSample(
            t=t,
            value_complex=value_complex,
            value=value,
            imag_residual=imag_residual,
            report=self.report,
            grid=(self.h, cfg.N, cfg.n),
        )


def solve_at(problem: NonlocalProblem, config: SolverConfig, t: float) -> SolutionSample:
    """Approximate u(t) by the Sinc-quadrature contour sum."""
    return _Plan(problem, config).sample(t)


def solve_many(problem: NonlocalProblem, config: SolverConfig, ts) -> list:
    """Solve at several times, reusing all t-independent work (in particular
    the N+1 resolvent applications) across the samples."""
    plan = _Plan(problem, config)
    return [plan.sample(t) for t in ts]
