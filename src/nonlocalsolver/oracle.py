"""Independent reference solver for diagonalizable model problems.

In the eigenbasis the nonlocal problem decouples into scalar modes

    u_k(t) = e^{-lambda_k t} * c_k / (1 + J(lambda_k)),
    J(lambda) = int_0^T w(s) e^{-lambda s} ds,

so a high-accuracy reference only needs a reliable scalar integrator. J is
computed with composite 10-point Gauss panels under halving refinement, a
code path deliberately disjoint from the contour machinery under test.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .operators import DiagonalOperator
from .quadrature import WeightFunction

# fixed 10-point panel rule; numpy's own nodes, not the package's
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(10)


@dataclass(frozen=True)
class ModeProblem:
    """One scalar eigenmode of the nonlocal problem."""

    lam: float
    w: WeightFunction
    T: float
    c0: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError(f"eigenvalue must be positive, got {self.lam}")
        if not (self.T > 0):
            raise ValueError(f"horizon must be positive, got {self.T}")


def _panel_integral(f, a, b):
    x = (b - a) / 2 * (_PANEL_NODES + 1) + a
    return (b - a) / 2 * np.sum(_PANEL_WEIGHTS * f(x))


def weight_laplace_integral(w: WeightFunction, lam: float, T: float) -> float:
    """J(lam) = int_0^T w(s) e^{-lam s} ds by adaptive composite panels.

    Panels are halved until the relative change drops below 1e-14; failure to
    settle within 24 halvings is reported as an error.
    """
    f = lambda s: w(s) * np.exp(-lam * s)
    # beyond s = 50/lam the integrand is below 2e-22 * sup|w|; cutting the
    # tail keeps the panel count bounded for very stiff modes
    upper = min(T, 50.0 / lam)
    panels = 4
    prev = None
    for _ in range(25):
        edges = np.linspace(0.0, upper, panels + 1)
        total = math.fsum(
            _panel_integral(f, edges[i], edges[i + 1]) for i in range(panels)
        )
        if prev is not None and abs(total - prev) <= 1e-14 * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    raise NumericalError(
        f"reference integral did not settle after 24 halvings (lam={lam}, T={T})"
    )


def _cos_weight_integral_closed_form(lam: float, T: float) -> float:
    """int_0^T cos(s) e^{-lam s} ds by the elementary antiderivative."""
    return (lam - math.exp(-lam * T) * (lam * math.cos(T) - math.sin(T))) / (
        1.0 + lam * lam
    )


def mode_reference(p: ModeProblem, t: float) -> float:
    """Reference value of one mode at time t."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    J = weight_laplace_integral(p.w, p.lam, p.T)
    if p.w.kind == "cos":
        closed = _cos_weight_integral_closed_form(p.lam, p.T)
        if abs(J - closed) > 1e-13 * max(1.0, abs(closed)):
            raise NumericalError(
                f"adaptive integral {J!r} disagrees with the closed form {closed!r}"
            )
    return math.exp(-p.lam * t) * p.c0 / (1.0 + J)


def reference_solution(op, w: WeightFunction, T: float, u0, t: float) -> np.ndarray:
    """Mode-wise reference solution for a diagonal operator.

    u0 is a state of op; its coefficients op.to_modal(u0) in the operator's
    basis are advanced mode by mode, and the result is mapped back with
    op.from_modal (both the identity for a plain DiagonalOperator).
    """
    if not isinstance(op, DiagonalOperator):
        raise TypeError(
            f"reference solutions exist only for diagonal operators, "
            f"got {type(op).__name__}"
        )
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (op.dim,):
        raise ValueError(f"u0 length {u0.shape} does not match dim {op.dim}")
    c0 = op.to_modal(u0)
    out = np.empty(op.dim)
    for i, lam in enumerate(op.eigenvalues):
        out[i] = mode_reference(ModeProblem(lam=float(lam), w=w, T=T, c0=c0[i]), t)
    return op.from_modal(out)
