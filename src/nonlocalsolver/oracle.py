"""Independent reference solver for diagonalizable model problems.

In the eigenbasis the nonlocal problem decouples into scalar modes

    u_k(t) = e^{-lambda_k t} * c_k / (1 + J(lambda_k)),
    J(lambda) = int_0^T w(s) e^{-lambda s} ds,

so a high-accuracy reference only needs a reliable scalar integrator. J is
computed with composite 10-point Gauss panels under halving refinement, a
code path deliberately disjoint from the contour machinery under test.
"""

import math

import numpy as np

from .errors import NumericalError, real_array
from .operators import DiagonalOperator
from .quadrature import WeightFunction
from .solver import NonlocalProblem, _times

# fixed 10-point panel rule; numpy's own nodes, not the package's
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# the benchmark's references settle by 16 panels, and cos(400 s) on [0, 5] by 512
_HALVINGS = 16  # weight_laplace_integral's halvings before it gives up: 4 * 2^16 panels


def weight_laplace_integral(w: WeightFunction, lam: float, T: float) -> float:
    """J(lam) = int_0^T w(s) e^{-lam s} ds by adaptive composite panels.

    Panels are halved until the relative change drops below 1e-14. A sum that
    is not finite, or not settled after _HALVINGS halvings, raises NumericalError.
    """
    # beyond s = 50/lam the integrand is below 2e-22 * sup|w|; cutting the
    # tail keeps the panel count bounded for very stiff modes
    upper = min(T, 50.0 / lam)
    prev = None
    for halving in range(_HALVINGS + 1):  # 4 panels, then twice as many each time
        edges = np.linspace(0.0, upper, 4 * 2**halving + 1)
        half = np.diff(edges) / 2
        x = half[:, None] * (_PANEL_NODES + 1) + edges[:-1, None]
        with np.errstate(all="ignore"):  # an overflow is refused below, in silence
            wx = real_array(f"weight {w!r}", w(x))
            values = half * np.sum(_PANEL_WEIGHTS * (wx * np.exp(-lam * x)), axis=1)
        try:  # finite panels can still sum past the float range
            total = math.fsum(values) if np.isfinite(values).all() else math.inf
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):  # no halving can settle it
            raise NumericalError(f"reference integral is not finite (lam={lam}, T={T})")
        if prev is not None and abs(total - prev) <= 1e-14 * max(1.0, abs(total)):
            return total
        prev = total
    raise NumericalError(
        f"reference integral did not settle after {_HALVINGS} halvings (lam={lam}, T={T})"
    )


def _mode_integral(w: WeightFunction, lam: float, T: float) -> float:
    """J(lam), cross-checked for w = cos against its elementary antiderivative."""
    J = weight_laplace_integral(w, lam, T)
    if w.kind == "cos":
        closed = (lam - math.exp(-lam * T) * (lam * math.cos(T) - math.sin(T))) / (
            1.0 + lam * lam
        )
        if abs(J - closed) > 1e-13 * max(1.0, abs(closed)):
            raise NumericalError(
                f"adaptive integral {J!r} disagrees with the closed form {closed!r}"
            )
    return J


def reference_solution(op, w: WeightFunction, T: float, u0, t) -> np.ndarray:
    """Mode-wise reference solution for a diagonal operator at one time t, or
    one row per time for a sequence t.

    u0 is a state of op; its coefficients op.to_modal(u0) in the operator's
    basis are advanced mode by mode, and the result is mapped back with
    op.from_modal (both the identity for a plain DiagonalOperator). J(lambda_k)
    is computed once per mode, whatever the number of times. T, u0 and the
    times are checked as in the solver.
    """
    if not isinstance(op, DiagonalOperator):
        raise TypeError(
            f"reference solutions exist only for diagonal operators, "
            f"got {type(op).__name__}"
        )
    u0 = NonlocalProblem(op=op, T=T, w=w, u0=u0).u0
    scalar = np.ndim(t) == 0
    ts = _times([t] if scalar else t)[1]
    den = np.array([1.0 + _mode_integral(w, lam, T) for lam in op.eigenvalues.tolist()])
    rows = np.exp(-np.multiply.outer(ts, op.eigenvalues)) * op.to_modal(u0) / den
    return op.from_modal(rows[0] if scalar else rows)
