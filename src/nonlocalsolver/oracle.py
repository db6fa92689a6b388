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

from .errors import NumericalError, positive_finite, real_array
from .operators import DiagonalOperator
from .quadrature import WeightFunction
from .solver import NonlocalProblem, _times

# fixed 10-point panel rule; numpy's own nodes, not the package's
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# the benchmark's references settle by 16 panels, and cos(400 s) on [0, 5] by 512
_HALVINGS = 16  # weight_laplace_integral's halvings before it gives up: 4 * 2^16 panels


@np.errstate(all="ignore")  # an overflow is refused below, in silence
def weight_laplace_integral(w: WeightFunction, lam, T: float):
    """J(lam) = int_0^T w(s) e^{-lam s} ds by adaptive composite panels, for a
    scalar lam (a float) or an array of lam (same shape). Ascending groups of 1,
    1, 2, 4, ... lam have their panels halved until each sum moves by < 1e-14,
    relative; a sum not finite or unsettled after _HALVINGS halvings raises NumericalError.
    """
    lams = real_array("lam", lam).ravel()
    if lams.size == 0:
        raise ValueError("lam must be nonempty")
    positive_finite("lam", lams.min())  # a NaN anywhere makes both NaN
    positive_finite("lam", lams.max())
    positive_finite("horizon T", T)
    J = [math.inf] * lams.size  # each lam's last sum; live: a group's unsettled lam
    for live in np.split(np.argsort(lams), 2 ** np.arange((lams.size - 1).bit_length())):
        for halving in range(_HALVINGS + 1):  # 4 panels, then twice as many each time
            # a call of w holds at most 4 * 2^_HALVINGS panels, one lam's last halving
            P, chunk, unsettled = 4 * 2**halving, 2 ** (_HALVINGS - halving), []
            for part in (live[i:i + chunk] for i in range(0, len(live), chunk)):
                # past s = 50/lam the integrand is below 2e-22 sup|w|, so no panel goes there
                edges = np.linspace(0.0, np.minimum(T, 50.0 / lams[part]), P + 1).T
                half = np.diff(edges) / 2
                x = (half[..., None] * (_PANEL_NODES + 1) + edges[:, :-1, None]).reshape(-1, 10)
                wx = w.values(x)
                wx = wx * np.exp(-lams[part].repeat(P)[:, None] * x)
                values = half * np.sum(_PANEL_WEIGHTS * wx, axis=1).reshape(half.shape)
                for k, row in zip(part, values.tolist()):
                    try:  # finite panels can still sum past the float range
                        total = math.fsum(row)
                    except (OverflowError, ValueError):  # ValueError: inf - inf
                        total = math.inf
                    if not math.isfinite(total):  # no halving can settle it
                        raise NumericalError(
                            f"reference integral is not finite (lam={lams[k]}, T={T})")
                    if abs(total - J[k]) > 1e-14 * max(1.0, abs(total)):
                        unsettled.append(k)
                    J[k] = total
            live = unsettled
            if not live:
                break
        else:
            raise NumericalError(f"reference integral did not settle after {_HALVINGS} "
                                 f"halvings (lam={lams[live[0]]}, T={T})")
    return J[0] if np.ndim(lam) == 0 else np.reshape(J, np.shape(lam))


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
    lam, J = op.eigenvalues, weight_laplace_integral(w, op.eigenvalues, T)
    if w.kind == "cos":  # J against its elementary antiderivative
        with np.errstate(over="ignore"):  # lam * lam past the float max makes closed 0
            closed = (lam - np.exp(-lam * T) * (lam * math.cos(T) - math.sin(T))) / (1 + lam * lam)
        off = np.abs(J - closed) > 1e-13 * np.maximum(1.0, np.abs(closed))
        if off.any():
            raise NumericalError(f"adaptive integral {J[off][0]} disagrees with the closed "
                                 f"form {closed[off][0]}")
    rows = np.exp(-np.multiply.outer(ts, lam)) * op.to_modal(u0) / (1.0 + J)
    return op.from_modal(rows[0] if scalar else rows)
