"""Gauss-Legendre quadrature for the nonlocal weight integral I(z) and the
weight functions it integrates."""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import count, positive_finite, real_array, real_number

# I(z) is cut at Re(z) s = _TAIL_EXPONENT: the tail beyond is at most
# e^{-37} sup|w| / Re z, below 8.5e-17 wherever the solvability condition
# sup|w| < a_I <= Re z holds
_TAIL_EXPONENT = 37.0
# bound on the Gauss error for e^{-zs} on one panel of length L, relative to
# L max|e^{-zs}| over the panel
_PANEL_TOL = 1e-16
_MAX_PANELS = 1024


@dataclass(frozen=True)
class GaussRule:
    """An (n+1)-point Gauss-Legendre rule on [-1, 1]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _panel_span(n: int) -> float:
    """Largest sigma = |z| L for which the (n+1)-point rule integrates e^{-zs}
    over a panel of length L to the relative accuracy _PANEL_TOL.

    With m = n+1 points, Gauss's remainder on [-1, 1] is
    C_m g^(2m)(xi), C_m = 2^(2m+1) (m!)^4 / ((2m+1) ((2m)!)^3). Applied to
    the real and the imaginary part of e^{-zs} on the panel, whose 2m-th
    derivatives are at most |z|^(2m) max|e^{-zs}|, the error relative to
    L max|e^{-zs}| is at most C_m (sigma/2)^(2m) / sqrt(2).
    """
    m = n + 1
    log_c = ((2 * m + 1) * math.log(2.0) + 4.0 * math.lgamma(m + 1)
             - math.log(2 * m + 1) - 3.0 * math.lgamma(2 * m + 1))
    return 2.0 * math.exp((math.log(math.sqrt(2.0) * _PANEL_TOL) - log_c) / (2 * m))


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> GaussRule:
    """The (n+1)-point Gauss-Legendre rule, nodes ascending; cached per order."""
    count("n", n, 0)
    nodes, weights = np.polynomial.legendre.leggauss(n + 1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(order=n, nodes=nodes, weights=weights)


class WeightFunction:
    """The weight w(s) of the nonlocal condition u(0) + int_0^T w(s)u(s)ds = u0.

    Built through the class-method constructors, which refuse complex data, an
    empty coefficient list and a non-finite constant, coefficient or sup|w| hint;
    evaluation is vectorized.
    """

    def __init__(self, kind, fn, label, sup_hint=None):
        hint = None if sup_hint is None else real_number(f"weight {label}: sup|w|", sup_hint)
        if not (hint is None or 0.0 <= hint < math.inf):
            raise ValueError(f"weight {label}: sup|w| must be finite and >= 0, got {sup_hint}")
        self.kind = kind
        self._fn = fn
        self.label = label
        self.sup_norm_hint = sup_hint

    def __call__(self, s):
        return self._fn(np.asarray(s, dtype=float))

    def __repr__(self):
        return f"WeightFunction({self.label})"

    def values(self, s):
        """w at the points s, one real value each; a single value is broadcast."""
        v = real_array(f"weight {self!r}", self(s))
        if v.shape not in (s.shape, ()):
            raise ValueError(f"weight {self!r} gave {v.shape} values at {s.shape} points")
        return np.broadcast_to(v, s.shape)

    @classmethod
    def zero(cls):
        return cls.constant(0.0)

    @classmethod
    def constant(cls, c: float):
        c = real_number("weight constant", c)
        return cls("constant", lambda s: np.full_like(s, c), f"const:{c}",
                   sup_hint=abs(c))

    # cos and cos_square both attain |w| = 1 at s = 0
    @classmethod
    def cos(cls):
        return cls("cos", np.cos, "cos(s)", sup_hint=1.0)

    @classmethod
    def cos_square(cls):
        """w(s) = cos(s^2)."""
        return cls("cos_square", lambda s: np.cos(s * s), "cos(s^2)", sup_hint=1.0)

    @classmethod
    def polynomial(cls, coeffs):
        c = real_array("weight polynomial coefficients", list(coeffs)).tolist()
        if not c:
            raise ValueError("weight polynomial coefficients must be nonempty")
        if not all(map(math.isfinite, c)):
            raise ValueError(f"weight polynomial coefficients must be finite, got {c}")
        poly = np.polynomial.Polynomial(c)
        label = "poly:" + ",".join(repr(a) for a in c)
        return cls("poly", poly, label)

    @classmethod
    def from_callable(cls, fn, sup_norm_hint=None):
        return cls("callable", fn, getattr(fn, "__name__", "callable"),
                   sup_hint=sup_norm_hint)

    def sup_norm(self, T: float):
        """Max of |w| on [0,T] and whether the value is only an estimate.

        Known analytic maxima are returned exactly; otherwise |w| is sampled
        on a dense grid (2048 points) and the result is flagged estimated.
        """
        if self.sup_norm_hint is not None:
            return self.sup_norm_hint, False
        s = np.linspace(0.0, T, 2048)
        with np.errstate(all="ignore"):  # an inf or NaN maximum fails sharp_ok, in silence
            return float(np.max(np.abs(self(s)))), True


def integral_bytes(n: int, ratio: float) -> int:
    """Bytes per node that nonlocal_integral may hold at once at order n, for
    nodes with |z| / Re z <= ratio.

    Then |z| s_max <= 37 ratio, so a node takes at most
    P = min(1024, ceil(37 ratio / _panel_span(n))) panels. The count is 48
    bytes, six reals, per Gauss point of P + 1 panels: by tracemalloc the call
    peaks at 4.9 to 6.3 reals per point of its P panels, and the extra panel
    covers its (K, n+1) arrays.
    """
    panels = min(_MAX_PANELS, math.ceil(_TAIL_EXPONENT * ratio / _panel_span(n)))
    return 48 * (panels + 1) * (n + 1)


def nonlocal_integral(rule: GaussRule, w: WeightFunction, T: float, z):
    """Composite Gauss approximation I_n(z) of int_0^T w(s) e^{-z s} ds.

    For each node z the interval is cut at s_max = min(T, 37 / Re z), where
    e^{-zs} has fallen below e^{-37} = 8.5e-17, and split into P equal
    panels, each integrated by the (n+1)-point rule. The program chooses P:
    the smallest count for which Gauss's remainder for e^{-zs} on one panel
    is below 1e-16 of the panel's scale (see _panel_span). P depends on the
    node alone, so a node's value does not depend, beyond rounding, on the
    other nodes of the call. On the integration hyperbola |z| / Re z is at
    most 1 / cos of its half-angle, so |z| s_max <= 37 / cos and P stays
    small (at most 3 for n = 16 and a self-adjoint operator). The remainder
    covers e^{-zs}; w is assumed smooth on the scale of one panel. P is
    capped at 1024, with a warning where the cap leaves the bound unmet
    (n <= 2 on a typical contour). A complex-valued w raises ValueError.

    z may be a scalar or an array; the result broadcasts over z.
    """
    positive_finite("horizon T", T)
    z = np.asarray(z)
    zf = z.ravel()
    s_max = _TAIL_EXPONENT / np.maximum(zf.real, _TAIL_EXPONENT / T)
    kappa = np.abs(zf) * s_max
    span = _panel_span(rule.order)
    # a non-finite node gets one panel and a non-finite value
    panels = np.maximum(np.ceil(np.where(kappa < np.inf, kappa, 0.0) / span), 1.0)
    pmax = int(panels.max(initial=1))
    if pmax > _MAX_PANELS:
        warnings.warn(
            f"I(z) is not resolved to double precision: n = {rule.order} needs "
            f"{pmax} panels, capped at {_MAX_PANELS}; raise n",
            stacklevel=2,
        )
        panels, pmax = np.minimum(panels, _MAX_PANELS), _MAX_PANELS
    L = s_max / panels
    p = np.arange(pmax)
    x = (rule.nodes + 1.0) / 2.0
    zL = zf * L
    # e^{-z(p + x_j)L} = e^{-zpL} e^{-z x_j L}: P + n + 1 exponentials per
    # node; the panels past a node's own count are weighted 0
    outer = np.exp(np.multiply.outer(-zL, p)) * (p < panels[:, None])
    inner = np.exp(np.multiply.outer(-zL, x)) * np.multiply.outer(L / 2.0, rule.weights)
    # the points of the zero-weighted panels are moved to s_max <= T
    s = np.minimum(np.multiply.outer(L, np.add.outer(p, x)), s_max[:, None, None])
    ws = w.values(s)
    out = np.matmul(outer[:, None, :], np.matmul(ws, inner[:, :, None])).reshape(z.shape)
    return out if out.ndim else complex(out)
