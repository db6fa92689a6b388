"""Gauss-Legendre quadrature for the nonlocal weight integral and the
step-size rules for the Sinc (trapezoid) quadrature over the contour."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GaussRule:
    """An (n+1)-point Gauss-Legendre rule on [-1, 1]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> GaussRule:
    """The (n+1)-point Gauss-Legendre rule, nodes ascending; cached per order."""
    if n < 0:
        raise ValueError(f"rule order must be nonnegative, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n + 1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(order=n, nodes=nodes, weights=weights)


def map_to_interval(rule: GaussRule, T: float):
    """Map the rule from [-1,1] to (0,T): nodes xi_j and scaled weights."""
    if not (T > 0):
        raise ValueError(f"interval length must be positive, got {T}")
    xi = (T / 2.0) * (rule.nodes + 1.0)
    return xi, (T / 2.0) * rule.weights


class WeightFunction:
    """The weight w(s) of the nonlocal condition u(0) + int_0^T w(s)u(s)ds = u0.

    Built through the class-method constructors; evaluation is vectorized.
    """

    def __init__(self, kind, fn, label, sup_hint=None):
        self.kind = kind
        self._fn = fn
        self.label = label
        self.sup_norm_hint = sup_hint

    def __call__(self, s):
        return self._fn(np.asarray(s, dtype=float))

    def __repr__(self):
        return f"WeightFunction({self.label})"

    @classmethod
    def zero(cls):
        return cls("constant", lambda s: np.zeros_like(s), "0", sup_hint=0.0)

    @classmethod
    def constant(cls, c: float):
        c = float(c)
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
        c = [float(a) for a in coeffs]
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
        return float(np.max(np.abs(self(s)))), True


def nonlocal_integral(rule: GaussRule, w: WeightFunction, T: float, z):
    """Gauss approximation I_n(z) of int_0^T w(s) e^{-z s} ds.

    z may be a scalar or an array; the result broadcasts over z.
    """
    if not (T > 0):
        raise ValueError(f"horizon T must be positive, got {T}")
    xi, sw = map_to_interval(rule, T)
    vals = sw * w(xi)
    z = np.asarray(z)
    out = np.exp(-np.multiply.outer(z, xi)) @ vals
    return out if out.ndim else complex(out)


def sinc_step_uniform(d1: float, alpha: float, N: int) -> float:
    """Step size balancing the strip and truncation errors uniformly in t."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if d1 <= 0 or N < 0:
        raise ValueError("require d1 > 0 and N >= 0")
    return math.sqrt(math.pi * d1 / (alpha * (N + 1)))


def sinc_step_large_t(N: int, c1: float = 1.0) -> float:
    """Step size tuned for evaluation at large times, h = c1*ln(N)/N."""
    if N < 2:
        raise ValueError(f"large-t step needs N >= 2, got {N}")
    if not (c1 > 0):
        raise ValueError(f"c1 must be positive, got {c1}")
    return c1 * math.log(N) / N


def sinc_step_calibrated(N: int) -> float:
    """Aggressive step size calibrated on the built-in benchmark problems.

    Decays like (N+1)^(-0.67), faster than the uniform rule's inverse square
    root, trading the worst-case truncation guarantee for the accuracy the
    benchmarks actually exhibit at moderate N.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    return 1.71 * (N + 1) ** (-0.67)


def gauss_error_bound_analytic(M_bound: float, rho: float, n: int) -> float:
    """Upper bound on the Gauss error when the integrand extends analytically
    to the Bernstein ellipse of parameter rho with bound M_bound."""
    if not (rho > 1):
        raise ValueError(f"Bernstein parameter must exceed 1, got {rho}")
    if n < 2:
        raise ValueError(f"bound requires n >= 2, got {n}")
    if not (M_bound > 0):
        raise ValueError(f"M_bound must be positive, got {M_bound}")
    return 144.0 * M_bound * rho ** (-2 * n) / (35.0 * (rho * rho - 1.0))


def gauss_error_bound_bv(V: float, nu: int, n: int) -> float:
    """Upper bound on the Gauss error when the integrand's nu-th derivative
    has total variation V."""
    if V < 0:
        raise ValueError(f"variation must be nonnegative, got {V}")
    if nu < 1:
        raise ValueError(f"nu must be at least 1, got {nu}")
    if n <= 2 * nu + 1:
        raise ValueError(f"bound requires n > 2*nu+1 = {2 * nu + 1}, got {n}")
    return 32.0 * V / (15.0 * math.pi * nu * (n - 2 * nu - 1) ** (2 * nu + 1))
