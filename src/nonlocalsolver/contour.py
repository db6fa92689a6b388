"""Integration hyperbola geometry.

The solution operator is represented as a contour integral over a hyperbola
that envelopes the spectrum of A. The hyperbola is parametrized as

    z(zeta) = a_I*cosh(zeta) - i*b_I*sinh(zeta),

and its axes (a_I, b_I) together with the analyticity strip width d1 are
determined by the spectral characteristics (rho0, phi) of the operator and an
optional inner shift rho1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, positive_finite, real_number


@dataclass(frozen=True)
class SpectralBounds:
    """Location of the spectrum: sector with vertex rho0 and half-angle phi."""

    rho0: float
    phi: float = 0.0

    def __post_init__(self):
        positive_finite("rho0", self.rho0)
        if not (0.0 <= real_number("phi", self.phi) < math.pi / 2):
            raise ValueError(f"phi must lie in [0, pi/2), got {self.phi}")

    @property
    def b0(self) -> float:
        """Imaginary semi-axis of the spectral hyperbola, rho0*tan(phi)."""
        return self.rho0 * math.tan(self.phi)


@dataclass(frozen=True)
class Contour:
    """Integration hyperbola with vertex a_I, slope axis b_I, strip width d1."""

    a_I: float
    b_I: float
    d1: float


@dataclass(frozen=True)
class PathPoint:
    """Points z on the contour with their parametric derivatives dz; scalars
    for a scalar zeta, arrays for an array of zeta."""

    z: complex | np.ndarray
    dz: complex | np.ndarray


def make_contour(bounds: SpectralBounds, rho1: float = 0.0) -> Contour:
    """Build the integration hyperbola for the given spectral bounds.

    rho1 shifts the inner boundary of the admissible region to the vertical
    line Re z = rho1; the default 0 gives the widest analyticity strip,
    d1 = pi/2 - phi. It raises ConfigError for rho1 outside [0, rho0) or d1 <= 0.
    """
    r = math.hypot(bounds.rho0, bounds.b0)
    if not (0.0 <= rho1 < bounds.rho0):
        raise ConfigError(f"rho1 must lie in [0, rho0), got {rho1}")
    d1 = math.acos(rho1 / r) - bounds.phi
    if d1 <= 0.0:
        raise ConfigError(
            f"degenerate strip: d1 = {d1} <= 0 for rho1={rho1}, phi={bounds.phi}"
        )
    half = d1 / 2 + bounds.phi
    a_I = r * math.cos(half)
    b_I = r * math.sin(half)
    return Contour(a_I=a_I, b_I=b_I, d1=d1)


def make_self_adjoint_contour(rho0: float) -> Contour:
    """Contour for a self-adjoint positive definite operator."""
    a = positive_finite("rho0", rho0) / math.sqrt(2.0)
    return Contour(a_I=a, b_I=a, d1=math.pi / 2)


def contour_point(c: Contour, zeta) -> PathPoint:
    """Evaluate z(zeta) and z'(zeta) on the integration hyperbola (zeta scalar
    or array)."""
    z = c.a_I * np.cosh(zeta) - 1j * c.b_I * np.sinh(zeta)
    dz = c.a_I * np.sinh(zeta) - 1j * c.b_I * np.cosh(zeta)
    return PathPoint(z=z, dz=dz)

