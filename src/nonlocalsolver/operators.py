"""Sectorial operators with resolvent application.

Three concrete operators are provided: a plain diagonal test operator, a
finite-difference 1D Laplacian with Dirichlet ends, and an exact sine-spectral
realization of the same Laplacian that carries no spatial discretization
error. All expose (zI - A)^{-1} v and the spectral bounds needed to build an
integration contour.
"""

import math
from abc import ABC, abstractmethod

import numpy as np

from .contour import SpectralBounds
from .errors import NumericalError


class SectorialOperator(ABC):
    """Abstract operator A with spectrum in a right-half-plane sector.

    Subclasses implement _resolvent(z, v); the public entry point validates
    dimensions and counts calls (the counter backs the reuse tests).
    """

    dim: int
    spectral: SpectralBounds

    def __init__(self):
        self.resolvent_calls = 0

    @abstractmethod
    def _resolvent(self, z: complex, v: np.ndarray) -> np.ndarray:
        ...

    @abstractmethod
    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply A itself (used for residual checks)."""

    def resolvent_apply(self, z: complex, v) -> np.ndarray:
        """Solve (zI - A) u = v."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dim,):
            raise ValueError(f"state length {v.shape} does not match dim {self.dim}")
        self.resolvent_calls += 1
        return self._resolvent(complex(z), v)

    def modified_resolvent_apply(self, z: complex, v) -> np.ndarray:
        """Apply (zI - A)^{-1} - I/z, which decays like |z|^{-2} on the contour."""
        z = complex(z)
        if z == 0:
            raise ValueError("modified resolvent is undefined at z = 0")
        v = np.asarray(v, dtype=complex)
        return self.resolvent_apply(z, v) - v / z


class DiagonalOperator(SectorialOperator):
    """A = diag(lambda_1, ..., lambda_d) with positive ascending eigenvalues."""

    def __init__(self, eigenvalues):
        super().__init__()
        lam = np.asarray(eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if not np.all(lam > 0):
            raise ValueError("all eigenvalues must be positive")
        if not np.all(np.diff(lam) >= 0):
            raise ValueError("eigenvalues must be ascending")
        self.eigenvalues = lam
        self.dim = lam.size
        self.spectral = SpectralBounds(rho0=float(lam[0]), phi=0.0)

    def apply(self, v):
        return self.eigenvalues * np.asarray(v)

    def _resolvent(self, z, v):
        gap = np.abs(z - self.eigenvalues)
        if np.min(gap) < 1e-14 * abs(z):
            raise NumericalError(
                f"resolvent nearly singular: z = {z} within 1e-14*|z| of an eigenvalue"
            )
        return v / (z - self.eigenvalues)


class Laplacian1D(SectorialOperator):
    """Finite-difference -d2/dx2 on (0,1) with Dirichlet ends, m interior points."""

    def __init__(self, m: int):
        super().__init__()
        if m < 2:
            raise ValueError(f"need at least 2 interior points, got m = {m}")
        self.m = m
        self.dim = m
        self.dx = 1.0 / (m + 1)
        lam1 = (4.0 / self.dx**2) * math.sin(math.pi * self.dx / 2) ** 2
        self.spectral = SpectralBounds(rho0=lam1, phi=0.0)

    @property
    def grid(self):
        """Interior grid points x_i = i*dx."""
        return self.dx * np.arange(1, self.m + 1)

    def eigenvalue(self, k: int) -> float:
        return (4.0 / self.dx**2) * math.sin(k * math.pi * self.dx / 2) ** 2

    def apply(self, v):
        v = np.asarray(v)
        out = 2.0 * v.copy()
        out[1:] -= v[:-1]
        out[:-1] -= v[1:]
        return out / self.dx**2

    def _resolvent(self, z, v):
        # Thomas sweep on the tridiagonal zI - A_h: diagonal z - 2/dx^2,
        # off-diagonals +1/dx^2 (from -(-1/dx^2)). No pivoting; a vanishing
        # pivot means z sits (numerically) on the spectrum.
        m = self.m
        off = 1.0 / self.dx**2
        d = z - 2.0 / self.dx**2
        scale = abs(z) + 2.0 / self.dx**2
        cp = np.empty(m, dtype=complex)
        dp = np.empty(m, dtype=complex)
        piv = d
        if abs(piv) < 1e-14 * scale:
            raise NumericalError(f"tridiagonal pivot underflow at row 0 for z = {z}")
        cp[0] = off / piv
        dp[0] = v[0] / piv
        for i in range(1, m):
            piv = d - off * cp[i - 1]
            if abs(piv) < 1e-14 * scale:
                raise NumericalError(
                    f"tridiagonal pivot underflow at row {i} for z = {z}"
                )
            cp[i] = off / piv
            dp[i] = (v[i] - off * dp[i - 1]) / piv
        u = np.empty(m, dtype=complex)
        u[-1] = dp[-1]
        for i in range(m - 2, -1, -1):
            u[i] = dp[i] - cp[i] * u[i + 1]
        return u


class SineSpectralOperator(DiagonalOperator):
    """Exact spectral realization of -d2/dx2 on (0,1) with Dirichlet ends.

    States are sine-series coefficient vectors (c_1..c_M) in the basis
    sin(k*pi*x); mode k has eigenvalue exactly (k*pi)^2.
    """

    def __init__(self, modes: int):
        if modes < 1:
            raise ValueError(f"need at least one mode, got {modes}")
        super().__init__((np.arange(1, modes + 1) * math.pi) ** 2)
        self.modes = modes

    def evaluate(self, coeffs, x):
        """Evaluate the sine series sum_k c_k sin(k*pi*x) at x."""
        coeffs = np.asarray(coeffs)
        x = np.asarray(x, dtype=float)
        k = np.arange(1, self.modes + 1)
        basis = np.sin(np.multiply.outer(x, k) * math.pi)
        out = basis @ coeffs
        return out if out.ndim else out[()]


def make_laplacian1d(m: int) -> Laplacian1D:
    """Finite-difference Laplacian on m interior points of (0,1)."""
    return Laplacian1D(m)


def poly_x2_1mx_coefficients(modes: int) -> np.ndarray:
    """Sine coefficients of the profile u0(x) = (1-x)*x^2 on (0,1).

    From the elementary antiderivative of 2*(1-x)x^2 sin(k pi x):
    c_k = (-8*(-1)^k - 4) / (k pi)^3.
    """
    k = np.arange(1, modes + 1)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    return (-8.0 * sign - 4.0) / (k * math.pi) ** 3
