"""Sectorial operators with resolvent application.

Three concrete operators are provided, all DiagonalOperators in a basis of
their own: a plain diagonal test operator, a finite-difference 1D Laplacian
with Dirichlet ends, diagonal in its exact DST-I basis, and an exact
sine-spectral realization of the same Laplacian with no spatial
discretization error. All expose (zI - A)^{-1} v, refusing a z within
1e-14*|z| of an eigenvalue, and the spectral bounds that build the contour.
"""

import cmath
import math
from abc import ABC, abstractmethod

import numpy as np

from .contour import SpectralBounds
from .errors import NumericalError


class SectorialOperator(ABC):
    """Abstract operator A with spectrum in a right-half-plane sector.

    A subclass sets dim and spectral and implements _resolvent(z, c) on modal
    coefficients c, the coordinates of a state in the eigenbasis; it calls no
    __init__ here. apply(v), A itself, is optional, read by residual checks;
    to_modal and from_modal, state to coefficients and back, are the identity
    unless a subclass has a basis of its own. The public entry points validate
    dimensions and count solves in resolvent_calls, a class default 0 at first.
    """

    dim: int
    spectral: SpectralBounds
    resolvent_calls: int = 0

    @abstractmethod
    def _resolvent(self, z: complex, c: np.ndarray) -> np.ndarray:
        ...

    def to_modal(self, v):
        """Coefficients of the state v in the eigenbasis, along the last axis."""
        return v

    def from_modal(self, c):
        """The state whose coefficients are c, along the last axis."""
        return c

    def _count(self, z, v):
        """Validate z and the length of v, and count one resolvent solve."""
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"resolvent needs a finite z, got {z}")
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dim,):
            raise ValueError(f"state length {v.shape} does not match dim {self.dim}")
        self.resolvent_calls += 1
        return z, v

    def resolvent_apply(self, z: complex, v) -> np.ndarray:
        """Solve (zI - A) u = v for a finite z."""
        z, v = self._count(z, v)
        return self.from_modal(self._resolvent(z, self.to_modal(v)))

    def modified_resolvent_apply(self, z: complex, c) -> np.ndarray:
        """Apply (zI - A)^{-1} - I/z, which decays like |z|^{-2} on the contour,
        to modal coefficients c; the result is modal coefficients too."""
        if z == 0:
            raise ValueError("modified resolvent is undefined at z = 0")
        z, c = self._count(z, c)
        return self._resolvent(z, c) - c * (1 / z)


class DiagonalOperator(SectorialOperator):
    """A = diag(lambda_1, ..., lambda_d) with positive ascending eigenvalues,
    in the basis of to_modal/from_modal: the identity here, a subclass's own
    basis otherwise."""

    def __init__(self, eigenvalues):
        lam = np.asarray(eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if not ((lam > 0) & (lam < math.inf)).all():
            raise ValueError("all eigenvalues must be positive and finite")
        if not np.all(np.diff(lam) >= 0):
            raise ValueError("eigenvalues must be ascending")
        self.eigenvalues = lam
        self.dim = lam.size
        self.spectral = SpectralBounds(rho0=float(lam[0]), phi=0.0)

    def apply(self, v):
        return self.eigenvalues * np.asarray(v)

    def _resolvent(self, z, c):
        """c / (z - eigenvalues), refusing a z within 1e-14*|z| of an eigenvalue.

        The eigenvalues are real and ascending. Rounding is monotone, so
        |z - lambda| is then smallest at one of the two eigenvalues around
        Re z, and only those two are checked: the same refusals as a check of
        all of them, in O(log d)."""
        gap = z - self.eigenvalues
        i = int(self.eigenvalues.searchsorted(z.real))
        if min(abs(gap[max(i - 1, 0)]), abs(gap[min(i, gap.size - 1)])) < 1e-14 * abs(z):
            raise NumericalError(f"resolvent nearly singular: z = {z} within 1e-14*|z| "
                                 "of an eigenvalue")
        return c / gap


class Laplacian1D(DiagonalOperator):
    """Finite-difference -d2/dx2 on (0,1) with Dirichlet ends, dim = m interior points.

    A_h = S diag(lambda_k) S with S the orthonormal DST-I matrix, so A_h is a
    DiagonalOperator in the basis S. Its states are grid values: to_modal and
    from_modal both apply S, O(m log m), and apply is the three-point stencil
    on the grid, independent of S."""

    def __init__(self, m: int):
        if not (isinstance(m, (int, np.integer)) and m >= 2):
            raise ValueError(f"need an integer number m >= 2 of interior points, got m = {m}")
        self.dx = 1.0 / (m + 1)
        super().__init__(self.eigenvalue(np.arange(1, m + 1)))

    @property
    def grid(self):
        """Interior grid points x_i = i*dx."""
        return self.dx * np.arange(1, self.dim + 1)

    def eigenvalue(self, k):
        """lambda_k for an integer k or an integer array k."""
        return (4.0 / self.dx**2) * np.sin(k * math.pi * self.dx / 2) ** 2

    def apply(self, v):
        # full mode: "same" would return 3 values at m = 2
        return np.convolve(v, [-1.0, 2.0, -1.0])[1:-1] / self.dx**2

    def to_modal(self, v):
        """S v along the last axis, by rfft of the odd extension. The plan
        transforms only real data; a complex v, which resolvent_apply passes,
        is transformed as Re v and Im v apart."""
        v = np.asarray(v)
        if np.iscomplexobj(v):
            return self.to_modal(v.real) + 1j * self.to_modal(v.imag)
        zero = np.zeros(v.shape[:-1] + (1,))
        ext = np.concatenate((zero, v, zero, -v[..., ::-1]), axis=-1)
        return np.fft.rfft(ext)[..., 1 : self.dim + 1].imag / -math.sqrt(2 * self.dim + 2)

    from_modal = to_modal  # S is symmetric and orthogonal, so S^{-1} = S


class SineSpectralOperator(DiagonalOperator):
    """Exact spectral realization of -d2/dx2 on (0,1) with Dirichlet ends.

    States are sine-series coefficient vectors (c_1..c_M) in the basis
    sin(k*pi*x); mode k has eigenvalue exactly (k*pi)^2.
    """

    def __init__(self, modes: int):
        if not (isinstance(modes, (int, np.integer)) and modes >= 1):
            raise ValueError(f"need an integer number of modes >= 1, got {modes}")
        super().__init__((np.arange(1, modes + 1) * math.pi) ** 2)

    def evaluate(self, coeffs, x):
        """Evaluate the sine series sum_k c_k sin(k*pi*x) at x."""
        coeffs = np.asarray(coeffs)
        x = np.asarray(x, dtype=float)
        k = np.arange(1, self.dim + 1)
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
