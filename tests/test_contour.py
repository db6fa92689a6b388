import math

import numpy as np
import pytest

from nonlocalsolver import (
    SpectralBounds,
    contour_point,
    make_contour,
    make_self_adjoint_contour,
    shifted_axes,
)
from nonlocalsolver.contour import Contour


def test_spectral_bounds_validation():
    with pytest.raises(ValueError):
        SpectralBounds(rho0=0.0)
    with pytest.raises(ValueError):
        SpectralBounds(rho0=-1.0)
    with pytest.raises(ValueError):
        SpectralBounds(rho0=1.0, phi=math.pi / 2)
    with pytest.raises(ValueError):
        SpectralBounds(rho0=1.0, phi=-0.1)


def test_b0_is_rho0_tan_phi():
    b = SpectralBounds(rho0=2.0, phi=0.4)
    assert b.b0 == pytest.approx(2.0 * math.tan(0.4), rel=1e-15)
    assert SpectralBounds(rho0=3.0).b0 == 0.0


def test_make_contour_quarter_sector():
    c = make_contour(SpectralBounds(rho0=1.0, phi=math.pi / 4), rho1=0.0)
    assert c.d1 == pytest.approx(math.pi / 4, abs=1e-15)


def test_make_contour_phi_zero_matches_self_adjoint():
    c = make_contour(SpectralBounds(rho0=1.0, phi=0.0), rho1=0.0)
    assert c.d1 == pytest.approx(math.pi / 2, abs=1e-15)
    assert c.a_I == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert c.b_I == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    sa = make_self_adjoint_contour(1.0)
    # cos(pi/4) and 1/sqrt(2) differ by one ulp
    assert sa.a_I == pytest.approx(c.a_I, abs=2e-16)
    assert sa.b_I == pytest.approx(c.b_I, abs=2e-16)


def _system_residuals(c):
    """Residuals of the two defining equations the closed form came from."""
    b = c.bounds
    r1 = c.a_I * math.cos(c.d1 / 2) + c.b_I * math.sin(c.d1 / 2) - b.rho0
    # the innermost shifted hyperbola passes through (rho1, 0)
    a_in, _ = shifted_axes(c, -c.d1 / 2)
    r2 = a_in - c.rho1
    return r1, r2


def test_make_contour_satisfies_defining_system():
    c = make_contour(SpectralBounds(rho0=math.pi**2, phi=0.3), rho1=math.pi**2 / 2)
    r1, r2 = _system_residuals(c)
    assert abs(r1) <= 1e-12
    assert abs(r2) <= 1e-12


@pytest.mark.parametrize("rho0,phi,rho1", [
    (1.0, 0.0, 0.0),
    (1.0, 0.7, 0.3),
    (5.5, 1.2, 2.0),
    (math.pi**2, 0.3, 4.0),
    (0.1, 0.05, 0.02),
])
def test_defining_system_residuals_grid(rho0, phi, rho1):
    c = make_contour(SpectralBounds(rho0=rho0, phi=phi), rho1=rho1)
    r1, r2 = _system_residuals(c)
    assert abs(r1) <= 1e-12 * max(1.0, rho0)
    assert abs(r2) <= 1e-12 * max(1.0, rho0)


def test_make_contour_rejects_bad_rho1():
    b = SpectralBounds(rho0=1.0, phi=0.2)
    with pytest.raises(ValueError):
        make_contour(b, rho1=1.0)
    with pytest.raises(ValueError):
        make_contour(b, rho1=-0.5)


def test_strip_width_positive_for_valid_inputs():
    # arccos(rho1*cos(phi)/rho0) > phi whenever rho1 < rho0, so d1 > 0
    rng = np.random.default_rng(4)
    for _ in range(200):
        rho0 = rng.uniform(0.1, 50.0)
        phi = rng.uniform(0.0, 1.5)
        rho1 = rng.uniform(0.0, 0.999) * rho0
        c = make_contour(SpectralBounds(rho0=rho0, phi=phi), rho1=rho1)
        assert c.d1 > 0


def test_monotonicity_in_rho1():
    b = SpectralBounds(rho0=4.0, phi=0.5)
    d1_prev, aI_prev = None, None
    for rho1 in np.linspace(0.0, 3.0, 7):
        c = make_contour(b, rho1=float(rho1))
        if d1_prev is not None:
            assert c.d1 < d1_prev
            assert c.a_I > aI_prev
        d1_prev, aI_prev = c.d1, c.a_I


def test_vertex_right_of_inner_line():
    for rho1 in (0.0, 1.0, 5.0):
        c = make_contour(SpectralBounds(rho0=9.0, phi=0.4), rho1=rho1)
        assert c.a_I > c.rho1


def test_self_adjoint_contour():
    c = make_self_adjoint_contour(math.pi**2)
    assert c.a_I == c.b_I
    assert c.a_I == pytest.approx(math.pi**2 / math.sqrt(2), rel=1e-15)
    assert c.d1 == math.pi / 2
    assert c.self_adjoint
    assert make_self_adjoint_contour(math.sqrt(2)).a_I == pytest.approx(1.0, abs=1e-16)
    with pytest.raises(ValueError):
        make_self_adjoint_contour(0.0)


def test_contour_point_at_vertex():
    c = make_self_adjoint_contour(2.0)
    p = contour_point(c, 0.0)
    assert p.z == complex(c.a_I, 0.0)
    assert p.dz == complex(0.0, -c.b_I)


def test_contour_point_scalar_values():
    c = Contour(bounds=SpectralBounds(rho0=1.0), rho1=0.0,
                a_I=1.0, b_I=2.0, d1=math.pi / 2)
    p = contour_point(c, 1.0)
    assert p.z == pytest.approx(1.5430806348152437 - 2.3504023872876029j, rel=1e-15)
    assert p.dz == pytest.approx(math.sinh(1.0) - 2j * math.cosh(1.0), rel=1e-15)


def test_contour_point_conjugate_symmetry_exact():
    c = make_contour(SpectralBounds(rho0=3.0, phi=0.6), rho1=0.5)
    rng = np.random.default_rng(7)
    for zeta in rng.uniform(-5.0, 5.0, 50):
        p, q = contour_point(c, zeta), contour_point(c, -zeta)
        assert q.z == p.z.conjugate()
        assert q.dz == -p.dz.conjugate()


def test_contour_point_real_part_at_least_vertex():
    c = make_contour(SpectralBounds(rho0=2.0, phi=0.3), rho1=0.0)
    for zeta in np.linspace(-4, 4, 41):
        assert contour_point(c, zeta).z.real >= c.a_I - 1e-12


def test_shifted_axes_center_and_edges():
    c = make_contour(SpectralBounds(rho0=3.0, phi=0.4), rho1=1.0)
    a0, b0 = shifted_axes(c, 0.0)
    assert a0 == pytest.approx(c.a_I, rel=1e-15)
    assert b0 == pytest.approx(c.b_I, rel=1e-15)
    a_out, b_out = shifted_axes(c, c.d1 / 2)
    assert a_out == pytest.approx(c.bounds.rho0, rel=1e-13)
    assert b_out == pytest.approx(c.bounds.b0, rel=1e-12)
    a_in, _ = shifted_axes(c, -c.d1 / 2)
    assert a_in == pytest.approx(c.rho1, rel=1e-12)


def test_shifted_axes_rejects_outside_strip():
    c = make_contour(SpectralBounds(rho0=3.0, phi=0.4), rho1=1.0)
    with pytest.raises(ValueError):
        shifted_axes(c, c.d1 / 2 + 1e-9)


def test_shifted_axes_bounds_random():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        rho0 = rng.uniform(0.2, 20.0)
        phi = rng.uniform(0.0, 1.4)
        rho1 = rng.uniform(0.0, 0.8) * rho0
        try:
            c = make_contour(SpectralBounds(rho0=rho0, phi=phi), rho1=rho1)
        except ValueError:
            continue  # degenerate strip draw
        nu = rng.uniform(-c.d1 / 2, c.d1 / 2)
        a, b = shifted_axes(c, nu)
        tol = 1e-12 * rho0
        assert c.rho1 - tol <= a <= c.bounds.rho0 + tol
        bmax = math.sqrt(c.bounds.b0**2 + rho0**2 - rho1**2)
        assert c.bounds.b0 - tol <= b <= bmax + tol
