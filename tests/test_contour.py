import math

import numpy as np
import pytest

from nonlocalsolver import (
    ConfigError,
    DiagonalOperator,
    NonlocalProblem,
    SolverConfig,
    SpectralBounds,
    WeightFunction,
    contour_point,
    make_contour,
    make_self_adjoint_contour,
    solve_at,
)
from nonlocalsolver.contour import Contour


def test_spectral_bounds_validation():
    with pytest.raises(ValueError):
        SpectralBounds(rho0=0.0)
    with pytest.raises(ValueError):
        SpectralBounds(rho0=-1.0)
    with pytest.raises(ValueError, match="rho0 must be positive and finite, got inf"):
        SpectralBounds(rho0=math.inf)
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


def _system_residuals(c, b, rho1):
    """Residuals of the two defining equations the closed form came from, for
    the contour c that make_contour built from bounds b and rho1."""
    r1 = c.a_I * math.cos(c.d1 / 2) + c.b_I * math.sin(c.d1 / 2) - b.rho0
    # the innermost shifted hyperbola, at angle d1 + phi, passes through (rho1, 0)
    r2 = math.hypot(b.rho0, b.b0) * math.cos(c.d1 + b.phi) - rho1
    return r1, r2


def test_make_contour_satisfies_defining_system():
    b, rho1 = SpectralBounds(rho0=math.pi**2, phi=0.3), math.pi**2 / 2
    r1, r2 = _system_residuals(make_contour(b, rho1=rho1), b, rho1)
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
    b = SpectralBounds(rho0=rho0, phi=phi)
    r1, r2 = _system_residuals(make_contour(b, rho1=rho1), b, rho1)
    assert abs(r1) <= 1e-12 * max(1.0, rho0)
    assert abs(r2) <= 1e-12 * max(1.0, rho0)


def test_make_contour_rejects_bad_rho1():
    b = SpectralBounds(rho0=1.0, phi=0.2)
    for rho1 in (1.0, -0.5, math.nan):
        with pytest.raises(ConfigError, match="rho1 must lie"):
            make_contour(b, rho1=rho1)


def test_degenerate_strip_refused():
    # rho1 one ulp below rho0 puts arccos(rho1 / r) a rounding below phi
    bounds = SpectralBounds(1.0, 0.039899665551839464)
    rho1 = math.nextafter(1.0, 0.0)
    # make_contour raises ConfigError itself, for this strip and for rho1 = rho0
    with pytest.raises(ConfigError, match="degenerate strip"):
        make_contour(bounds, rho1)
    with pytest.raises(ConfigError, match="rho1 must lie"):
        make_contour(SpectralBounds(2.0), 2.0)
    op = DiagonalOperator([1.0, 2.0])
    op.spectral = bounds
    problem = NonlocalProblem(op=op, T=1.0, w=WeightFunction.zero(), u0=[1.0, 1.0])
    with pytest.raises(ConfigError, match="degenerate strip"):
        solve_at(problem, SolverConfig(rho1=rho1), 0.5)


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
        assert c.a_I > rho1


def test_self_adjoint_contour():
    c = make_self_adjoint_contour(math.pi**2)
    assert c.a_I == c.b_I
    assert c.a_I == pytest.approx(math.pi**2 / math.sqrt(2), rel=1e-15)
    assert c.d1 == math.pi / 2
    assert make_self_adjoint_contour(math.sqrt(2)).a_I == pytest.approx(1.0, abs=1e-16)
    for rho0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rho0 must be positive and finite"):
            make_self_adjoint_contour(rho0)


def test_contour_point_at_vertex():
    c = make_self_adjoint_contour(2.0)
    p = contour_point(c, 0.0)
    assert p.z == complex(c.a_I, 0.0)
    assert p.dz == complex(0.0, -c.b_I)


def test_contour_point_scalar_values():
    c = Contour(a_I=1.0, b_I=2.0, d1=math.pi / 2)
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

