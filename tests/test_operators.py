import math

import numpy as np
import pytest

from nonlocalsolver import (
    DiagonalOperator,
    Laplacian1D,
    NumericalError,
    SineSpectralOperator,
    UniformStep,
    contour_point,
    make_contour,
    make_laplacian1d,
    make_self_adjoint_contour,
    poly_x2_1mx_coefficients,
)


def _plan_nodes(op, N=64):
    """The folded Sinc nodes z_0..z_N of a default-step plan on op."""
    c = make_contour(op.spectral)
    return contour_point(c, np.arange(N + 1) * UniformStep().step_size(c, N)).z


class TestDiagonalOperator:
    def test_scalar_resolvent(self):
        op = DiagonalOperator([1.0])
        assert op.resolvent_apply(2.0, [1.0]) == pytest.approx([1.0])

    def test_componentwise(self):
        op = DiagonalOperator([1.0, 4.0])
        assert op.resolvent_apply(2.0 + 0j, [1.0, 1.0]) == pytest.approx([1.0, -0.5])

    def test_modified_scalar(self):
        op = DiagonalOperator([1.0])
        assert op.modified_resolvent_apply(2.0, [1.0]) == pytest.approx([0.5])

    def test_modified_zero_vector(self):
        op = DiagonalOperator([3.0, 5.0])
        out = op.modified_resolvent_apply(1.0 + 1.0j, [0.0, 0.0])
        assert np.max(np.abs(out)) == 0.0

    def test_modified_closed_form(self):
        lam = math.pi**2
        op = DiagonalOperator([lam])
        a_I = make_self_adjoint_contour(lam).a_I
        out = op.modified_resolvent_apply(a_I, [1.0])
        assert out[0] == pytest.approx(lam / (a_I * (a_I - lam)), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagonalOperator([])
        with pytest.raises(ValueError):
            DiagonalOperator([2.0, 1.0])
        with pytest.raises(ValueError):
            DiagonalOperator([0.0, 1.0])
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                DiagonalOperator([2.0, bad])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DiagonalOperator([1.0, 2.0]).resolvent_apply(3.0, [1.0])

    def test_modified_rejects_zero(self):
        with pytest.raises(ValueError):
            DiagonalOperator([1.0]).modified_resolvent_apply(0.0, [1.0])

    def test_near_singular_reported(self):
        op = DiagonalOperator([4.0])
        with pytest.raises(NumericalError):
            op.resolvent_apply(4.0 + 1e-16j, [1.0])

    def test_call_counter(self):
        op = DiagonalOperator([1.0, 2.0])
        assert op.resolvent_calls == 0
        op.resolvent_apply(5.0, [1.0, 1.0])
        op.modified_resolvent_apply(5.0, [1.0, 1.0])
        assert op.resolvent_calls == 2

    def test_identity_basis(self):
        op = DiagonalOperator([1.0, 2.0])
        v = np.array([0.5, -1.0])
        assert op.to_modal(v) is v and op.from_modal(v) is v

    def test_spectral_bounds(self):
        op = DiagonalOperator([2.5, 9.0])
        assert op.spectral.rho0 == 2.5
        assert op.spectral.phi == 0.0


class TestLaplacian1D:
    def test_against_dense_inverse(self):
        op = make_laplacian1d(3)
        dx2 = op.dx**2
        A = (np.diag([2.0] * 3) + np.diag([-1.0] * 2, 1) + np.diag([-1.0] * 2, -1)) / dx2
        z = 0.5
        e2 = np.array([0.0, 1.0, 0.0])
        expect = np.linalg.solve(z * np.eye(3) - A, e2)
        got = op.resolvent_apply(z, e2)
        assert np.max(np.abs(got - expect)) <= 1e-13

    def test_against_dense_inverse_complex(self):
        op = make_laplacian1d(7)
        dx2 = op.dx**2
        A = (np.diag([2.0] * 7) + np.diag([-1.0] * 6, 1) + np.diag([-1.0] * 6, -1)) / dx2
        rng = np.random.default_rng(3)
        v = rng.normal(size=7) + 1j * rng.normal(size=7)
        z = 4.0 - 11.0j
        expect = np.linalg.solve(z * np.eye(7) - A, v)
        got = op.resolvent_apply(z, v)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_smallest_eigenvalue(self):
        op = make_laplacian1d(3)
        assert op.spectral.rho0 == pytest.approx(64 * math.sin(math.pi / 8) ** 2, rel=1e-14)

    def test_eigenvalue_consistency_limit(self):
        op = make_laplacian1d(1000)
        assert op.spectral.rho0 < math.pi**2
        assert op.spectral.rho0 == pytest.approx(math.pi**2, rel=1e-5)

    def test_discrete_eigenvectors(self):
        # m = 2 is the smallest grid, where a "same"-mode stencil is one too long
        for m in (2, 3, 40):
            op = make_laplacian1d(m)
            for k in range(1, min(m, 3) + 1):
                lam = op.eigenvalue(k)
                mode = np.sin(k * math.pi * op.grid)
                for v in (mode, (1 - 2j) * mode):
                    assert np.max(np.abs(op.apply(v) - lam * v)) <= 1e-12 * lam

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            make_laplacian1d(1)

    def test_pivot_underflow_reported(self):
        op = make_laplacian1d(4)
        lam1 = op.eigenvalue(1)
        with pytest.raises(NumericalError):
            op.resolvent_apply(complex(lam1), np.ones(4))

    def test_matches_sine_expansion_on_contour(self):
        m = 1000
        op = Laplacian1D(m)
        ks = np.array([1, 2, 3, 5, 8, 500, 999, 1000])
        # sin(k j pi/(m+1)) with k*j reduced exactly, so that the reference
        # basis carries no rounding of a large argument
        j = np.arange(1, m + 1)
        basis = np.sin(math.pi * (np.outer(ks, j) % (2 * (m + 1))) / (m + 1))
        lam = (4.0 / op.dx**2) * np.sin(ks * math.pi * op.dx / 2) ** 2
        rng = np.random.default_rng(1)
        c = rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)
        v = c @ basis
        for z in _plan_nodes(op):
            expect = (c / (z - lam)) @ basis
            got = op.resolvent_apply(z, v)
            assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)

    def test_against_dense_solve_on_contour(self):
        m = 200
        op = Laplacian1D(m)
        A = (np.diag([2.0] * m) + np.diag([-1.0] * (m - 1), 1)
             + np.diag([-1.0] * (m - 1), -1)) / op.dx**2
        rng = np.random.default_rng(4)
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        for z in _plan_nodes(op):
            expect = np.linalg.solve(z * np.eye(m) - A, v)
            got = op.resolvent_apply(z, v)
            # the dense LU solve is itself accurate only to about
            # cond(zI - A) * eps; cond reaches 5.6e4 on these nodes, and the
            # largest gap measured is 2.6e-12
            assert np.max(np.abs(got - expect)) <= 1e-11 * np.max(np.abs(expect))

    def test_conjugation_on_contour(self):
        op = Laplacian1D(1000)
        rng = np.random.default_rng(8)
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        for z in _plan_nodes(op):
            a = op.resolvent_apply(np.conj(z), np.conj(v))
            b = np.conj(op.resolvent_apply(z, v))
            assert np.max(np.abs(a - b)) == 0.0

    def test_modal_round_trip(self):
        op = Laplacian1D(1000)
        rng = np.random.default_rng(12)
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        back = op.from_modal(op.to_modal(v))
        assert np.linalg.norm(back - v) <= 1e-14 * np.linalg.norm(v)

    def test_modified_resolvent_in_modal_coordinates(self):
        op = Laplacian1D(1000)
        rng = np.random.default_rng(13)
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        c = op.to_modal(v)
        for z in _plan_nodes(op):
            got = op.from_modal(op.modified_resolvent_apply(z, c))
            r = op.resolvent_apply(z, v)
            # relative to the two terms: their difference cancels by a factor
            # of up to |z| / lambda_m, about 1e5 at the outermost node
            scale = max(np.linalg.norm(r), np.linalg.norm(v / z))
            assert np.linalg.norm(got - (r - v / z)) <= 1e-13 * scale
        assert op.resolvent_calls == 2 * 65

    def test_refuses_extreme_eigenvalues(self):
        m = 1000
        op = Laplacian1D(m)
        for k in (1, m):
            with pytest.raises(NumericalError):
                op.resolvent_apply(complex(op.eigenvalue(k)), np.ones(m))


class TestSineSpectralOperator:
    def test_eigenvalues(self):
        op = SineSpectralOperator(3)
        assert op.eigenvalues == pytest.approx(
            [math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rel=1e-15)
        assert op.spectral.rho0 == math.pi**2

    def test_resolvent_componentwise(self):
        op = SineSpectralOperator(2)
        out = op.resolvent_apply(50.0, [1.0, 1.0])
        assert out == pytest.approx(
            [1 / (50 - math.pi**2), 1 / (50 - 4 * math.pi**2)], rel=1e-14)

    def test_evaluate_series(self):
        op = SineSpectralOperator(2)
        val = op.evaluate([1.0, 0.5], 0.25)
        expect = math.sin(math.pi * 0.25) + 0.5 * math.sin(2 * math.pi * 0.25)
        assert val == pytest.approx(expect, rel=1e-15)
        vals = op.evaluate([1.0, 0.5], np.array([0.25, 0.5]))
        assert vals[0] == pytest.approx(expect, rel=1e-15)

    def test_rejects_no_modes(self):
        with pytest.raises(ValueError):
            SineSpectralOperator(0)


def test_poly_profile_coefficients_against_quadrature():
    # c_k = 2 * int_0^1 (1-x)x^2 sin(k pi x) dx, by a dense independent rule
    x, wts = np.polynomial.legendre.leggauss(120)
    x = (x + 1) / 2
    wts = wts / 2
    f = (1 - x) * x * x
    coeffs = poly_x2_1mx_coefficients(10)
    for k in range(1, 11):
        ref = 2.0 * np.sum(wts * f * np.sin(k * math.pi * x))
        assert coeffs[k - 1] == pytest.approx(ref, abs=1e-14)


def _operators_for_residual_test():
    return [
        DiagonalOperator(np.sort(np.random.default_rng(0).uniform(1, 50, 12))),
        make_laplacian1d(40),
        SineSpectralOperator(15),
    ]


@pytest.mark.parametrize("op", _operators_for_residual_test(),
                         ids=["diagonal", "laplacian", "sine"])
def test_resolvent_residual_on_contour(op):
    c = make_self_adjoint_contour(op.spectral.rho0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = contour_point(c, rng.uniform(-3.0, 3.0))
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        u = op.resolvent_apply(p.z, v)
        res = np.linalg.norm(p.z * u - op.apply(u) - v) / np.linalg.norm(v)
        assert res <= 1e-12


def test_laplacian_self_adjoint_resolvent_norm_bound():
    op = make_laplacian1d(30)
    c = make_self_adjoint_contour(op.spectral.rho0)
    lams = np.array([op.eigenvalue(k) for k in range(1, 31)])
    rng = np.random.default_rng(5)
    for zeta in np.linspace(-3, 3, 13):
        z = contour_point(c, zeta).z
        dist = np.min(np.abs(z - lams))
        v = rng.normal(size=30)
        u = op.resolvent_apply(z, v)
        assert np.linalg.norm(u) / np.linalg.norm(v) <= 2.0 / dist


def test_modified_resolvent_decay_along_contour():
    op = DiagonalOperator([2.0, 6.0])
    c = make_self_adjoint_contour(2.0)
    v = np.array([1.0, 1.0])
    norms = []
    for zeta in (2.0, 3.0, 4.0):
        z = contour_point(c, zeta).z
        norms.append(np.linalg.norm(op.modified_resolvent_apply(z, v)))
    assert norms[0] > norms[1] > norms[2]


def test_resolvent_conjugation():
    for op in (DiagonalOperator([1.0, 3.0]), make_laplacian1d(6)):
        rng = np.random.default_rng(9)
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        z = 2.0 + 5.0j
        a = op.resolvent_apply(np.conj(z), np.conj(v))
        b = np.conj(op.resolvent_apply(z, v))
        assert np.max(np.abs(a - b)) == 0.0


def test_resolvent_rejects_nonfinite_z():
    for op in (DiagonalOperator([1.0, 3.0]), Laplacian1D(6)):
        v = np.ones(op.dim)
        for z in (math.nan, complex(math.inf, 1.0), complex(1.0, math.nan), -math.inf):
            with pytest.raises(ValueError):
                op.resolvent_apply(z, v)
            with pytest.raises(ValueError):
                op.modified_resolvent_apply(z, v)
        assert op.resolvent_calls == 0


def test_singularity_check_matches_full_scan():
    # the check reads only the eigenvalues around Re z; it must refuse exactly
    # when the distance to the whole spectrum is below 1e-14*|z|
    rng = np.random.default_rng(11)
    outcomes = set()
    for _ in range(40):
        lam = np.sort(rng.choice(rng.uniform(0.5, 1e4, 12), size=16))  # with repeats
        op = DiagonalOperator(lam)
        v = np.ones(op.dim)
        zs = [0.5 * lam[0] + 3j, 2.0 * lam[-1] - 1j, lam[-1] + 1e-9,
              (lam[3] + lam[4]) / 2 + 1e-3j, lam[5] + 0j]
        for j in rng.integers(0, lam.size, 4):
            for s in (0.5, 0.999999, 1.0, 1.000001, 2.0):
                for sign in (1.0, -1.0):
                    zs.append(lam[j] * (1 + sign * s * 1e-14))
                    zs.append(lam[j] + 1j * s * 1e-14 * lam[j])
        for z in zs:
            z = complex(z)
            refused = np.min(np.abs(z - lam)) < 1e-14 * abs(z)
            if refused:
                with pytest.raises(NumericalError):
                    op.resolvent_apply(z, v)
            else:
                assert np.array_equal(op.resolvent_apply(z, v), v / (z - lam))
            outcomes.add(bool(refused))
    assert outcomes == {True, False}


@pytest.mark.parametrize("make", [Laplacian1D, SineSpectralOperator])
def test_rejects_non_integer_size(make):
    for size in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="integer"):
            make(size)
    assert make(np.int64(3)).dim == 3


@pytest.mark.parametrize("m", [2, 3, 1000, 2001, 100000])
def test_laplacian_spectrum_strictly_ascending(m):
    # the singularity check assumes an ascending spectrum
    assert np.all(np.diff(Laplacian1D(m).eigenvalues) > 0)
