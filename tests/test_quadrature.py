import math

import numpy as np
import pytest

from nonlocalsolver import (
    CalibratedStep,
    SpectralBounds,
    UniformStep,
    WeightFunction,
    WindowStep,
    contour_point,
    gauss_legendre,
    make_contour,
    nonlocal_integral,
)


class TestGaussLegendre:
    def test_one_point(self):
        rule = gauss_legendre(0)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_two_point(self):
        rule = gauss_legendre(1)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_five_point_degree_eight(self):
        rule = gauss_legendre(4)
        val = np.sum(rule.weights * rule.nodes**8)
        assert val == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            gauss_legendre(-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32])
    def test_node_symmetry_and_weight_sum(self, n):
        rule = gauss_legendre(n)
        assert len(rule.nodes) == n + 1
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes == pytest.approx(-rule.nodes[::-1], abs=1e-14)
        assert math.fsum(rule.weights) == pytest.approx(2.0, abs=1e-14)
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_monomial_exactness(self, n):
        rule = gauss_legendre(n)
        for d in range(2 * n + 2):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            val = math.fsum(rule.weights * rule.nodes**d)
            assert abs(val - exact) <= 1e-13

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_against_numpy_leggauss(self, n):
        rule = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n + 1)
        assert np.max(np.abs(rule.nodes - ref_x)) <= 5e-15
        assert np.max(np.abs(rule.weights - ref_w)) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 9))
    def test_polynomial_residual_small_order(self, n):
        rule = gauss_legendre(n)
        p = np.polynomial.legendre.legval(rule.nodes, [0.0] * (n + 1) + [1.0])
        assert np.max(np.abs(p)) <= 1e-15

    def test_rules_are_cached(self):
        assert gauss_legendre(6) is gauss_legendre(6)


class TestWeightFunction:
    def test_cos_sup_norm_exact(self):
        val, estimated = WeightFunction.cos().sup_norm(math.pi / 2)
        assert val == 1.0 and not estimated

    def test_cos_square_values(self):
        w = WeightFunction.cos_square()
        s = np.array([0.0, 1.0, 1.3])
        assert w(s) == pytest.approx(np.cos(s * s), abs=1e-16)

    def test_constant(self):
        w = WeightFunction.constant(0.25)
        assert w(np.array([0.0, 1.0])).tolist() == [0.25, 0.25]
        assert w.sup_norm(3.0) == (0.25, False)

    def test_zero(self):
        w = WeightFunction.zero()
        assert w.sup_norm(1.0) == (0.0, False)

    def test_polynomial_sup_is_estimate(self):
        w = WeightFunction.polynomial([0.0, 1.0])  # w(s) = s
        val, estimated = w.sup_norm(2.0)
        assert estimated
        assert val == pytest.approx(2.0, rel=1e-6)

    def test_callable_with_hint(self):
        w = WeightFunction.from_callable(lambda s: np.exp(-s), sup_norm_hint=1.0)
        assert w.sup_norm(5.0) == (1.0, False)

    def test_callable_without_hint_is_estimate(self):
        w = WeightFunction.from_callable(lambda s: np.exp(-s))
        val, estimated = w.sup_norm(5.0)
        assert estimated and val == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("make", [
        lambda: WeightFunction.constant(math.nan),
        lambda: WeightFunction.constant(math.inf),
        lambda: WeightFunction.constant(-math.inf),
        lambda: WeightFunction.polynomial([math.nan, 1.0]),
        lambda: WeightFunction.polynomial([1.0, -math.inf]),
        lambda: WeightFunction.from_callable(np.cos, sup_norm_hint=-1.0),
        lambda: WeightFunction.from_callable(np.cos, sup_norm_hint=math.inf),
        lambda: WeightFunction.from_callable(np.cos, sup_norm_hint=math.nan),
    ], ids=["const-nan", "const-inf", "const-minus-inf", "poly-nan", "poly-minus-inf",
            "hint-negative", "hint-inf", "hint-nan"])
    def test_rejects_nonfinite_data(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestNonlocalIntegral:
    def test_zero_weight(self):
        rule = gauss_legendre(5)
        assert nonlocal_integral(rule, WeightFunction.zero(), 1.0, 3.0 + 1j) == 0.0

    def test_unit_weight_at_zero(self):
        rule = gauss_legendre(3)
        val = nonlocal_integral(rule, WeightFunction.constant(1.0), 2.5, 0.0)
        assert val == pytest.approx(2.5, abs=1e-14)

    def test_cos_weight_closed_form(self):
        # int_0^{pi/2} cos(s) e^{-pi^2 s} ds = (pi^2 + e^{-pi^3/2})/(1+pi^4)
        lam = math.pi**2
        exact = (lam + math.exp(-lam * math.pi / 2)) / (1 + lam * lam)
        val = nonlocal_integral(gauss_legendre(16), WeightFunction.cos(), math.pi / 2, lam)
        assert abs(val - exact) <= 1e-14
        # large |z| T, where one 17-point rule over [0, T] cannot resolve
        # e^{-zs}: real nodes, and nodes far out on the contour of A = pi^2;
        # int_0^T cos(s) e^{-zs} ds = (z - e^{-zT}(z cos T - sin T))/(1+z^2)
        T = math.pi / 2
        contour = make_contour(SpectralBounds(rho0=math.pi**2))
        far = [contour_point(contour, zeta).z for zeta in (4.0, 6.0)]
        for z in [500.0, 5000.0] + far:
            exact = (z - np.exp(-z * T) * (z * math.cos(T) - math.sin(T))) / (1 + z * z)
            val = nonlocal_integral(gauss_legendre(16), WeightFunction.cos(), T, z)
            assert abs(val - exact) <= 1e-14 * abs(exact)

    def test_real_z_has_negligible_imag(self):
        val = nonlocal_integral(gauss_legendre(12), WeightFunction.cos(), 1.0, 4.0)
        assert abs(np.imag(val)) <= 1e-16 * abs(val)

    def test_vectorized_over_z(self):
        rule = gauss_legendre(8)
        w = WeightFunction.cos()
        zs = np.array([1.0 + 2.0j, 3.0 - 1.0j])
        vec = nonlocal_integral(rule, w, 1.0, zs)
        for i, z in enumerate(zs):
            assert vec[i] == pytest.approx(nonlocal_integral(rule, w, 1.0, z), rel=1e-15)

    def test_contour_nodes_batch_matches_single(self):
        # the panel count is chosen per node, so a node's value is the same,
        # up to rounding, alone or among the other nodes
        contour = make_contour(SpectralBounds(rho0=math.pi**2))
        for n, N in [(4, 32), (8, 16), (16, 64)]:
            h = CalibratedStep().step_size(contour, N)
            zs = contour_point(contour, np.arange(N + 1) * h).z
            rule, w = gauss_legendre(n), WeightFunction.cos()
            vec = nonlocal_integral(rule, w, math.pi / 2, zs)
            for i, z in enumerate(zs):
                assert vec[i] == pytest.approx(nonlocal_integral(rule, w, math.pi / 2, z),
                                               rel=1e-15)

    def test_low_order_warns_when_panel_cap_binds(self):
        with pytest.warns(UserWarning, match="not resolved"):
            nonlocal_integral(gauss_legendre(1), WeightFunction.cos(), math.pi / 2, 5000.0)

    def test_geometric_convergence_entire_weight(self):
        w = WeightFunction.cos_square()
        ref = nonlocal_integral(gauss_legendre(64), w, math.pi / 2, 1.0)
        errs = [abs(nonlocal_integral(gauss_legendre(n), w, math.pi / 2, 1.0) - ref)
                for n in (4, 8, 16)]
        assert errs[1] <= 0.25 * errs[0]
        assert errs[2] <= 0.25 * errs[1]

    def test_rejects_bad_T(self):
        with pytest.raises(ValueError):
            nonlocal_integral(gauss_legendre(2), WeightFunction.cos(), -1.0, 1.0)


def _contour(phi=0.0):
    """A contour with strip width d1 = pi/2 - phi."""
    return make_contour(SpectralBounds(rho0=1.0, phi=phi))


class TestStepRules:
    # a rule reads only the contour and N
    def test_uniform_value(self):
        h = UniformStep().step_size(_contour(), 31)
        assert h == pytest.approx(math.pi / (4 * math.sqrt(2)), rel=1e-15)

    def test_uniform_strip_scaling(self):
        h_wide = UniformStep().step_size(_contour(), 31)
        h_narrow = UniformStep().step_size(_contour(math.pi / 4), 31)
        assert h_wide == pytest.approx(math.sqrt(2) * h_narrow, rel=1e-14)

    def test_uniform_inverse_sqrt_law(self):
        c = _contour(0.5)
        assert UniformStep().step_size(c, 31) == pytest.approx(
            2 * UniformStep().step_size(c, 127), rel=1e-14)

    def test_uniform_balance_identity(self):
        for phi, alpha, N in [(0.0, 0.5, 16), (0.67, 0.25, 63), (0.27, 0.7, 5)]:
            c = _contour(phi)
            h = UniformStep(alpha).step_size(c, N)
            assert math.pi * c.d1 / h == pytest.approx(alpha * (N + 1) * h, rel=1e-13)

    def test_uniform_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.2, 1.5, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                UniformStep(alpha)

    def test_window_balance_identity(self):
        # the strip error exp(-pi d1 / h) equals the truncation error
        # exp(-a_I t_min cosh(N h)) at t_min
        for rho0, phi, t_min, N in [(1.0, 0.0, 0.01, 64), (math.pi**2, 0.0, 0.1, 16),
                                    (50.0, 1.2, 5.0, 32), (1e-3, 0.4, 1e3, 1)]:
            c = make_contour(SpectralBounds(rho0=rho0, phi=phi))
            h = WindowStep(t_min).step_size(c, N)
            assert math.pi * c.d1 / h == pytest.approx(
                c.a_I * t_min * math.cosh(N * h), rel=1e-12)
        # with one node there is no truncation, and h is the bracket's end
        c = _contour(0.3)
        assert WindowStep(0.5).step_size(c, 0) == pytest.approx(
            math.pi * c.d1 / (c.a_I * 0.5), rel=1e-13)

    def test_window_later_start_shorter_step(self):
        hs = [WindowStep(t).step_size(_contour(), 64) for t in (1e-3, 0.01, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_window_extreme_t_min_no_overflow(self):
        # every RuntimeWarning is an error under the test configuration
        for phi in (0.0, 1.2):
            for rho0 in (1e-3, 1.0, 1e6):
                c = make_contour(SpectralBounds(rho0=rho0, phi=phi))
                for t_min in (1e-300, 1e300, 5e-324, 1.7e308):
                    for N in (0, 1, 64, np.int64(64), 10**12):
                        assert 0 < WindowStep(t_min).step_size(c, N) < math.inf

    def test_calibrated_decreasing(self):
        hs = [CalibratedStep().step_size(_contour(), N) for N in (0, 8, 16, 32, 64)]
        assert all(h > 0 for h in hs)
        assert all(a > b for a, b in zip(hs, hs[1:]))
