import math

import numpy as np
import pytest

from nonlocalsolver import (
    DiagonalOperator,
    ModeProblem,
    SectorialOperator,
    SineSpectralOperator,
    SpectralBounds,
    WeightFunction,
    mode_reference,
    poly_x2_1mx_coefficients,
    reference_solution,
)
from nonlocalsolver.oracle import weight_laplace_integral


class TestWeightLaplaceIntegral:
    @pytest.mark.parametrize("lam", [1.0, math.pi**2, 100.0])
    def test_cos_closed_form(self, lam):
        T = math.pi / 2
        exact = (lam + math.exp(-lam * T)) / (1 + lam * lam)
        got = weight_laplace_integral(WeightFunction.cos(), lam, T)
        assert abs(got - exact) <= 1e-14 * max(1.0, exact)

    def test_constant_closed_form(self):
        lam, T, c = 3.0, 1.2, 0.7
        exact = c * (1 - math.exp(-lam * T)) / lam
        got = weight_laplace_integral(WeightFunction.constant(c), lam, T)
        assert got == pytest.approx(exact, rel=1e-13)

    def test_zero_weight(self):
        assert weight_laplace_integral(WeightFunction.zero(), 2.0, 1.0) == 0.0

    def test_stiff_mode_stays_accurate(self):
        # lam so large that the integrand lives on a tiny initial interval
        lam = (50 * math.pi) ** 2
        exact = lam / (1 + lam * lam)  # cos form, e^{-lam T} underflows
        got = weight_laplace_integral(WeightFunction.cos(), lam, math.pi / 2)
        assert got == pytest.approx(exact, rel=1e-10)


class TestModeReference:
    def test_zero_weight(self):
        p = ModeProblem(lam=2.0, w=WeightFunction.zero(), T=1.0, c0=3.0)
        assert mode_reference(p, 0.7) == pytest.approx(3.0 * math.exp(-1.4), rel=1e-15)

    def test_time_zero(self):
        lam, T = math.pi**2, math.pi / 2
        J = (lam + math.exp(-lam * T)) / (1 + lam * lam)
        p = ModeProblem(lam=lam, w=WeightFunction.cos(), T=T, c0=1.0)
        assert mode_reference(p, 0.0) == pytest.approx(1.0 / (1 + J), rel=1e-14)

    def test_consistent_coefficient_gives_pure_exponential(self):
        # the initial coefficient 1 + J makes the denominator cancel exactly
        lam, T = math.pi**2, math.pi / 2
        J = (lam + math.exp(-lam * T)) / (1 + lam * lam)
        p = ModeProblem(lam=lam, w=WeightFunction.cos(), T=T, c0=1.0 + J)
        assert mode_reference(p, 1.0) == pytest.approx(math.exp(-lam), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeProblem(lam=0.0, w=WeightFunction.zero(), T=1.0, c0=1.0)
        with pytest.raises(ValueError):
            ModeProblem(lam=1.0, w=WeightFunction.zero(), T=0.0, c0=1.0)
        p = ModeProblem(lam=1.0, w=WeightFunction.zero(), T=1.0, c0=1.0)
        with pytest.raises(ValueError):
            mode_reference(p, -1.0)


class TestReferenceSolution:
    def test_single_mode_embedding(self):
        op = DiagonalOperator([1.0, 5.0])
        w = WeightFunction.cos()
        out = reference_solution(op, w, 0.5, [0.0, 2.0], 0.3)
        assert out[0] == 0.0
        p = ModeProblem(lam=5.0, w=w, T=0.5, c0=2.0)
        assert out[1] == mode_reference(p, 0.3)

    def test_benchmark1_exact_solution(self):
        op = SineSpectralOperator(1)
        c0 = (1 + math.pi**4 + math.pi**2 + math.exp(-math.pi**3 / 2)) / (1 + math.pi**4)
        out = reference_solution(op, WeightFunction.cos(), math.pi / 2, [c0], 1.0)
        val = op.evaluate(out, 0.5)
        assert abs(val - math.exp(-math.pi**2) * math.sin(math.pi * 0.5)) <= 1e-14

    def test_benchmark2_mode_truncation_stable(self):
        w = WeightFunction.cos_square()
        vals = []
        for modes in (200, 400):
            op = SineSpectralOperator(modes)
            u0 = poly_x2_1mx_coefficients(modes)
            out = reference_solution(op, w, math.pi / 2, u0, 1.0)
            vals.append(op.evaluate(out, 0.4))
        assert abs(vals[0] - vals[1]) <= 1e-16

    def test_rejects_nondiagonalizable(self):
        class Dense(SectorialOperator):
            """A small dense operator that is not diagonal in any basis it knows."""

            dim, a = 2, np.array([[2.0, 1.0], [0.0, 3.0]])
            spectral = SpectralBounds(rho0=2.0)

            def _resolvent(self, z, c):
                return np.linalg.solve(z * np.eye(2) - self.a, c)

            def apply(self, v):
                return self.a @ v

        with pytest.raises(TypeError):
            reference_solution(Dense(), WeightFunction.zero(), 1.0, np.ones(2), 0.5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            reference_solution(DiagonalOperator([1.0]), WeightFunction.zero(),
                               1.0, [1.0, 2.0], 0.5)
