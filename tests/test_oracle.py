import math
import warnings

import numpy as np
import pytest

from nonlocalsolver import (
    DiagonalOperator,
    Laplacian1D,
    NumericalError,
    SectorialOperator,
    SineSpectralOperator,
    SpectralBounds,
    WeightFunction,
    poly_x2_1mx_coefficients,
    reference_solution,
)
from nonlocalsolver import oracle
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

    def test_unsettled_integral_refused(self, monkeypatch):
        # 4 and 8 panels cannot resolve cos(400 s) on [0, 1], so one halving
        # leaves the sum moving
        monkeypatch.setattr(oracle, "_HALVINGS", 1)
        w = WeightFunction.from_callable(lambda s: np.cos(400.0 * s), sup_norm_hint=1.0)
        with pytest.raises(NumericalError, match="did not settle after 1 halvings"):
            weight_laplace_integral(w, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_weight_refused_at_once(self, monkeypatch, bad):
        # a sum that is not finite can never settle, so the first pass refuses
        # it; the cap of 2 halvings keeps the test fast where it is retried
        monkeypatch.setattr(oracle, "_HALVINGS", 2)
        w = WeightFunction.from_callable(lambda s: np.where(s > 0.5, bad, 1.0))
        with pytest.raises(NumericalError, match="reference integral is not finite"):
            weight_laplace_integral(w, 1.0, 1.0)

    @pytest.mark.parametrize("c", [5e307, 1e308])
    def test_overflowing_sum_refused_without_warning(self, c):
        # at 5e307 the finite panels sum past the float max inside math.fsum,
        # at 1e308 already in a panel's row sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as e:
                weight_laplace_integral(WeightFunction.constant(c), 1e-3, 5.0)
        assert str(e.value) == "reference integral is not finite (lam=0.001, T=5.0)"

    def test_weight_called_once_per_halving(self):
        # each halving evaluates w once, on the Gauss points of all its panels
        shapes = []

        def w(s):
            shapes.append(s.shape)
            return np.cos(s)

        got = weight_laplace_integral(WeightFunction.from_callable(w, 1.0), 2.0, 1.0)
        assert got == weight_laplace_integral(WeightFunction.cos(), 2.0, 1.0)
        assert shapes == [(4 * 2**k, 10) for k in range(len(shapes))]

    @pytest.mark.parametrize("lam, T, field", [
        (-1.0, 1.0, "lam"), (0.0, 1.0, "lam"), (math.inf, 1.0, "lam"), (math.nan, 1.0, "lam"),
        ([2.0, -1.0], 1.0, "lam"), ([math.nan, 2.0], 1.0, "lam"), ([2.0, math.inf], 1.0, "lam"),
        (2.0, -1.0, "horizon T"), (2.0, 0.0, "horizon T"), (2.0, math.inf, "horizon T"),
        (2.0, math.nan, "horizon T"),
    ])
    def test_bad_lam_or_horizon_refused(self, lam, T, field):
        # refused by name before any panel is summed, for a scalar lam or an array
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got "):
            weight_laplace_integral(WeightFunction.cos(), lam, T)

    @pytest.mark.parametrize("w", [
        WeightFunction.from_callable(lambda s: np.cos(400.0 * s), 1.0),
        WeightFunction.cos_square(),
        WeightFunction.constant(-0.5),
    ], ids=["cos400", "cos_square", "constant"])
    def test_array_equals_scalar_calls(self, w):
        # these lam settle after 1 to 7 halvings, so one group holds lam at
        # different halvings; the order and the shape of the lam do not matter
        lams = [1e-3, 1.0, 10.0, 1e3, 1e8]
        scalar = [weight_laplace_integral(w, lam, 5.0) for lam in lams]
        assert all(type(J) is float for J in scalar)
        assert np.array_equal(weight_laplace_integral(w, np.array(lams), 5.0), scalar)
        assert np.array_equal(weight_laplace_integral(w, lams[::-1], 5.0), scalar[::-1])
        grid = weight_laplace_integral(w, np.reshape(lams[:4], (2, 2)), 5.0)
        assert np.array_equal(grid, np.reshape(scalar[:4], (2, 2)))

    @pytest.mark.parametrize("fn", [lambda s: np.cos(s * s), lambda s: np.full_like(s, -0.5)],
                             ids=["cos_square", "constant"])
    def test_pass_holds_at_most_one_last_halving(self, monkeypatch, fn):
        # a pass over a group is split so that no call of w holds more points
        # than one lam's last halving, 4 * 2^_HALVINGS panels of 10
        monkeypatch.setattr(oracle, "_HALVINGS", 3)
        sizes = []

        def w(s):
            sizes.append(s.size)
            return fn(s)

        lams = np.logspace(-3, 3, 64)
        got = weight_laplace_integral(WeightFunction.from_callable(w, 1.0), lams, 5.0)
        assert max(sizes) == 4 * 2**3 * 10
        want = [weight_laplace_integral(WeightFunction.from_callable(fn, 1.0), lam, 5.0)
                for lam in lams]
        assert np.array_equal(got, want)

    def test_unsettled_refused_after_first_group(self, monkeypatch):
        # the least lam runs alone, so a weight that never settles is refused
        # after its 2 passes, not after a pass over all 64 lam
        monkeypatch.setattr(oracle, "_HALVINGS", 1)
        shapes = []

        def w(s):
            shapes.append(s.shape)
            return np.cos(400.0 * s)

        lams = np.arange(64.0, 0.0, -1.0)
        with pytest.raises(NumericalError, match=r"did not settle after 1 halvings \(lam=1.0,"):
            weight_laplace_integral(WeightFunction.from_callable(w, 1.0), lams, 1.0)
        assert shapes == [(4, 10), (8, 10)]


class TestModeReference:
    """One scalar mode, through reference_solution on a 1-d DiagonalOperator."""

    @staticmethod
    def _mode(lam, w, T, c0, t):
        return reference_solution(DiagonalOperator([lam]), w, T, [c0], t)[0]

    def test_zero_weight(self):
        got = self._mode(2.0, WeightFunction.zero(), 1.0, 3.0, 0.7)
        assert got == pytest.approx(3.0 * math.exp(-1.4), rel=1e-15)

    def test_time_zero(self):
        lam, T = math.pi**2, math.pi / 2
        J = (lam + math.exp(-lam * T)) / (1 + lam * lam)
        got = self._mode(lam, WeightFunction.cos(), T, 1.0, 0.0)
        assert got == pytest.approx(1.0 / (1 + J), rel=1e-14)

    def test_consistent_coefficient_gives_pure_exponential(self):
        # the initial coefficient 1 + J makes the denominator cancel exactly
        lam, T = math.pi**2, math.pi / 2
        J = (lam + math.exp(-lam * T)) / (1 + lam * lam)
        got = self._mode(lam, WeightFunction.cos(), T, 1.0 + J, 1.0)
        assert got == pytest.approx(math.exp(-lam), rel=1e-14)

    def test_validation(self):
        w = WeightFunction.zero()
        for T in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon"):
                self._mode(1.0, w, T, 1.0, 0.5)
        for t in (-1.0, math.nan, [0.5, -1.0], [math.nan], 10**400, [0.5, 10**400],
                  [np.array([0.5])], np.array([[0.5], [1.0]])):
            with pytest.raises(ValueError):
                self._mode(1.0, w, 1.0, 1.0, t)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_low_precision_times(self, dtype):
        # no overflow warning from the float range test (pytest makes it an error)
        op, w = DiagonalOperator([1.0, 4.0]), WeightFunction.cos()
        want = reference_solution(op, w, 1.0, [1.0, 2.0], [0.5, 0.25])
        for t in (np.array([0.5, 0.25], dtype=dtype), [dtype(0.5), dtype(0.25)]):
            assert np.array_equal(reference_solution(op, w, 1.0, [1.0, 2.0], t), want)
        assert np.array_equal(reference_solution(op, w, 1.0, [1.0, 2.0], dtype(0.5)), want[0])


class TestReferenceSolution:
    def test_single_mode_embedding(self):
        op = DiagonalOperator([1.0, 5.0])
        w = WeightFunction.cos()
        out = reference_solution(op, w, 0.5, [0.0, 2.0], 0.3)
        assert out[0] == 0.0
        assert out[1] == reference_solution(DiagonalOperator([5.0]), w, 0.5, [2.0], 0.3)[0]

    @pytest.mark.parametrize("op", [DiagonalOperator([1.0, 4.0, 9.0]), Laplacian1D(40)],
                             ids=["diagonal", "laplacian"])
    def test_sequence_rows_equal_scalar_calls(self, op):
        u0 = np.cos(np.arange(op.dim) + 0.5)
        ts = [0.0, 0.01, 0.3, 1.0, math.inf]
        rows = reference_solution(op, WeightFunction.cos(), 1.0, u0, ts)
        assert rows.shape == (len(ts), op.dim)
        for t, row in zip(ts, rows):
            assert np.array_equal(row, reference_solution(op, WeightFunction.cos(), 1.0, u0, t))
        assert reference_solution(op, WeightFunction.cos(), 1.0, u0, []).shape == (0, op.dim)

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

    def test_closed_form_disagreement_refused(self, monkeypatch):
        # for w = cos the adaptive J is checked against its closed form
        adaptive = oracle.weight_laplace_integral
        monkeypatch.setattr(oracle, "weight_laplace_integral",
                            lambda w, lam, T: adaptive(w, lam, T) + 1e-10)
        with pytest.raises(NumericalError, match="closed form"):
            reference_solution(DiagonalOperator([1.0]), WeightFunction.cos(), 1.0, [1.0], 0.5)

    def test_closed_form_checked_for_every_mode(self, monkeypatch):
        # only the last mode's J is off
        adaptive = oracle.weight_laplace_integral
        monkeypatch.setattr(oracle, "weight_laplace_integral",
                            lambda w, lam, T: adaptive(w, lam, T) + 1e-10 * (lam == 9.0))
        op, w = DiagonalOperator([1.0, 4.0, 9.0]), WeightFunction.cos()
        with pytest.raises(NumericalError, match="closed form"):
            reference_solution(op, w, 1.0, [1.0, 1.0, 1.0], 0.5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            reference_solution(DiagonalOperator([1.0]), WeightFunction.zero(),
                               1.0, [1.0, 2.0], 0.5)

    def test_rejects_complex_u0(self):
        with pytest.raises(ValueError, match="real"):
            reference_solution(DiagonalOperator([2.0]), WeightFunction.zero(),
                               1.0, [1 + 2j], 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_u0(self, bad):
        # the solver's own contract, through NonlocalProblem
        with pytest.raises(ValueError, match="u0 must be finite"):
            reference_solution(DiagonalOperator([2.0, 3.0]), WeightFunction.zero(),
                               1.0, [1.0, bad], 0.5)
