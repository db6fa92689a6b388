import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nonlocalsolver import (
    CalibratedStep,
    ConfigError,
    DiagonalOperator,
    ExistenceError,
    FixedStep,
    Laplacian1D,
    LargeTStep,
    NonlocalProblem,
    NumericalError,
    SineSpectralOperator,
    SolverConfig,
    UniformStep,
    WeightFunction,
    check_existence,
    make_contour,
    solve_at,
    solve_many,
)

pytestmark = pytest.mark.filterwarnings("ignore:sup")


def _scalar_problem(lam=1.0, w=None, T=1.0, u0=1.0):
    return NonlocalProblem(
        op=DiagonalOperator([lam]),
        T=T,
        w=w if w is not None else WeightFunction.zero(),
        u0=np.array([u0]),
    )


class TestProblemValidation:
    def test_rejects_bad_T(self):
        for T in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                _scalar_problem(T=T)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            NonlocalProblem(op=DiagonalOperator([1.0]), T=1.0,
                            w=WeightFunction.zero(), u0=[1.0], alpha=1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            NonlocalProblem(op=DiagonalOperator([1.0, 2.0]), T=1.0,
                            w=WeightFunction.zero(), u0=[1.0])

    def test_rejects_nonfinite_u0(self):
        for u0 in (math.nan, math.inf):
            with pytest.raises(ValueError):
                _scalar_problem(u0=u0)

    def test_config_rejects_negative(self):
        with pytest.raises(ValueError):
            SolverConfig(n=-1)
        with pytest.raises(ValueError):
            FixedStep(h=0.0)
        with pytest.raises(ValueError):
            SolverConfig(step="uniform")
        for n, N in ((16.5, 64), (16, 64.5), (16.5, 64.5), (16.0, 64)):
            with pytest.raises(ValueError):
                SolverConfig(n=n, N=N)


class TestCheckExistence:
    def test_benchmark1_data(self):
        # w = cos(s), T = pi/2, operator vertex pi^2: the sharp condition
        # holds (1 < pi^2/sqrt2), the rough one fails (1 > 2/pi)
        problem = NonlocalProblem(op=SineSpectralOperator(1), T=math.pi / 2,
                                  w=WeightFunction.cos(), u0=[1.0])
        contour = make_contour(problem.op.spectral)
        report = check_existence(problem, contour)
        assert report.w_sup == 1.0
        assert not report.w_sup_estimated
        assert report.a_I == pytest.approx(math.pi**2 / math.sqrt(2), rel=1e-15)
        assert report.sharp_ok
        assert not report.rough_ok
        assert report.self_adjoint_ok

    def test_zero_weight_all_ok(self):
        problem = _scalar_problem()
        report = check_existence(problem, make_contour(problem.op.spectral))
        assert report.sharp_ok and report.rough_ok and report.self_adjoint_ok

    def test_large_constant_fails_sharp(self):
        problem = _scalar_problem(lam=1.0, w=WeightFunction.constant(5.0))
        report = check_existence(problem, make_contour(problem.op.spectral))
        assert not report.sharp_ok

    def test_solve_refuses_when_sharp_fails(self):
        problem = _scalar_problem(lam=1.0, w=WeightFunction.constant(5.0))
        with pytest.raises(ExistenceError):
            solve_at(problem, SolverConfig(n=4, N=8), 0.5)

    def test_solve_refuses_nan_weight(self):
        # the sup-norm hint passes the existence check; the NaN denominator
        # must still be refused rather than returned as NaN output
        w = WeightFunction.from_callable(lambda s: np.full_like(s, np.nan),
                                         sup_norm_hint=0.1)
        with pytest.raises(NumericalError):
            solve_at(_scalar_problem(w=w), SolverConfig(n=4, N=8), 0.5)

    def test_solve_refuses_complex_weight(self):
        # the folded sum assumes real data; a complex w used to return a
        # value that depended on use_symmetry
        w = WeightFunction.from_callable(lambda s: 0.3 * np.exp(1j * s))
        problem = NonlocalProblem(op=DiagonalOperator([2.0, 5.0]), T=1.0, w=w,
                                  u0=[1.0, -0.3])
        for use_symmetry in (True, False):
            with pytest.raises(ValueError, match="real"):
                solve_at(problem, SolverConfig(n=8, N=32, use_symmetry=use_symmetry), 0.5)

    def test_rough_violation_warns(self):
        problem = _scalar_problem(lam=20.0, w=WeightFunction.constant(1.0), T=2.0)
        with pytest.warns(UserWarning, match="sup"):
            solve_at(problem, SolverConfig(n=4, N=8), 0.5)


class TestSolveAt:
    def test_pure_exponential(self):
        problem = _scalar_problem(lam=1.0)
        sample = solve_at(problem, SolverConfig(n=4, N=64, step=CalibratedStep()), 1.0)
        assert abs(sample.value[0] - math.exp(-1.0)) <= 1e-12

    def test_benchmark1_error_windows(self):
        c0 = (1 + math.pi**4 + math.pi**2 + math.exp(-math.pi**3 / 2)) / (1 + math.pi**4)
        op = SineSpectralOperator(1)
        problem = NonlocalProblem(op=op, T=math.pi / 2, w=WeightFunction.cos(),
                                  u0=np.array([c0]))
        exact = math.exp(-math.pi**2)
        targets = {(4, 8): (4.530997940e-6, 5), (8, 16): (7.3086845013760e-10, 5),
                   (16, 32): (2.609087146562e-13, 10)}
        for (n, N), (target, factor) in targets.items():
            sample = solve_at(problem, SolverConfig(n=n, N=N, step=CalibratedStep()), 1.0)
            err = abs(op.evaluate(sample.value, 0.5) - exact)
            assert target / factor <= err <= target * factor

    def test_linearity_in_u0(self):
        op = DiagonalOperator([4.0, 9.0, 16.0])
        w = WeightFunction.cos()
        config = SolverConfig(n=8, N=32, step=CalibratedStep())
        x = np.array([1.0, -0.5, 2.0])
        y = np.array([0.3, 0.3, -1.0])
        a, b = 2.5, -1.25

        def run(u0):
            problem = NonlocalProblem(op=op, T=0.5, w=w, u0=u0)
            return solve_at(problem, config, 0.4).value

        combined = run(a * x + b * y)
        split = a * run(x) + b * run(y)
        assert np.max(np.abs(combined - split)) <= 1e-13 * np.max(np.abs(combined))
        assert np.all(run(np.zeros(3)) == 0.0)

    def test_symmetry_fold_matches_full(self):
        rng = np.random.default_rng(2)
        cases = []
        for _ in range(5):
            dims = int(rng.integers(1, 4))
            lams = np.sort(rng.uniform(1.0, 20.0, dims))
            u0 = rng.uniform(-1, 1, dims)
            cases.append((DiagonalOperator(lams), u0, float(rng.uniform(0.1, 1.0) / lams[-1])))
        for op in (Laplacian1D(40), SineSpectralOperator(50)):
            cases.append((op, rng.uniform(-1, 1, op.dim), 0.02))
        for op, u0, t in cases:
            problem = NonlocalProblem(op=op, T=0.5, w=WeightFunction.cos(), u0=u0)
            folded = solve_at(problem, SolverConfig(n=8, N=24, use_symmetry=True), t)
            full = solve_at(problem, SolverConfig(n=8, N=24, use_symmetry=False), t)
            for sample in (folded, full):
                assert sample.value.dtype == np.float64
                assert sample.value.shape == (op.dim,)
            denom = np.max(np.abs(full.value))
            assert np.max(np.abs(folded.value - full.value)) <= 1e-15 * denom

    def test_fold_halves_resolvent_calls(self):
        problem = _scalar_problem(lam=2.0)
        N = 20
        problem.op.resolvent_calls = 0
        solve_at(problem, SolverConfig(n=4, N=N, use_symmetry=True), 0.5)
        assert problem.op.resolvent_calls == N + 1
        problem.op.resolvent_calls = 0
        solve_at(problem, SolverConfig(n=4, N=N, use_symmetry=False), 0.5)
        assert problem.op.resolvent_calls == 2 * N + 1

    def test_grid_metadata(self):
        problem = _scalar_problem()
        sample = solve_at(problem, SolverConfig(n=5, N=12, step=FixedStep(h=0.25)), 0.1)
        assert sample.grid == (0.25, 12, 5)

    def test_step_modes_all_run(self):
        problem = _scalar_problem(lam=1.0)
        for step in (UniformStep(), UniformStep(alpha=0.3), LargeTStep(c1=0.8),
                     CalibratedStep(), FixedStep(h=0.2)):
            sample = solve_at(problem, SolverConfig(n=4, N=32, step=step), 1.0)
            assert abs(sample.value[0] - math.exp(-1.0)) <= 1e-2

    def test_rejects_negative_time(self):
        problem = _scalar_problem()
        for t in (-0.5, math.nan):
            with pytest.raises(ValueError):
                solve_at(problem, SolverConfig(n=4, N=8), t)

    def test_refuses_nonfinite_outer_node(self):
        # with the default step N*h is about 2e3 at N = 200000 and 3e6 at
        # N = 10**12, where cosh overflows; the refusal must come before any
        # per-node array, so the huge N allocates nothing
        problem = _scalar_problem(lam=5.0)
        for N in (200000, 10**12):
            tracemalloc.start()
            try:
                with pytest.raises(ConfigError, match=f"N = {N}, h = "):
                    solve_at(problem, SolverConfig(N=N), 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20


class TestSolveMany:
    def test_singleton_matches_solve_at(self):
        ts = [0.0, 0.25, 0.01, 1.0]
        for op in (DiagonalOperator([3.0, 7.5]), Laplacian1D(30), SineSpectralOperator(20)):
            u0 = np.linspace(-1.0, 1.0, op.dim)
            problem = NonlocalProblem(op=op, T=0.5, w=WeightFunction.cos(), u0=u0)
            for use_symmetry in (True, False):
                config = SolverConfig(n=8, N=32, use_symmetry=use_symmetry)
                many = solve_many(problem, config, ts)
                assert [s.t for s in many] == ts
                for t, sample in zip(ts, many):
                    assert np.array_equal(sample.value, solve_at(problem, config, t).value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_time_is_zero(self):
        problem = NonlocalProblem(op=Laplacian1D(10), T=0.5, w=WeightFunction.cos(),
                                  u0=np.ones(10))
        for use_symmetry in (True, False):
            sample = solve_at(problem, SolverConfig(n=8, N=16, use_symmetry=use_symmetry),
                              math.inf)
            assert np.array_equal(sample.value, np.zeros(10))

    def test_repeated_times_identical(self):
        problem = _scalar_problem(lam=3.0)
        samples = solve_many(problem, SolverConfig(n=4, N=16), [1.0, 1.0])
        assert samples[0].value[0] == samples[1].value[0]

    def test_resolvent_reuse(self):
        problem = _scalar_problem(lam=2.0, w=WeightFunction.cos(), T=0.5)
        N = 16
        problem.op.resolvent_calls = 0
        solve_many(problem, SolverConfig(n=4, N=N), [0.5, 1.0, 2.0])
        assert problem.op.resolvent_calls == N + 1


class TestOracleAgreement:
    def test_scalar_modes(self):
        from nonlocalsolver import reference_solution

        rng = np.random.default_rng(17)
        for _ in range(5):
            lam = float(rng.uniform(1.0, 30.0))
            op = DiagonalOperator([lam])
            w = WeightFunction.cos()
            u0 = np.array([float(rng.uniform(0.5, 2.0))])
            problem = NonlocalProblem(op=op, T=0.5, w=w, u0=u0)
            t = float(rng.uniform(0.5, 2.0) / lam)
            sample = solve_at(problem, SolverConfig(n=16, N=64, step=CalibratedStep()), t)
            ref = reference_solution(op, w, 0.5, u0, t)
            assert abs(sample.value[0] - ref[0]) <= 1e-10 * abs(ref[0])

    def test_sine_spectral_benchmark(self):
        from nonlocalsolver import reference_solution

        op = SineSpectralOperator(1)
        c0 = (1 + math.pi**4 + math.pi**2 + math.exp(-math.pi**3 / 2)) / (1 + math.pi**4)
        u0 = np.array([c0])
        w = WeightFunction.cos()
        problem = NonlocalProblem(op=op, T=math.pi / 2, w=w, u0=u0)
        sample = solve_at(problem, SolverConfig(n=16, N=64, step=CalibratedStep()), 1.0)
        ref = reference_solution(op, w, math.pi / 2, u0, 1.0)
        assert abs(sample.value[0] - ref[0]) <= 1e-10 * abs(ref[0])


def test_no_warning_for_benign_problem():
    problem = _scalar_problem(lam=2.0, w=WeightFunction.constant(0.5), T=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_at(problem, SolverConfig(n=4, N=16), 0.5)
