import itertools
import math
import os
import resource
import subprocess
import sys
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
    NonlocalProblem,
    NumericalError,
    SectorialOperator,
    SineSpectralOperator,
    SolverConfig,
    SpectralBounds,
    UniformStep,
    WeightFunction,
    WindowStep,
    check_existence,
    make_contour,
    poly_x2_1mx_coefficients,
    reference_solution,
    solve_at,
    solve_many,
)
from nonlocalsolver import solver
from nonlocalsolver.contour import contour_point
from nonlocalsolver.quadrature import gauss_legendre, integral_bytes, nonlocal_integral
from nonlocalsolver.solver import (
    _BLOCK,
    _L2_BYTES,
    _NEGLIGIBLE,
    _TILE_BYTES,
    _modal_rows,
    _nodes,
    check_node_buffer,
)

pytestmark = pytest.mark.filterwarnings("ignore:sup")


def _scalar_problem(lam=1.0, w=None, T=1.0, u0=1.0):
    return NonlocalProblem(
        op=DiagonalOperator([lam]),
        T=T,
        w=w if w is not None else WeightFunction.zero(),
        u0=np.array([u0]),
    )


def _laplacian_problem(m):
    op = Laplacian1D(m)
    return NonlocalProblem(op=op, T=0.5, w=WeightFunction.cos(),
                           u0=np.sin(math.pi * op.grid))


class TestProblemValidation:
    def test_rejects_bad_T(self):
        for T in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                _scalar_problem(T=T)

    def test_rejects_bad_alpha(self):
        # alpha belongs to the uniform step rule alone, not to the problem
        with pytest.raises(ValueError, match="alpha"):
            UniformStep(alpha=1.0)
        with pytest.raises(TypeError):
            NonlocalProblem(op=DiagonalOperator([1.0]), T=1.0,
                            w=WeightFunction.zero(), u0=[1.0], alpha=0.5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            NonlocalProblem(op=DiagonalOperator([1.0, 2.0]), T=1.0,
                            w=WeightFunction.zero(), u0=[1.0])

    def test_rejects_nonfinite_u0(self):
        for u0 in (math.nan, math.inf):
            with pytest.raises(ValueError):
                _scalar_problem(u0=u0)

    def test_rejects_complex_u0(self):
        # the folded sum assumes real data; numpy's cast would only warn and
        # drop the imaginary part
        with pytest.raises(ValueError, match="real"):
            _scalar_problem(u0=1 + 2j)

    def test_config_rejects_negative(self):
        # each refusal names its field, so the CLI can report it under one key
        # a bool is an int to Python, but not a count
        for n, N, field in ((-1, 64, "n"), (16.5, 64, "n"), (True, 64, "n"), (16, -1, "N"),
                            (16, 64.5, "N"), (16, True, "N"), (16, False, "N")):
            with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got "):
                SolverConfig(n=n, N=N)
        for h in (0.0, math.inf):
            with pytest.raises(ValueError, match="step size must be positive and finite"):
                FixedStep(h=h)
        for t_min in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_min must be positive and finite"):
                WindowStep(t_min)
        for rho1 in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rho1"):
                SolverConfig(rho1=rho1)
        with pytest.raises(ValueError):
            SolverConfig(step="uniform")
        for n, N in ((16.5, 64), (16, 64.5), (16.5, 64.5), (16.0, 64)):
            with pytest.raises(ValueError):
                SolverConfig(n=n, N=N)

    def test_config_rejects_large_n(self):
        # refusals only: a plan at these orders is never built
        SolverConfig(n=128)
        for n in (129, 10**9):
            with pytest.raises(ValueError, match="n must be <= 128"):
                SolverConfig(n=n)


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

    def test_zero_weight_all_ok(self):
        problem = _scalar_problem()
        report = check_existence(problem, make_contour(problem.op.spectral))
        assert report.sharp_ok and report.rough_ok

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
        for op in (Laplacian1D(40), SineSpectralOperator(50),
                   _DenseSymmetric([[3.0, 1.0], [1.0, 5.0]])):
            cases.append((op, rng.uniform(-1, 1, op.dim), 0.02))
        for op, u0, t in cases:
            problem = NonlocalProblem(op=op, T=0.5, w=WeightFunction.cos(), u0=u0)
            folded = solve_at(problem, SolverConfig(n=8, N=24, use_symmetry=True), t)
            full = solve_at(problem, SolverConfig(n=8, N=24, use_symmetry=False), t)
            for sample in (folded, full):
                assert sample.value.dtype == np.float64
                assert sample.value.shape == (op.dim,)
            if isinstance(op, _DenseSymmetric):
                # a LAPACK solve at conj(z) need not be the conjugate of the
                # solve at z bit for bit
                denom = np.max(np.abs(full.value))
                assert np.max(np.abs(folded.value - full.value)) <= 1e-15 * denom
            else:
                # both sums share their nodes and coefficients, and a built-in
                # operator's solve at conj(z) is the conjugate of its solve at z
                assert np.array_equal(folded.value, full.value)

    def test_fold_halves_resolvent_calls(self, monkeypatch):
        # the full sum adds N conjugate solves, and nothing else: its I(z)
        # stage sees the same N+1 nodes as the folded one's
        N = 20
        nodes = []

        def recorded(rule, w, T, z):
            nodes.append(len(z))
            return nonlocal_integral(rule, w, T, z)

        monkeypatch.setattr(solver, "nonlocal_integral", recorded)
        for problem in (_scalar_problem(lam=2.0), _laplacian_problem(50)):
            for use_symmetry, calls in ((True, N + 1), (False, 2 * N + 1)):
                problem.op.resolvent_calls = 0
                nodes.clear()
                solve_at(problem, SolverConfig(n=4, N=N, use_symmetry=use_symmetry), 0.5)
                assert problem.op.resolvent_calls == calls
                assert nodes == [N + 1]

    def test_grid_metadata(self):
        problem = _scalar_problem()
        sample = solve_at(problem, SolverConfig(n=5, N=12, step=FixedStep(h=0.25)), 0.1)
        assert sample.grid == (0.25, 12, 5)

    def test_step_modes_all_run(self):
        problem = _scalar_problem(lam=1.0)
        for step in (UniformStep(), UniformStep(alpha=0.3), WindowStep(0.5),
                     CalibratedStep(), FixedStep(h=0.2)):
            sample = solve_at(problem, SolverConfig(n=4, N=32, step=step), 1.0)
            assert abs(sample.value[0] - math.exp(-1.0)) <= 1e-2

    def test_rejects_negative_time(self):
        problem = _scalar_problem()
        # 10**400 is an int beyond the float range
        for t in (-0.5, math.nan, 10**400):
            with pytest.raises(ValueError):
                solve_at(problem, SolverConfig(n=4, N=8), t)
            # the refusal names the offending time wherever it stands, and
            # comes before the solve makes any resolvent solve
            for ts in ([0.1, t], [0.0, 1.0, t, 0.5], [math.inf] * 9 + [t]):
                with pytest.raises(ValueError, match=f"got {t}$"):
                    solve_many(problem, SolverConfig(n=4, N=8), ts)
        with pytest.raises(ValueError, match="^time "):  # a string is not parsed as a time
            solve_many(problem, SolverConfig(n=4, N=8), [0.5, "0.5"])
        # an array is not a time, even one with one element
        with pytest.raises(ValueError, match=r"got \[0.5\]$"):
            solve_many(problem, SolverConfig(n=4, N=8), np.array([[0.5], [1.0]]))
        with pytest.raises(ValueError, match=r"got \[0.5\]$"):
            solve_at(problem, SolverConfig(n=4, N=8), np.array([0.5]))
        assert problem.op.resolvent_calls == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_low_precision_time(self, dtype):
        # the float range test compares at double precision, so it casts no
        # time down and warns of no overflow (pytest makes that an error)
        problem = _scalar_problem()
        config = SolverConfig(n=4, N=8)
        want = solve_at(problem, config, 0.5)
        for sample in (solve_at(problem, config, dtype(0.5)),
                       solve_many(problem, config, [dtype(0.5)])[0],
                       solve_many(problem, config, np.array([0.5], dtype=dtype))[0]):
            assert type(sample.t) is dtype
            assert np.array_equal(sample.value, want.value)

    def test_rough_condition_warning_points_at_the_caller(self):
        # sup|w| = 1 > 1/T: the warning names this file from either entry point
        problem = _scalar_problem(lam=2.0, w=WeightFunction.cos(), T=1.5)
        for call in (lambda: solve_at(problem, SolverConfig(n=4, N=8), 0.5),
                     lambda: solve_many(problem, SolverConfig(n=4, N=8), [0.5])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [str(w.message)[:19] for w in caught] == ["sup|w| exceeds 1/T:"]
            assert caught[0].filename == __file__

    def test_refuses_config_the_operator_rules_out(self):
        # rho1 must lie below rho0
        problem = _scalar_problem(lam=5.0)
        for config in (SolverConfig(rho1=5.0), SolverConfig(rho1=50.0)):
            with pytest.raises(ConfigError):
                solve_at(problem, config, 0.5)

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

    def test_outer_node_refusal_names_the_vertex(self):
        # at the default N the node overflows because the vertex a_I ~ 7.1e305
        # is huge, not because N or h is
        problem = NonlocalProblem(op=DiagonalOperator([1e306]), T=1.0,
                                  w=WeightFunction.cos(), u0=[1.0])
        with pytest.raises(ConfigError, match=r"Contour\(a_I=7\.07\d*e\+305, .* N = 64, h = "):
            solve_at(problem, SolverConfig(), 0.5)


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

    def test_block_position_does_not_change_a_time(self):
        # 17 times fill two product blocks and a padded third, so each time
        # is summed at another row position, and beside other times, than in
        # its own solve_at call; t = inf, among finite times, must give its
        # zeros without a warning. The first three fit in one column tile of
        # the node buffer; the rest span several, with a narrower last tile,
        # and at N = 512 the tiles are 64 columns wide. At 4096 modes the
        # buffer exceeds L2, so its 9 full tiles and 64-column last tile are
        # copied to contiguous memory before the stacked product reads them
        ts = [0.0, 0.3, 1e-3, math.inf, 0.05, 0.7, 0.01, 2.0, 0.125, 0.0,
              1.5, 0.02, 0.4, math.inf, 0.9, 3e-3, 1.0]
        assert 2 * (64 + 1) * 4096 * 8 > _L2_BYTES
        for op, N in ((DiagonalOperator([2.0, 9.0, 30.0]), 32), (Laplacian1D(40), 32),
                      (SineSpectralOperator(300), 32), (SineSpectralOperator(2000), 64),
                      (Laplacian1D(2000), 64), (Laplacian1D(2001), 64),
                      (SineSpectralOperator(300), 512), (SineSpectralOperator(4096), 64)):
            u0 = np.cos(np.arange(op.dim) + 0.5)
            problem = NonlocalProblem(op=op, T=0.5, w=WeightFunction.cos(), u0=u0)
            for use_symmetry in (True, False):
                config = SolverConfig(n=8, N=N, use_symmetry=use_symmetry)
                many = solve_many(problem, config, ts)
                assert [s.t for s in many] == ts
                for t, sample in zip(ts, many):
                    assert np.array_equal(sample.value, solve_at(problem, config, t).value)

    def test_infinite_time_is_zero(self):
        # a large or huge finite t gives the same exact zeros as t = inf: its
        # factors, overflowed or not, all fall under _NEGLIGIBLE, without a warning
        for op in (Laplacian1D(10), DiagonalOperator([2.0, 9.0]), SineSpectralOperator(20)):
            problem = NonlocalProblem(op=op, T=0.5, w=WeightFunction.cos(),
                                      u0=np.ones(op.dim))
            for use_symmetry in (True, False):
                config = SolverConfig(n=8, N=16, use_symmetry=use_symmetry)
                for t in (1e3, 1e6, math.inf, 1e300, 1.7e308):
                    value = solve_at(problem, config, t).value
                    assert np.array_equal(value, np.zeros(op.dim))

    def test_negligible_weights_leave_sums_unchanged(self):
        # example-2 data: at t > 0 the weights of the outer nodes fall below
        # _NEGLIGIBLE, and zeroing them must give the sums of the unflushed
        # weights bit for bit. The reference builds the weights one time at a
        # time and runs the same 8-row products on strided column tiles of the
        # buffer, scaling at the end; samples runs all blocks of a tile in one
        # stacked product, and at 4096 modes copies each tile first
        ts = list(np.geomspace(0.01, math.pi / 2, 50))
        for modes, use_symmetry in itertools.product((2000, 4096), (True, False)):
            op = SineSpectralOperator(modes)
            problem = NonlocalProblem(op=op, T=math.pi / 2, w=WeightFunction.cos_square(),
                                      u0=poly_x2_1mx_coefficients(modes))
            config = SolverConfig(n=16, N=64, step=CalibratedStep(), use_symmetry=use_symmetry)
            _, h, z, coef = _nodes(problem, config)
            r1, exponent = _modal_rows(op, problem.u0, z, not use_symmetry)
            f = np.zeros((-(-len(ts) // _BLOCK) * _BLOCK, len(z)), dtype=complex)
            for fj, t in zip(f, ts):
                fj[:] = np.exp(-z * t) * coef
            flushed = (f[:len(ts)] != 0) & (abs(f[:len(ts)]) < _NEGLIGIBLE)
            assert flushed.sum() >= 20
            e = f.conj().view(float)
            rows, dim = r1.shape
            width = max(64, _TILE_BYTES // (rows * r1.itemsize) // 64 * 64)
            ref = np.empty((len(ts), dim))
            for c in range(0, dim, width):
                tile = r1[:, c:c + width]
                for b in range(0, len(ts), _BLOCK):
                    ref[b:b + _BLOCK, c:c + width] = (e[b:b + _BLOCK] @ tile)[:len(ts) - b]
            ref *= h
            np.ldexp(ref, exponent, out=ref)
            assert np.array_equal(np.array([s.value for s in solve_many(problem, config, ts)]),
                                  ref)

    def test_no_times_gives_empty_list(self):
        for op in (DiagonalOperator([2.0]), Laplacian1D(50), SineSpectralOperator(300)):
            problem = NonlocalProblem(op=op, T=0.5, w=WeightFunction.cos(), u0=np.ones(op.dim))
            for use_symmetry in (True, False):
                assert solve_many(problem, SolverConfig(n=4, N=16, use_symmetry=use_symmetry),
                                  []) == []
            # no time needs a node, so no resolvent is solved
            assert op.resolvent_calls == 0
        # the scalar stage still runs, so an empty list is refused where a
        # nonempty one would be
        with pytest.raises(ExistenceError):
            solve_many(_scalar_problem(w=WeightFunction.constant(5.0)), SolverConfig(), [])

    def test_any_iterable_of_times(self):
        # a generator, a tuple or an array of times gives the samples of the
        # list of them, each with its t as given
        problem = _laplacian_problem(50)
        config = SolverConfig(n=4, N=16)
        ts = [0.5, 0, 2, math.inf]
        want = solve_many(problem, config, ts)
        for given, expect in (((t for t in ts), ts), (tuple(ts), ts),
                              (np.array(ts), list(np.array(ts)))):
            samples = solve_many(problem, config, given)
            assert [s.t for s in samples] == expect
            assert [type(s.t) for s in samples] == [type(t) for t in expect]
            for sample, ref in zip(samples, want):
                assert np.array_equal(sample.value, ref.value)

    def test_repeated_times_identical(self):
        problem = _scalar_problem(lam=3.0)
        samples = solve_many(problem, SolverConfig(n=4, N=16), [1.0, 1.0])
        assert samples[0].value[0] == samples[1].value[0]

    def test_resolvent_reuse(self):
        N = 16
        for problem in (_scalar_problem(lam=2.0, w=WeightFunction.cos(), T=0.5),
                        _laplacian_problem(50)):
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

    @pytest.mark.parametrize("m", [200, 1000])
    def test_fd_laplacian_modes(self, m):
        # u0 is a sum of discrete eigenvectors, so the FD problem decouples
        # into the scalar modes e^{-lambda_k t} a_k / (1 + J(lambda_k))
        from nonlocalsolver import reference_solution
        from nonlocalsolver.oracle import weight_laplace_integral

        op = Laplacian1D(m)
        ks = np.arange(1, 9)
        j = np.arange(1, m + 1)
        basis = np.sin(math.pi * (np.outer(ks, j) % (2 * (m + 1))) / (m + 1))
        amps = np.cos(ks + 0.5)
        u0 = amps @ basis
        w, T = WeightFunction.cos(), 1.0
        lam = op.eigenvalue(ks)
        den = 1.0 + weight_laplace_integral(w, lam, T)
        problem = NonlocalProblem(op=op, T=T, w=w, u0=u0)
        ts = [0.01, 0.1, 1.0]
        refs = [(amps * np.exp(-lam * t) / den) @ basis for t in ts]
        # the oracle goes through the operator's own sine basis, once for all times
        for oracle, ref in zip(reference_solution(op, w, T, u0, ts), refs):
            assert np.max(np.abs(oracle - ref)) <= 1e-13 * np.max(np.abs(u0))
        for use_symmetry in (True, False):
            config = SolverConfig(n=16, N=64, step=CalibratedStep(), use_symmetry=use_symmetry)
            for ref, sample in zip(refs, solve_many(problem, config, ts)):
                assert np.max(np.abs(sample.value - ref)) <= 1e-13 * np.max(np.abs(u0))

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


def _example2_problem():
    op = SineSpectralOperator(200)
    return NonlocalProblem(op=op, T=math.pi / 2, w=WeightFunction.cos_square(),
                           u0=poly_x2_1mx_coefficients(200))


def _worst_error(problem, step, N, ts, refs):
    """The largest error over the times, relative to max|u0|."""
    samples = solve_many(problem, SolverConfig(n=16, N=N, step=step), ts)
    return max(np.max(np.abs(s.value - r)) for s, r in zip(samples, refs)) / np.max(
        np.abs(problem.u0))


class TestWindowStep:
    def test_laplacian_window_reaches_rounding(self):
        op = Laplacian1D(1000)
        u0 = sum(np.sin(k * math.pi * op.grid) / k for k in range(1, 9))
        problem = NonlocalProblem(op=op, T=1.0, w=WeightFunction.cos(), u0=u0)
        ts = np.geomspace(0.01, 2.0, 12)
        refs = reference_solution(op, problem.w, problem.T, u0, ts)
        assert _worst_error(problem, WindowStep(0.01), 64, ts, refs) <= 1e-14

    @pytest.mark.parametrize("window", [(0.1, 1.0), (1.0, 10.0), (5.0, 50.0)],
                             ids=["0.1-1", "1-10", "5-50"])
    def test_example2_window_as_good_as_log_step(self, window):
        # the window rule replaced h = ln(N) / N, and is at least as accurate
        # on each window, down to 1e-15 of max|u0|
        problem = _example2_problem()
        ts = np.geomspace(*window, 8)
        refs = reference_solution(problem.op, problem.w, problem.T, problem.u0, ts)
        for N in (16, 32, 64):
            window_err = _worst_error(problem, WindowStep(window[0]), N, ts, refs)
            log_err = _worst_error(problem, FixedStep(math.log(N) / N), N, ts, refs)
            assert window_err <= max(log_err, 1e-15), (N, window_err, log_err)

    def test_extreme_t_min_solves_without_warning(self):
        # every RuntimeWarning is an error under the test configuration
        problem = _example2_problem()
        for t_min in (1e-300, 1e300):
            samples = solve_many(problem, SolverConfig(N=64, step=WindowStep(t_min)),
                                 [t_min, 1.0, math.inf])
            assert all(np.all(np.isfinite(s.value)) for s in samples)
            assert not np.any(samples[2].value)


def test_no_warning_for_benign_problem():
    problem = _scalar_problem(lam=2.0, w=WeightFunction.constant(0.5), T=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_at(problem, SolverConfig(n=4, N=16), 0.5)


class _DenseSymmetric(SectorialOperator):
    """The README's recipe for a custom operator: a dense symmetric matrix,
    solved in the identity basis. It sets dim and spectral and calls no base
    __init__; the solve counter is the base class's default."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.dim = len(self.a)
        self.spectral = SpectralBounds(float(np.linalg.eigvalsh(self.a)[0]))

    def _resolvent(self, z, c):
        return np.linalg.solve(z * np.eye(self.dim) - self.a, c)


def test_custom_operator_matches_its_eigenbasis():
    op = _DenseSymmetric([[3.0, 1.0], [1.0, 5.0]])
    lam, V = np.linalg.eigh(op.a)
    u0, w, T, ts = np.array([1.0, -0.5]), WeightFunction.cos(), 0.5, [0.05, 0.3, 1.0]
    ref = reference_solution(DiagonalOperator(lam), w, T, V.T @ u0, ts) @ V.T
    problem = NonlocalProblem(op=op, T=T, w=w, u0=u0)
    N = 64
    assert op.resolvent_calls == 0  # the class default, with no base __init__
    for use_symmetry, calls in ((True, N + 1), (False, 2 * N + 1)):
        before = op.resolvent_calls
        config = SolverConfig(n=16, N=N, step=CalibratedStep(), use_symmetry=use_symmetry)
        for sample, r in zip(solve_many(problem, config, ts), ref):
            assert np.max(np.abs(sample.value - r)) <= 1e-13 * np.max(np.abs(u0))
        assert op.resolvent_calls - before == calls
    # each instance counts its own solves; the class default stays 0
    assert _DenseSymmetric([[1.0]]).resolvent_calls == SectorialOperator.resolvent_calls == 0


@pytest.mark.parametrize("N", [0, 1, 24])
@pytest.mark.parametrize("make_op", [
    lambda: DiagonalOperator([2.0, 9.0, 30.0]),
    lambda: Laplacian1D(40),
    lambda: _DenseSymmetric([[3.0, 1.0], [1.0, 5.0]]),
], ids=["diagonal", "laplacian", "dense"])
def test_full_sum_fold_matches_out_of_place_fold(make_op, N):
    # the full sum has the folded sum's N+1 nodes and coefficients, and solves
    # conj(z_k) for k >= 1 after them; folding each of those into row k as it
    # is solved must give the average of the two rows taken after all 2N+1
    # solves, bit for bit
    op = make_op()
    problem = NonlocalProblem(op=op, T=0.5, w=WeightFunction.cos(),
                              u0=np.linspace(-1.0, 0.7, op.dim))
    config = SolverConfig(n=8, N=N, step=CalibratedStep(), use_symmetry=False)
    _, _, folded_z, folded_coef = _nodes(problem, SolverConfig(n=8, N=N,
                                                               step=CalibratedStep()))
    solved, apply = [], op.modified_resolvent_apply

    def record(z, c):
        r = apply(z, c)
        solved.append((z, r.copy()))
        return r

    op.modified_resolvent_apply = record
    _, h, z_nodes, coef = _nodes(problem, config)
    rows, _ = _modal_rows(op, problem.u0, z_nodes, fold=True)
    assert len(solved) == 2 * N + 1
    z = np.array([zk for zk, _ in solved])
    assert np.array_equal(z[N + 1:], z[:N].conj())
    r1 = np.array([[r.real, r.imag] for _, r in solved])
    contour = make_contour(op.spectral)
    nodes = contour_point(contour, np.arange(N, -1, -1) * h)
    want = nodes.dz / (2j * math.pi * (1.0 + nonlocal_integral(gauss_legendre(8), problem.w,
                                                               problem.T, nodes.z)))
    want[:-1] *= 2.0
    # row k >= 1 pairs with the solve at conj(z_k), and the k = 0 row with itself
    mirror = np.concatenate((r1[N + 1:], r1[N:N + 1]))
    r1 = (r1[:N + 1] + mirror * np.array([[1.0], [-1.0]])) / 2
    # compared as bits, so that the sign of a zero counts too
    for got, bits in ((rows, r1.reshape(2 * (N + 1), -1)), (z_nodes, nodes.z),
                      (z_nodes, folded_z), (coef, want), (coef, folded_coef)):
        np.testing.assert_array_equal(got.view(np.uint64), bits.view(np.uint64))


class _Unsolvable(DiagonalOperator):
    def _resolvent(self, z, c):
        raise AssertionError("the scalar stage made a solve")


@pytest.mark.parametrize("make_op", [
    lambda: DiagonalOperator([2.0, 9.0, 30.0]),
    lambda: Laplacian1D(40),
    lambda: SineSpectralOperator(30),
], ids=["diagonal", "laplacian", "spectral"])
def test_nodes_are_the_plans_scalar_stage(make_op):
    # _nodes gives a solve's report and h, and the same z and coef bit for bit
    # from an operator with the same spectral bounds, reading no u0 and
    # solving nothing, even where a solve would raise
    op = make_op()
    for w, config in ((WeightFunction.cos(), SolverConfig(n=8, N=24)),
                      (WeightFunction.constant(0.3), SolverConfig(step=WindowStep(0.1))),
                      (WeightFunction.zero(), SolverConfig(N=0, use_symmetry=False))):
        problem = NonlocalProblem(op=op, T=0.5, w=w, u0=np.linspace(-1.0, 0.7, op.dim))
        sample = solve_at(problem, config, 0.5)
        calls = op.resolvent_calls
        report, h, z, coef = _nodes(problem, config)
        assert report == sample.report and (h, config.N, config.n) == sample.grid
        unsolvable = _Unsolvable(op.spectral.rho0 + np.arange(op.dim))
        bare = NonlocalProblem(op=unsolvable, T=0.5, w=w, u0=np.ones(op.dim))
        bare.u0 = None  # a read of u0 would fail
        got = _nodes(bare, config)
        assert got[:2] == (report, h)
        for a, b in ((got[2], z), (got[3], coef)):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        assert op.resolvent_calls == calls and unsolvable.resolvent_calls == 0


def test_full_sum_allocates_no_full_buffer():
    # the full sum folds into an (N+1)-row buffer as it solves; holding all
    # 2N+1 rows, and the temporaries of folding them, would read about 3x
    problem = _laplacian_problem(2000)
    N = 64
    config = SolverConfig(N=N, use_symmetry=False)
    z = _nodes(problem, config)[2]
    tracemalloc.start()
    try:
        r1, _ = _modal_rows(problem.op, problem.u0, z, fold=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = (N + 1) * 2 * problem.op.dim * 8
    assert r1.nbytes == buffer
    assert peak <= 1.25 * buffer


def _run_capped(argv):
    """Run python argv with 2 GiB of address space: a plan that escaped the
    node-buffer budget would end in MemoryError, not exhaust the machine. A
    numpy RuntimeWarning is an error there, as it is in the tests themselves."""
    cap = 2**31
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *argv], env=env, capture_output=True,
        text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


class TestNodeBufferBudget:
    def test_solve_many_refuses_before_allocating(self):
        code = (
            "import numpy as np\n"
            "from nonlocalsolver import *\n"
            "op = DiagonalOperator(np.arange(1.0, 2e6 + 1))\n"
            "p = NonlocalProblem(op=op, T=1.0, w=WeightFunction.zero(), u0=np.ones(op.dim))\n"
            "try:\n"
            "    solve_many(p, SolverConfig(N=64), [0.5])\n"
            "except ConfigError as e:\n"
            "    print('refused:', e)\n"
        )
        r = _run_capped(["-c", code])
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("refused: the node buffer of 65 nodes x dim 2000000")

    def test_solve_many_refuses_large_gauss_stage(self):
        # a 32 MB node buffer, but the I(z) stage would build (K, P, n+1) arrays
        # of about 0.8 GB each for its 2000001 nodes
        code = (
            "from nonlocalsolver import *\n"
            "p = NonlocalProblem(op=DiagonalOperator([5.0]), T=1.0,\n"
            "                    w=WeightFunction.zero(), u0=[1.0])\n"
            "try:\n"
            "    solve_many(p, SolverConfig(n=16, N=2 * 10**6, step=FixedStep(1e-5)), [0.5])\n"
            "except ConfigError as e:\n"
            "    print('refused:', e)\n"
        )
        r = _run_capped(["-c", code])
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith(
            "refused: the node buffer of 2000001 nodes x dim 1 with its I(z) stage needs")

    def test_budget_arithmetic_at_the_limit(self):
        # the N+1 nodes of either setting, each a buffer row of 2*dim reals
        # and an I(z) stage, may take 2^30 bytes and no more; at n = 16 and
        # phi = 0 the stage of one node is 3264 bytes
        assert integral_bytes(16, 1 / math.cos(math.pi / 4)) == 3264
        for N, dim in ((2**10 - 1, 2**16 - 204), (3, 2**24 - 204)):
            assert (N + 1) * (2 * dim * 8 + 3264) == 2**30
            check_node_buffer(16, N, dim)
            message = rf"of {N + 1} nodes x dim {dim + 1} with its I\(z\) stage needs 1 GiB"
            with pytest.raises(ConfigError, match=message):
                check_node_buffer(16, N, dim + 1)
            # a sector of half-angle phi > 0 widens the hyperbola, and its stage
            with pytest.raises(ConfigError, match=f"of {N + 1} nodes x dim {dim} "):
                check_node_buffer(16, N, dim, phi=0.5)

    def test_cli_refuses_huge_m(self, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("operator = laplacian1d:1000000000\nT = 1\nweight = cos\n"
                       "u0 = sine:1\nt = 0.5\n")
        r = _run_capped(["-m", "nonlocalsolver.cli", "solve", "--config", str(cfg)])
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error: key operator: the node buffer")


class TestExtremeData:
    """u0 near the float max or subnormal is solved as 2^-k u0, with k from
    frexp of its largest entry, and scaled back by 2^k after from_modal."""

    @staticmethod
    def _solve(op, u0, t=0.5):
        problem = NonlocalProblem(op=op, T=1.0, w=WeightFunction.cos(), u0=u0)
        return solve_at(problem, SolverConfig(), t).value

    # at t <= 0.2 the unnormalized sine transform in Laplacian1D.from_modal
    # would overflow if 2^k went on before it
    @pytest.mark.parametrize("op, u0, t", [
        (DiagonalOperator([2.0, 9.0]), [1.7e308, -1.7e308], 0.5),
        (Laplacian1D(50), [1.7e308] * 50, 0.5),
        (DiagonalOperator([2.0, 9.0]), [1e-320, 5e-324], 0.5),
        (Laplacian1D(50), [1.7e308] * 50, 0.0),
        (Laplacian1D(50), [1.7e308] * 50, 0.1),
        (Laplacian1D(50), [1.7e308] * 50, 0.15),
        (Laplacian1D(50), [1.7e308] * 50, 0.2),
    ], ids=["diagonal-huge", "laplacian-huge", "diagonal-subnormal", "laplacian-huge-t0",
            "laplacian-huge-t0.1", "laplacian-huge-t0.15", "laplacian-huge-t0.2"])
    def test_value_is_the_scaled_solve(self, op, u0, t):
        u0 = np.asarray(u0)
        k = math.frexp(np.max(np.abs(u0)))[1]
        value = self._solve(op, u0, t)
        assert np.isfinite(value).all() and value[0] != 0
        scaled = np.ldexp(self._solve(op, np.ldexp(u0, -k), t), k)
        assert np.array_equal(value.view(np.uint64), scaled.view(np.uint64))

    def test_cli_solves_huge_u0(self, tmp_path):
        u0 = np.array([1.7e308, -1.7e308])
        (tmp_path / "u0.txt").write_text("1.7e308\n-1.7e308\n")
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"operator = diagonal:2,9\nT = 1\nweight = cos\n"
                       f"u0 = {tmp_path / 'u0.txt'}\nt = 0.5\n")
        r = _run_capped(["-m", "nonlocalsolver.cli", "solve", "--config", str(cfg)])
        assert r.returncode == 0, r.stderr
        value = np.ldexp(self._solve(DiagonalOperator([2.0, 9.0]), np.ldexp(u0, -1024)), 1024)
        assert r.stdout == f"n,N,t,x,value,abs_error\n16,64,0.5,,{value[0]:.17g},\n"
