import csv
import io
import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nonlocalsolver import (
    ConfigError,
    DiagonalOperator,
    Laplacian1D,
    NonlocalProblem,
    SineSpectralOperator,
    SolverConfig,
    WeightFunction,
    cli,
    poly_x2_1mx_coefficients,
    reference_solution,
    solve_many,
)
from nonlocalsolver.cli import (
    emit_csv,
    main,
    parse_config,
    run_reproduction,
)
from nonlocalsolver import solver
from nonlocalsolver.quadrature import integral_bytes
from nonlocalsolver.solver import CalibratedStep, FixedStep, UniformStep, WindowStep

pytestmark = pytest.mark.filterwarnings("ignore:sup")

BASE = """\
operator = diagonal:1
T = 1.0
weight = cos
u0 = sine:1
t = 0.5
"""


def _problem(T=1.0, op=None):
    """A problem with u0 = [1.0], refused or not by NonlocalProblem itself."""
    return NonlocalProblem(op=op or DiagonalOperator([1.0]), T=T, w=WeightFunction.zero(),
                           u0=np.array([1.0]))


def _solve_config(capsys, cfg, text, *argv):
    """Write text to the config file cfg, unless it is None, and run solve on
    it with argv after --config; returns (exit code, stdout, stderr)."""
    if text is not None:
        cfg.write_text(text)
    code = main(["solve", "--config", str(cfg), *argv])
    return (code, *capsys.readouterr())


class TestParseConfig:
    def test_minimal(self):
        rc = parse_config(BASE)
        assert rc.operator == "diagonal:1"
        assert rc.T == 1.0
        assert rc.weight.kind == "cos"
        assert rc.ts == [0.5]
        assert rc.n == 16 and rc.N == 64  # defaults
        assert rc.step == UniformStep(0.5) and rc.rho1 == 0.0 and rc.x == 0.5

    def test_comments_and_blank_lines(self):
        rc = parse_config("# heading\n\n" + BASE + "n = 8  # trailing comment\n")
        assert rc.n == 8

    def test_pi_half_and_cos_square(self):
        rc = parse_config(BASE.replace("T = 1.0", "T = 1.5707963267948966")
                          .replace("weight = cos", "weight = cos_square"))
        assert rc.T == math.pi / 2
        assert rc.weight.kind == "cos_square"

    def test_weight_forms(self):
        assert parse_config(BASE.replace("weight = cos", "weight = const:0.25")).weight.kind == "constant"
        rc = parse_config(BASE.replace("weight = cos", "weight = poly:0,1,2"))
        assert rc.weight.kind == "poly"
        assert rc.weight(np.array([2.0]))[0] == pytest.approx(0 + 2 + 8)

    def test_step_modes(self):
        assert isinstance(parse_config(BASE + "step_mode = calibrated\n").step, CalibratedStep)
        assert isinstance(parse_config(BASE + "step_mode = fixed:0.3\n").step, FixedStep)
        assert parse_config(BASE + "step_mode = uniform:0.3\n").step == UniformStep(0.3)
        # the window starts at the earliest time in (0, inf) of key t
        rc = parse_config(BASE.replace("t = 0.5", "t = 0, 2, 0.25, inf") + "step_mode = window\n")
        assert rc.step == WindowStep(0.25)

    def test_time_list(self):
        rc = parse_config(BASE.replace("t = 0.5", "t = 0.1, 0.5,1"))
        assert rc.ts == [0.1, 0.5, 1.0]

    def test_negative_N_names_key(self):
        with pytest.raises(ConfigError, match="N"):
            parse_config(BASE + "N = -1\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 6"):
            parse_config(BASE + "frobnicate = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(BASE + "T = 2.0\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="operator"):
            parse_config("T = 1.0\nweight = cos\nu0 = sine:1\nt = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n" + BASE)

    def test_bad_weight(self):
        with pytest.raises(ConfigError, match="weight"):
            parse_config(BASE.replace("weight = cos", "weight = sin"))

    def test_bad_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(BASE + "step_mode = uniform:1.5\n")

    def test_negative_time(self):
        for ts in ("-1", "nan", "0.5, nan"):
            with pytest.raises(ConfigError, match="t"):
                parse_config(BASE.replace("t = 0.5", "t = " + ts))


class TestEmitCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == "n,N,t,x,value,abs_error\n"

    def test_roundtrip_lossless(self, tmp_path):
        value = 5.95184553823189e-5
        path = tmp_path / "row.csv"
        emit_csv([(4, 8, 1.0, 0.5, value, None)], str(path))
        text = path.read_text()
        assert text.endswith("\n")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        assert float(rows[0]["value"]) == value
        assert rows[0]["abs_error"] == ""

    def test_stdout(self, capsys):
        emit_csv([(1, 2, 0.0, None, 1.5, 0.25)])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,N,t,x,value,abs_error"
        assert out.splitlines()[1] == "1,2,0,,1.5,0.25"


class TestReproduction:
    def test_benchmark1_error_windows(self):
        for (n, N), (target, factor) in {
            (4, 8): (4.530997940e-6, 5),
            (8, 16): (7.3086845013760e-10, 5),
            (16, 32): (2.609087146562e-13, 10),
        }.items():
            err = run_reproduction(1, n, N)[5]
            assert target / factor <= err <= target * factor, (n, N, err)
        # off the calibration anchors the step rule overshoots the reference
        # accuracy; only require not worse than 10x
        err = run_reproduction(1, 8, 32)[5]
        assert err <= 10 * 8.2307398421915e-12

    def test_benchmark2_self_consistent(self):
        n, N, t, x, value, diff = run_reproduction(2, 32, 256)
        assert (t, x) == (1.0, 0.4)
        assert diff <= 1e-12 * abs(value)
        assert value == pytest.approx(5.7628562423365e-6, rel=1e-12)

    def test_bad_example(self):
        with pytest.raises(ConfigError):
            run_reproduction(3, 4, 8)

    def test_convergence_errors_decrease(self):
        errs = [run_reproduction(1, 16, N)[5] for N in (4, 8, 16, 32)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("example", (1, 2))
    @pytest.mark.parametrize("n, N", ((8, 16), (100, 16), (16, 300)))
    def test_plans_match_the_precheck(self, monkeypatch, example, n, N):
        # the plans that reproduce sizes before its first solve are the plans
        # it then solves, example 2's self-reference included, in that order
        built, plan = [], solver._nodes

        def record(problem, config):
            built.append((config.n, config.N, problem.op.dim))
            return plan(problem, config)

        monkeypatch.setattr(solver, "_nodes", record)
        run_reproduction(example, n, N)
        assert built == cli._example_plans(example, n, N)


class TestMain:
    def test_module_entry_point(self):
        # python -m nonlocalsolver.cli exits with main's code
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        argv = [sys.executable, "-m", "nonlocalsolver.cli", "reproduce", "--example", "1",
                "--N", "16", "--n"]
        ok = subprocess.run(argv + ["8"], env=env, capture_output=True, text=True, timeout=120)
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.startswith("n,N,t,x,value,abs_error\n8,16,1,0.5,")
        bad = subprocess.run(argv + ["200"], env=env, capture_output=True, text=True,
                             timeout=120)
        assert bad.returncode == 2 and bad.stdout == ""
        assert bad.stderr.startswith("config error: key --n: n must be <= 128, got 200")

    def test_solve_to_stdout(self, tmp_path, capsys):
        code, out, _ = _solve_config(capsys, tmp_path / "p.cfg",
                                     "operator = diagonal:1\nT = 1\nweight = const:0\n"
                                     "u0 = sine:1\nt = 1\nstep_mode = calibrated\n")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,N,t,x,value,abs_error"
        row = lines[1].split(",")
        assert row[3] == ""  # diagonal operators have no spatial coordinate
        assert float(row[4]) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_solve_laplacian_profile(self, tmp_path, capsys):
        code, out, _ = _solve_config(capsys, tmp_path / "p.cfg",
                                     "operator = laplacian1d:40\nT = 1\nweight = const:0\n"
                                     "u0 = sine:1\nt = 0.05\nx = 0.5\nstep_mode = calibrated\n")
        assert code == 0
        value = float(out.splitlines()[1].split(",")[4])
        # linear interpolation between grid points dominates the error here
        op_lam1 = 4 * 41**2 * math.sin(math.pi / (2 * 41)) ** 2
        assert value == pytest.approx(math.exp(-op_lam1 * 0.05), rel=5e-3)

    @pytest.mark.parametrize("operator", ["sine_spectral:50", "laplacian1d:49"],
                             ids=["sine_spectral", "laplacian1d"])
    def test_solve_poly_profile_matches_oracle(self, tmp_path, capsys, operator):
        # example-2 data; x = 0.4 is the 20th point of the m = 49 grid, where
        # the CSV value is the grid value itself
        code, out, _ = _solve_config(
            capsys, tmp_path / "p.cfg",
            f"operator = {operator}\nT = 1.5707963267948966\nweight = cos_square\n"
            "u0 = poly_x2_1mx\nt = 1\nx = 0.4\nstep_mode = calibrated\n")
        assert code == 0
        value = float(out.splitlines()[1].split(",")[4])
        w = WeightFunction.cos_square()
        if operator.startswith("sine"):
            op = SineSpectralOperator(50)
            ref = op.evaluate(reference_solution(op, w, math.pi / 2,
                                                 poly_x2_1mx_coefficients(50), 1.0), 0.4)
        else:
            op = Laplacian1D(49)
            u0 = (1.0 - op.grid) * op.grid ** 2
            ref = reference_solution(op, w, math.pi / 2, u0, 1.0)[19]
        assert value == pytest.approx(ref, rel=1e-10)

    def test_solve_u0_from_file(self, tmp_path, capsys):
        data = tmp_path / "u0.txt"
        data.write_text("1.0\n0.5\n")
        code, out, _ = _solve_config(capsys, tmp_path / "p.cfg",
                                     f"operator = diagonal:1,2\nT = 1\nweight = const:0\n"
                                     f"u0 = {data}\nt = 1\nstep_mode = calibrated\n")
        assert code == 0
        value = float(out.splitlines()[1].split(",")[4])
        assert value == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_out_file_and_determinism(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("operator = diagonal:4\nT = 1\nweight = cos\n"
                       "u0 = sine:1\nt = 0.5\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_out_dash_is_a_file_name(self, tmp_path, monkeypatch, capsys):
        # stdout is spelled only by leaving --out out
        monkeypatch.chdir(tmp_path)
        code, out, _ = _solve_config(capsys, tmp_path / "p.cfg",
                                     BASE.replace("diagonal:1", "diagonal:4"), "--out", "-")
        assert code == 0
        assert out == ""
        assert (tmp_path / "-").read_text().startswith("n,N,t,x,value,abs_error\n")

    def test_reproduce_command(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["reproduce", "--example", "1", "--n", "4", "--N", "8",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert float(rows[0]["abs_error"]) < 5 * 4.530997940e-6

    def test_converge_command(self, capsys):
        assert main(["converge", "--n", "8", "--N-list", "4,8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        code, _, err = _solve_config(capsys, cfg, "operator = diagonal:1\nbogus = 1\n")
        assert code == 2
        assert "config error" in err
        for bad in (BASE.replace("t = 0.5", "t = nan"), BASE.replace("T = 1.0", "T = inf"),
                    BASE.replace("diagonal:1", "diagonal:5") + "N = 200000\n"):
            code, _, err = _solve_config(capsys, cfg, bad)
            assert code == 2
            assert "config error" in err

    @pytest.mark.parametrize("extra, message", [
        # a combination that only the plan can refuse keeps the solver's words
        ("rho1 = 50\n", "config error: rho1 must lie in [0, rho0)"),
        ("rho1 = nan\n", "config error: key rho1:"), ("rho1 = -1\n", "config error: key rho1:"),
        ("rho1 = inf\n", "config error: key rho1:"),
        # the large-t rule and its c1 key were removed: both are refused
        ("step_mode = large_t\nN = 1\n", "config error: key step_mode: unknown mode 'large_t'"),
        ("step_mode = large_t\nc1 = nan\n", "config error: line 7: unknown key 'c1'"),
        ("c1 = 1\n", "config error: line 6: unknown key 'c1'"),
        ("step_mode = bogus\n", "config error: key step_mode: unknown mode"),
        ("step_mode = window\n", "config error: key step_mode: window needs a time"),
        ("n = 200\n", "config error: key n:"),
        ("step_mode = fixed:inf\n",
         "config error: key step_mode: step size must be positive and finite"),
    ], ids=["rho1-above-rho0", "rho1-nan", "rho1-negative", "rho1-inf", "large_t-N1",
            "large_t-c1-nan", "c1-unknown", "step_mode-unknown", "window-t0", "n-above-max",
            "fixed-inf"])
    def test_contour_and_step_input_exit_code(self, tmp_path, capsys, extra, message):
        # the window rule has no time to fit when t = 0 is the only one
        code, _, err = _solve_config(
            capsys, tmp_path / "bad.cfg",
            BASE.replace("diagonal:1", "diagonal:5,9").replace("t = 0.5", "t = 0") + extra)
        assert code == 2
        assert err.startswith(message) and err.count("key ") <= 1

    @pytest.mark.parametrize("operator, u0, message", [
        ("bogus", "sine:1", "config error: key operator: unknown kind 'bogus'"),
        ("diagonal:5,9", "poly_x2_1mx", "config error: key u0: poly_x2_1mx is not defined"),
        ("diagonal:5,9", "sine:3", "config error: key u0: mode 3 outside 1..2"),
        ("diagonal:5,9", "{}/missing.txt", "config error: key u0: cannot read file"),
        ("diagonal:5,9", "{}/short.txt",
         "config error: key u0: u0 length (1,) does not match operator dim 2"),
        ("diagonal:5,9", "{}/nan.txt", "config error: key u0: u0 must be finite"),
        # a value named sine or poly_x2_1mx is that form, never a file path
        ("diagonal:5,9", "sine", "config error: key u0: unknown form 'sine' (expected "
         "sine:K, poly_x2_1mx or a file path)"),
        ("diagonal:5,9", "poly_x2_1mx:3", "config error: key u0: unknown form "
         "'poly_x2_1mx:3' (expected sine:K, poly_x2_1mx or a file path)"),
        ("diagonal:5,9", "sine:", "config error: key u0: expected an integer, got ''"),
        # a file whose name is a form's is read when written as a path
        ("diagonal:5,9", "./sine",
         "config error: key u0: u0 length (1,) does not match operator dim 2"),
    ], ids=["unknown-kind", "poly-diagonal", "sine-out-of-range", "file-missing",
            "file-short", "file-nan", "sine-without-mode", "poly-with-argument",
            "sine-empty-mode", "file-named-sine"])
    def test_operator_and_u0_refusal_exit_code(self, tmp_path, capsys, monkeypatch,
                                               operator, u0, message):
        (tmp_path / "short.txt").write_text("1\n")
        (tmp_path / "nan.txt").write_text("1\nnan\n")
        (tmp_path / "sine").write_text("1\n")  # read for ./sine, never for sine
        monkeypatch.chdir(tmp_path)
        code, _, err = _solve_config(capsys, tmp_path / "bad.cfg",
                                     BASE.replace("diagonal:1", operator)
                                     .replace("sine:1", u0.format(tmp_path)))
        assert code == 2
        assert err.startswith(message) and err.count("key ") == 1

    @pytest.mark.parametrize("eigenvalues", ["2,inf", "inf", "2,1e400", "2,nan"])
    def test_nonfinite_eigenvalue_exit_code(self, tmp_path, capsys, eigenvalues):
        code, _, err = _solve_config(capsys, tmp_path / "bad.cfg",
                                     BASE.replace("diagonal:1", f"diagonal:{eigenvalues}"))
        assert code == 2
        assert "config error: key operator: all eigenvalues must be positive and finite" in err
        assert err.count("key ") == 1

    @pytest.mark.parametrize("weight", ["const:nan", "const:inf", "const:-inf",
                                        "poly:nan,1", "poly:1,inf"])
    def test_nonfinite_weight_exit_code(self, tmp_path, capsys, weight):
        code, _, err = _solve_config(capsys, tmp_path / "bad.cfg",
                                     BASE.replace("weight = cos", f"weight = {weight}"))
        assert code == 2
        assert "config error: key weight" in err and err.count("key ") == 1

    @pytest.mark.parametrize("weight", ["poly:1e308,1e308", "poly:1e308,-1e308,1e308"])
    def test_overflowing_weight_refused_in_silence(self, tmp_path, capsys, weight):
        # sampling w for sup|w| overflows; the inf or NaN maximum is refused
        # by the solvability check, with no numpy warning after the refusal
        code, _, err = _solve_config(
            capsys, tmp_path / "bad.cfg",
            BASE.replace("diagonal:1", "diagonal:2,5").replace("T = 1.0", "T = 3")
            .replace("weight = cos", f"weight = {weight}"))
        assert code == 3
        assert err == (
            "existence condition violated: solvability condition violated: "
            "sup|w| = inf >= a_I = 1.4142135623730951\n")

    @pytest.mark.parametrize("operator", ["sine_spectral:8", "laplacian1d:8"],
                             ids=["sine_spectral", "laplacian1d"])
    def test_nonfinite_x_exit_code(self, tmp_path, capsys, operator):
        # outside [0, 1] the grid's boundary zeros or the sine series'
        # periodic extension would be printed as u(t, x)
        for x in ("nan", "inf", "1.75", "-0.25"):
            code, _, err = _solve_config(capsys, tmp_path / "bad.cfg",
                                         BASE.replace("diagonal:1", operator) + f"x = {x}\n")
            assert code == 2
            assert "config error: key x" in err and err.count("key ") == 1

    @pytest.mark.parametrize("operator, extra, key", [
        ("sine_spectral:abc", "", "operator"),
        ("laplacian1d:abc", "", "operator"),
        ("diagonal:1", "step_mode = uniform:abc\n", "step_mode"),
    ], ids=["modes", "m", "alpha"])
    def test_malformed_number_exit_code(self, tmp_path, capsys, operator, extra, key):
        code, _, err = _solve_config(capsys, tmp_path / "bad.cfg",
                                     BASE.replace("diagonal:1", operator) + extra)
        assert code == 2
        assert f"config error: key {key}: expected" in err and err.count("key ") == 1

    @pytest.mark.parametrize("operator, size, key", [
        ("sine_spectral:8", "m = 8", "m"),
        ("laplacian1d:8", "modes = 8", "modes"),
        ("diagonal:1", "m = 8", "m"),
        ("diagonal:1", "modes = 8", "modes"),
        ("diagonal:1", "alpha = 0.5", "alpha"),
        ("diagonal:1", "out = x.csv", "out"),
    ], ids=["sine-m", "laplacian-modes", "diagonal-m", "diagonal-modes", "diagonal-alpha",
            "diagonal-out"])
    def test_size_key_not_read_exit_code(self, tmp_path, capsys, operator, size, key):
        # the size rides on the operator kind, alpha on step_mode = uniform:ALPHA and
        # the output path on --out; the keys that once held them are refused like
        # any unknown key
        code, _, err = _solve_config(capsys, tmp_path / "bad.cfg",
                                     BASE.replace("diagonal:1", operator) + size + "\n")
        assert code == 2
        assert err.startswith(f"config error: line 6: unknown key {key!r}")
        assert err.count("key ") == 1

    @pytest.mark.parametrize("operator, message", [
        ("laplacian1d:1", "config error: key operator: m must be an integer >= 2, got 1"),
        ("sine_spectral:0", "config error: key operator: modes must be an integer >= 1, got 0"),
        # a kind without its colon is not a kind; an empty size is not an integer
        ("laplacian1d", "config error: key operator: unknown kind 'laplacian1d' (expected "),
        ("sine_spectral", "config error: key operator: unknown kind 'sine_spectral' (expected "),
        ("diagonal", "config error: key operator: unknown kind 'diagonal' (expected "),
        ("laplacian1d:", "config error: key operator: expected an integer"),
        ("sine_spectral:", "config error: key operator: expected an integer"),
    ], ids=["m1", "modes0", "m-missing", "modes-missing", "eigenvalues-missing", "m-empty",
            "modes-empty"])
    def test_size_refusal_exit_code(self, tmp_path, capsys, operator, message):
        code, _, err = _solve_config(capsys, tmp_path / "bad.cfg",
                                     BASE.replace("diagonal:1", operator))
        assert code == 2
        assert err.startswith(message) and err.count("key ") <= 1

    def test_bad_order_exit_code(self, capsys, monkeypatch):
        # each flag is refused under its name before any plan is built
        plans = []
        monkeypatch.setattr(solver, "_nodes", lambda *a: plans.append(a))
        for argv, flag in ((["reproduce", "--example", "1", "--n", "-1", "--N", "16"], "--n"),
                           (["reproduce", "--example", "1", "--n", "129", "--N", "16"], "--n"),
                           (["reproduce", "--example", "2", "--n", "8", "--N", "-16"], "--N"),
                           (["converge", "--n", "8", "--N-list", "16,32,-4"], "--N-list"),
                           (["converge", "--n", "1000000000", "--N-list", "16"], "--n"),
                           (["converge", "--n", "8", "--N-list", ","], "--N-list")):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: key {flag}: ") and err.count("key ") == 1
        assert plans == []
        monkeypatch.undo()
        # the self-reference of example 2 stays within the bound on n
        assert main(["reproduce", "--example", "2", "--n", "100", "--N", "16"]) == 0

    @pytest.mark.parametrize("key, field, value, argv", [
        ("n", "n", -1, None), ("n", "n", 129, None), ("N", "N", -1, None),
        ("--n", "n", -1, ["reproduce", "--example", "1", "--n", "-1", "--N", "16"]),
        ("--n", "n", 129, ["reproduce", "--example", "1", "--n", "129", "--N", "16"]),
        ("--N", "N", -16, ["reproduce", "--example", "1", "--n", "8", "--N", "-16"]),
        ("--N-list", "N", -4, ["converge", "--n", "8", "--N-list", "16,-4"]),
    ], ids=["config-n-negative", "config-n-above-max", "config-N-negative",
            "flag-n-negative", "flag-n-above-max", "flag-N-negative", "flag-N-list-negative"])
    def test_order_refusal_in_solver_words(self, tmp_path, capsys, key, field, value, argv):
        # the CLI reports an n or N refusal in SolverConfig's own words, under
        # the config key or the flag that gave the value
        if argv is None:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(BASE + f"{field} = {value}\n")
            argv = ["solve", "--config", str(cfg)]
        with pytest.raises(ValueError) as refusal:
            SolverConfig(**{field: value})
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: key {key}: {refusal.value}\n"

    @pytest.mark.parametrize("given, key, refuse", [
        ({"T": "-1"}, "T", lambda: _problem(T=-1.0)),
        ({"T": "0"}, "T", lambda: _problem(T=0.0)),
        ({"T": "nan"}, "T", lambda: _problem(T=math.nan)),
        ({"T": "inf"}, "T", lambda: _problem(T=math.inf)),
        ({"t": "0.5, -1"}, "t", lambda: solve_many(_problem(), SolverConfig(), [0.5, -1.0])),
        ({"t": "nan"}, "t", lambda: solve_many(_problem(), SolverConfig(), [math.nan])),
        ({"operator": "diagonal:5,9", "u0": "{}/short.txt"}, "u0",
         lambda: _problem(op=DiagonalOperator([5.0, 9.0]))),
        ({"n": "129"}, "n", lambda: SolverConfig(n=129)),
        ({"N": "-1"}, "N", lambda: SolverConfig(N=-1)),
        ({"rho1": "-1"}, "rho1", lambda: SolverConfig(rho1=-1.0)),
        ({"weight": "const:nan"}, "weight", lambda: WeightFunction.constant(math.nan)),
        ({"step_mode": "fixed:inf"}, "step_mode", lambda: FixedStep(math.inf)),
        ({"step_mode": "uniform:1.5"}, "step_mode", lambda: UniformStep(1.5)),
    ], ids=["T-negative", "T-zero", "T-nan", "T-inf", "t-negative", "t-nan", "u0-short",
            "n", "N", "rho1", "weight-nan", "fixed-inf", "uniform-alpha"])
    def test_value_refusal_in_library_words(self, tmp_path, capsys, given, key, refuse):
        # the CLI restates no rule of the library: a bad value is refused in
        # the library's own words, under the key that gave it
        (tmp_path / "short.txt").write_text("1\n")
        lines = dict(line.split(" = ") for line in BASE.splitlines())
        lines.update((k, v.format(tmp_path)) for k, v in given.items())
        with pytest.raises(ValueError) as refusal:
            refuse()
        code, _, err = _solve_config(capsys, tmp_path / "bad.cfg",
                                     "".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert code == 2
        assert err == f"config error: key {key}: {refusal.value}\n"

    def test_huge_N_refused_under_its_flag(self, capsys, monkeypatch):
        # the node budget of every plan the command builds, example 2's
        # self-reference at 2N included, is checked before the first solve
        plans = []
        monkeypatch.setattr(solver, "_nodes", lambda *a: plans.append(a))
        for argv, flag, nodes in (
                (["reproduce", "--example", "1", "--n", "8", "--N", "100000000"], "--N",
                 "100000001 nodes x dim 1 "),
                (["reproduce", "--example", "2", "--n", "8", "--N", "100000"], "--N",
                 "200001 nodes x dim 200 "),
                (["converge", "--n", "8", "--N-list", "16,100000000"], "--N-list",
                 "100000001 nodes x dim 1 ")):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: key {flag}: the node buffer of {nodes}")
            assert err.count("key ") == 1
        assert plans == []

    def test_solve_refusals_name_one_key_and_build_nothing(self, tmp_path, capsys,
                                                             monkeypatch):
        # solve sizes its plan, I(z) stage included, before any operator exists
        # or a solve starts: under operator when one node's row alone is over
        # the budget, under N otherwise, for every operator kind
        built = []
        monkeypatch.setattr(solver, "_nodes", lambda *a: built.append(a))
        for cls in (DiagonalOperator, Laplacian1D, SineSpectralOperator):
            monkeypatch.setattr(cls, "__init__", lambda self, *a: built.append(a))
        cfg = tmp_path / "big.cfg"
        for body, key, nodes in (
                ("operator = diagonal:2,5\nN = 400000\nstep_mode = fixed:1e-4\n", "N",
                 "400001 nodes x dim 2 "),
                ("operator = sine_spectral:2000\nN = 40000\n", "N",
                 "40001 nodes x dim 2000 "),
                ("operator = diagonal:2,5\nN = 1000000\n", "N", "1000001 nodes x dim 2 "),
                ("operator = laplacian1d:1000000000\n", "operator",
                 "1 nodes x dim 1000000000 ")):
            code, _, err = _solve_config(capsys, cfg,
                                         body + "T = 1\nweight = cos\nu0 = sine:1\nt = 0.5\n")
            assert code == 2
            assert err.startswith(f"config error: key {key}: the node buffer of {nodes}")
            assert err.count("key ") == 1
        assert built == []

    def test_solve_and_plan_agree_on_the_budget(self, tmp_path, capsys, monkeypatch):
        # on a grid of plans whose bytes straddle 2^30 at rho1 = 0, solve's
        # pre-check refuses exactly the plans that _nodes refuses; a plan that
        # passes is stopped before it allocates anything per node
        class Passed(Exception):
            pass

        def stop(*args):
            raise Passed

        def plan_refuses(n, N, dim, use_symmetry):
            problem = NonlocalProblem(op=SineSpectralOperator(dim), T=1.0,
                                      w=WeightFunction.zero(), u0=np.zeros(dim))
            with monkeypatch.context() as m:
                m.setattr(solver, "nonlocal_integral", stop)  # I(z), right after the check
                try:
                    solver._nodes(problem, SolverConfig(n=n, N=N, use_symmetry=use_symmetry))
                except ConfigError as e:
                    return str(e).startswith("the node buffer of ")
                except Passed:
                    return False

        def solve_refuses(n, N, dim):
            with monkeypatch.context() as m:
                m.setattr(solver, "_nodes", stop)
                try:
                    code, _, err = _solve_config(
                        capsys, tmp_path / "p.cfg",
                        f"operator = sine_spectral:{dim}\nT = 1\n"
                        f"weight = const:0\nu0 = sine:1\nt = 0.5\nn = {n}\nN = {N}\n")
                except Passed:
                    return False
            assert code == 2
            assert err.startswith("config error: key N: the node buffer")
            return True

        for n, N in itertools.product((4, 16), (2**10 - 1, 2**12 - 1)):
            fits = (2**30 // (N + 1) - integral_bytes(n, 1 / math.cos(math.pi / 4))) // 16
            for dim in (fits - 1, fits, fits + 1):
                refused = solve_refuses(n, N, dim)
                assert refused == (dim > fits)
                # the CLI builds folded plans only; a full sum has the same N+1 nodes
                for use_symmetry in (True, False):
                    assert plan_refuses(n, N, dim, use_symmetry) == refused

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unreadable_config_and_unwritable_out_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe\x00")  # not UTF-8
        code, _, err = _solve_config(capsys, cfg, None)
        assert code == 2
        assert err.startswith(f"config error: cannot read config {str(cfg)!r}:")
        code, _, err = _solve_config(capsys, cfg, BASE.replace("diagonal:1", "diagonal:5,9"),
                                     "--out", str(tmp_path))
        assert code == 2
        assert err.startswith(f"config error: cannot write {str(tmp_path)!r}:")

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        # an editor may start a UTF-8 file with U+FEFF; it is not part of a key
        cfg, text = tmp_path / "p.cfg", BASE.replace("diagonal:1", "diagonal:5,9")
        code, *want = _solve_config(capsys, cfg, text)
        assert code == 0
        cfg.write_text(text, encoding="utf-8-sig")
        assert cfg.read_bytes()[:3] == b"\xef\xbb\xbf"
        code, *got = _solve_config(capsys, cfg, None)
        assert code == 0
        assert got == want

    def test_existence_exit_code(self, tmp_path, capsys):
        code, _, err = _solve_config(capsys, tmp_path / "p.cfg",
                                     "operator = diagonal:1\nT = 1\nweight = const:5\n"
                                     "u0 = sine:1\nt = 1\n")
        assert code == 3
        assert "existence" in err

    def test_numerical_failure_exit_code(self, monkeypatch, tmp_path):
        from nonlocalsolver.errors import NumericalError
        import nonlocalsolver.cli as cli_mod

        cfg = tmp_path / "p.cfg"
        cfg.write_text(BASE)

        def boom(rc):
            raise NumericalError("synthetic")

        monkeypatch.setattr(cli_mod, "run_solve", boom)
        assert main(["solve", "--config", str(cfg)]) == 4


class TestInProcessReuse:
    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_repeated_calls_identical(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        code, first, _ = _solve_config(capsys, cfg, BASE.replace("diagonal:1", "diagonal:5,9")
                                       .replace("t = 0.5", "t = 0.1, 0.5"))
        assert code == 0
        # an argparse error in between leaves the next call unchanged
        for bad in (["solve", "--bogus"], ["converge", "--example", "1", "--n", "8",
                                            "--N-list", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = _solve_config(capsys, cfg, None)
        assert code == 0
        assert out == first
        assert main(["converge", "--n", "8", "--N-list", "4"]) == 0
        conv = capsys.readouterr().out
        assert main(["converge", "--n", "8", "--N-list", "4"]) == 0
        assert capsys.readouterr().out == conv

    def test_warning_shown_on_every_call(self, capsys):
        # w = cos with T = pi/2 has sup|w| = 1 > 1/T; under Python's default
        # filters each call prints that warning once, after its output, however
        # many of its plans raise it: example 2 and its self-reference, or
        # each N of converge
        for argv in (["reproduce", "--example", "1", "--n", "8", "--N", "16"],
                     ["reproduce", "--example", "2", "--n", "8", "--N", "16"],
                     ["converge", "--n", "8", "--N-list", "16,32,64"]):
            with warnings.catch_warnings():
                warnings.resetwarnings()
                for _ in range(2):
                    assert main(argv) == 0
                    out, err = capsys.readouterr()
                    assert out.startswith("n,N,t,x,value,abs_error\n")
                    assert err.startswith("warning: sup|w| exceeds 1/T: ")
                    assert err.count("warning: ") == 1 and ".py:" not in err
                # a filter set before the call still decides
                warnings.simplefilter("error", UserWarning)
                with pytest.raises(UserWarning, match="sup"):
                    main(argv)


def _known_wrong(item, name, config, tol, scale):
    """A silent wrong answer on record under ROADMAP item `item`: a solve config
    whose values must come within tol of the oracle, relative to scale ("u0":
    max|u0|, "t": each time's solution), or be refused, or be flagged by a
    warning (every item but 2, which allows no flag). The fix of the item drops
    the xfail marker."""
    return pytest.param(config, tol, scale, item != 2, id=f"item{item}-{name}",
                        marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                reason=f"ROADMAP item {item}"))


_ITEM10 = "operator = diagonal:2,5\nT = 1\nweight = const:0.3\nu0 = sine:1\n"


@pytest.mark.parametrize("config, tol, scale, flag_allowed", [
    _known_wrong(13, "cos_square-T10", "operator = diagonal:2,5\nT = 10\n"
                 "weight = cos_square\nu0 = sine:1\nt = 0.1, 1.0\n", 1e-10, "u0"),
    _known_wrong(2, "strip-zero", "operator = sine_spectral:50\nT = 2\nweight = const:-6.28\n"
                 "u0 = sine:1\nt = 0.1, 1.0\nstep_mode = window\nx = 0.5\n", 1e-8, "t"),
    _known_wrong(10, "rho1-near-rho0", _ITEM10 + "rho1 = 1.999999999\nt = 0.5\n", 1e-8, "t"),
    _known_wrong(10, "fixed-1e-300", _ITEM10 + "step_mode = fixed:1e-300\nt = 0.5\n", 1e-8,
                 "t"),
    _known_wrong(10, "window-t-1e-300", _ITEM10 + "step_mode = window\nt = 1e-300\n", 1e-8,
                 "t"),
])
def test_known_wrong_answers_accurate_refused_or_flagged(tmp_path, capsys, config, tol,
                                                         scale, flag_allowed):
    with warnings.catch_warnings():  # stderr as the user sees it, past "ignore:sup"
        warnings.simplefilter("always", UserWarning)
        code, out, err = _solve_config(capsys, tmp_path / "case.cfg", config)
    flags = [line for line in err.splitlines()
             if line.startswith("warning: ") and "sup|w| exceeds 1/T" not in line]
    if code != 0 or (flag_allowed and flags):
        return
    rc = parse_config(config)
    op = cli._build_operator(rc)
    u0 = cli._build_u0(rc.u0_spec, op)
    exact = reference_solution(op, rc.weight, rc.T, u0, rc.ts)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(rc.ts)
    for row, ref in zip(rows, exact):
        # the oracle's value where the CLI reads its own: at x, or the largest entry
        want = (op.evaluate(ref, rc.x) if isinstance(op, SineSpectralOperator)
                else ref[np.argmax(np.abs(ref))])
        size = np.max(np.abs(u0)) if scale == "u0" else abs(want)
        assert abs(float(row["value"]) - want) <= tol * size, (row["t"], row["value"], want)
