import csv
import io
import math

import numpy as np
import pytest

from nonlocalsolver import (
    ConfigError,
    Laplacian1D,
    SineSpectralOperator,
    WeightFunction,
    cli,
    poly_x2_1mx_coefficients,
    reference_solution,
)
from nonlocalsolver.cli import (
    emit_csv,
    main,
    parse_config,
    run_convergence,
    run_reproduction,
)
from nonlocalsolver import solver
from nonlocalsolver.solver import CalibratedStep, FixedStep, UniformStep, WindowStep

pytestmark = pytest.mark.filterwarnings("ignore:sup")

BASE = """\
operator = diagonal:1
T = 1.0
weight = cos
u0 = sine:1
t = 0.5
"""


class TestParseConfig:
    def test_minimal(self):
        rc = parse_config(BASE)
        assert rc.operator == "diagonal:1"
        assert rc.T == 1.0
        assert rc.weight.kind == "cos"
        assert rc.ts == [0.5]
        assert rc.n == 16 and rc.N == 64  # defaults
        assert rc.alpha == 0.5 and rc.rho1 == 0.0 and rc.x == 0.5
        assert isinstance(rc.step, UniformStep)

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
            parse_config(BASE + "alpha = 1.5\n")

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
            rows = run_reproduction(1, n, N)
            err = rows[0][5]
            assert target / factor <= err <= target * factor, (n, N, err)
        # off the calibration anchors the step rule overshoots the reference
        # accuracy; only require not worse than 10x
        err = run_reproduction(1, 8, 32)[0][5]
        assert err <= 10 * 8.2307398421915e-12

    def test_benchmark2_self_consistent(self):
        rows = run_reproduction(2, 32, 256)
        n, N, t, x, value, diff = rows[0]
        assert (t, x) == (1.0, 0.4)
        assert diff <= 1e-12 * abs(value)
        assert value == pytest.approx(5.7628562423365e-6, rel=1e-12)

    def test_bad_example(self):
        with pytest.raises(ConfigError):
            run_reproduction(3, 4, 8)

    def test_convergence_errors_decrease(self):
        rows = run_convergence(16, [4, 8, 16, 32])
        errs = [r[5] for r in rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestMain:
    def test_solve_to_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("operator = diagonal:1\nT = 1\nweight = const:0\n"
                       "u0 = sine:1\nt = 1\nstep_mode = calibrated\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "n,N,t,x,value,abs_error"
        row = lines[1].split(",")
        assert row[3] == ""  # diagonal operators have no spatial coordinate
        assert float(row[4]) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_solve_laplacian_profile(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("operator = laplacian1d\nm = 40\nT = 1\nweight = const:0\n"
                       "u0 = sine:1\nt = 0.05\nx = 0.5\nstep_mode = calibrated\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[4])
        # linear interpolation between grid points dominates the error here
        op_lam1 = 4 * 41**2 * math.sin(math.pi / (2 * 41)) ** 2
        assert value == pytest.approx(math.exp(-op_lam1 * 0.05), rel=5e-3)

    @pytest.mark.parametrize("operator", ["sine_spectral\nmodes = 50", "laplacian1d\nm = 49"],
                             ids=["sine_spectral", "laplacian1d"])
    def test_solve_poly_profile_matches_oracle(self, tmp_path, capsys, operator):
        # example-2 data; x = 0.4 is the 20th point of the m = 49 grid, where
        # the CSV value is the grid value itself
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"operator = {operator}\nT = 1.5707963267948966\nweight = cos_square\n"
                       "u0 = poly_x2_1mx\nt = 1\nx = 0.4\nstep_mode = calibrated\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[4])
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
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"operator = diagonal:1,2\nT = 1\nweight = const:0\n"
                       f"u0 = {data}\nt = 1\nstep_mode = calibrated\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[4])
        assert value == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_out_file_and_determinism(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("operator = diagonal:4\nT = 1\nweight = cos\n"
                       "u0 = sine:1\nt = 0.5\n"
                       "out = " + str(tmp_path / "a.csv") + "\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b

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
        cfg.write_text("operator = diagonal:1\nbogus = 1\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        for bad in (BASE.replace("t = 0.5", "t = nan"), BASE.replace("T = 1.0", "T = inf"),
                    BASE.replace("diagonal:1", "diagonal:5") + "N = 200000\n"):
            cfg.write_text(bad)
            assert main(["solve", "--config", str(cfg)]) == 2
            assert "config error" in capsys.readouterr().err

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
    ], ids=["rho1-above-rho0", "rho1-nan", "rho1-negative", "rho1-inf", "large_t-N1",
            "large_t-c1-nan", "c1-unknown", "step_mode-unknown", "window-t0", "n-above-max"])
    def test_contour_and_step_input_exit_code(self, tmp_path, capsys, extra, message):
        cfg = tmp_path / "bad.cfg"
        # the window rule has no time to fit when t = 0 is the only one
        cfg.write_text(BASE.replace("diagonal:1", "diagonal:5,9").replace("t = 0.5", "t = 0")
                       + extra)
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("key ") <= 1

    @pytest.mark.parametrize("operator, u0, message", [
        ("bogus", "sine:1", "config error: key operator: unknown kind 'bogus'"),
        ("diagonal:5,9", "poly_x2_1mx", "config error: key u0: poly_x2_1mx is not defined"),
        ("diagonal:5,9", "sine:3", "config error: key u0: mode 3 outside 1..2"),
        ("diagonal:5,9", "{}/missing.txt", "config error: key u0: cannot read file"),
        ("diagonal:5,9", "{}/short.txt", "config error: key u0: file has 1 values"),
        ("diagonal:5,9", "{}/nan.txt", "config error: key u0: u0 must be finite"),
    ], ids=["unknown-kind", "poly-diagonal", "sine-out-of-range", "file-missing",
            "file-short", "file-nan"])
    def test_operator_and_u0_refusal_exit_code(self, tmp_path, capsys, operator, u0, message):
        (tmp_path / "short.txt").write_text("1\n")
        (tmp_path / "nan.txt").write_text("1\nnan\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE.replace("diagonal:1", operator)
                       .replace("sine:1", u0.format(tmp_path)))
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("key ") == 1

    @pytest.mark.parametrize("eigenvalues", ["2,inf", "inf", "2,1e400", "2,nan"])
    def test_nonfinite_eigenvalue_exit_code(self, tmp_path, capsys, eigenvalues):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE.replace("diagonal:1", f"diagonal:{eigenvalues}"))
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error: key operator: all eigenvalues must be positive and finite" in err
        assert err.count("key ") == 1

    @pytest.mark.parametrize("weight", ["const:nan", "const:inf", "const:-inf",
                                        "poly:nan,1", "poly:1,inf"])
    def test_nonfinite_weight_exit_code(self, tmp_path, capsys, weight):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE.replace("weight = cos", f"weight = {weight}"))
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error: key weight" in err and err.count("key ") == 1

    @pytest.mark.parametrize("operator", ["sine_spectral\nmodes = 8", "laplacian1d\nm = 8"],
                             ids=["sine_spectral", "laplacian1d"])
    def test_nonfinite_x_exit_code(self, tmp_path, capsys, operator):
        # outside [0, 1] the grid's boundary zeros or the sine series'
        # periodic extension would be printed as u(t, x)
        cfg = tmp_path / "bad.cfg"
        for x in ("nan", "inf", "1.75", "-0.25"):
            cfg.write_text(BASE.replace("diagonal:1", operator) + f"x = {x}\n")
            assert main(["solve", "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert "config error: key x" in err and err.count("key ") == 1

    @pytest.mark.parametrize("operator, extra, key", [
        ("sine_spectral", "modes = abc\n", "modes"),
        ("laplacian1d", "m = abc\n", "m"),
        ("diagonal:1", "alpha = abc\n", "alpha"),
    ], ids=["modes", "m", "alpha"])
    def test_malformed_number_exit_code(self, tmp_path, capsys, operator, extra, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE.replace("diagonal:1", operator) + extra)
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: key {key}: expected" in err and err.count("key ") == 1

    @pytest.mark.parametrize("operator, size, key", [
        ("sine_spectral", "m = 8", "m"),
        ("laplacian1d", "modes = 8", "modes"),
        ("diagonal:1", "m = 8", "m"),
        ("diagonal:1", "modes = 8", "modes"),
    ], ids=["sine-m", "laplacian-modes", "diagonal-m", "diagonal-modes"])
    def test_size_key_not_read_exit_code(self, tmp_path, capsys, operator, size, key):
        # each sized operator reads one key; a key it does not read is refused
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE.replace("diagonal:1", operator) + size + "\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: key {key}: not read by operator" in err and err.count("key ") == 1

    @pytest.mark.parametrize("operator, size, message", [
        ("laplacian1d", "m = 1\n", "config error: key m: need"),
        ("sine_spectral", "modes = 0\n", "config error: key modes: need"),
        ("laplacian1d", "", "config error: missing required key 'm'"),
        ("sine_spectral", "", "config error: missing required key 'modes'"),
    ], ids=["m1", "modes0", "m-missing", "modes-missing"])
    def test_size_refusal_exit_code(self, tmp_path, capsys, operator, size, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE.replace("diagonal:1", operator) + size)
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("key ") <= 1

    def test_bad_order_exit_code(self, capsys, monkeypatch):
        # each flag is refused under its name before any plan is built
        plans = []
        monkeypatch.setattr(solver, "_Plan", lambda *a: plans.append(a))
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

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unreadable_config_and_unwritable_out_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe\x00")  # not UTF-8
        assert main(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {str(cfg)!r}:")
        cfg.write_text(BASE.replace("diagonal:1", "diagonal:5,9"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write {str(tmp_path)!r}:")

    def test_existence_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("operator = diagonal:1\nT = 1\nweight = const:5\n"
                       "u0 = sine:1\nt = 1\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        assert "existence" in capsys.readouterr().err

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
        cfg.write_text(BASE.replace("diagonal:1", "diagonal:5,9").replace("t = 0.5", "t = 0.1, 0.5"))
        argv = ["solve", "--config", str(cfg)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # an argparse error in between leaves the next call unchanged
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert main(["converge", "--n", "8", "--N-list", "4"]) == 0
        conv = capsys.readouterr().out
        assert main(["converge", "--n", "8", "--N-list", "4"]) == 0
        assert capsys.readouterr().out == conv
