"""The one list of bad inputs to the public constructors and entry points, a
row of a table below for each: a count must be an integer at or above its
bound; problem data must be real and nonempty; a value must lie in its range;
a bool (Python's or numpy's), a string, a Decimal or an int past the float
range is never read as a number; a problem's op and w, and a solve's
config, must be of their own types; a weight gives one real value per point,
or one for all; and a resolvent's state is numeric. Each bad input raises
ValueError that starts with its field's name, and no warning comes first (a
ComplexWarning once cut complex data to its real part).

The `solve` configs that the CLI refuses are the rows of CONFIGS, each run
through nonlocalsolver.cli.main: each exits with code 2 and a first line on
stderr that starts with its row's message, naming at most one config key.

`python tools/fingerprint.py --refusals SRC_DIR` prints the outcome of every
row, labelled with its test ID (see cases() and config_cases() at the end), so
that two trees can be compared row by row."""

import contextlib
import io
import itertools
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from nonlocalsolver import (
    DiagonalOperator,
    FixedStep,
    Laplacian1D,
    NonlocalProblem,
    SineSpectralOperator,
    SolverConfig,
    SpectralBounds,
    UniformStep,
    WeightFunction,
    WindowStep,
    gauss_legendre,
    make_self_adjoint_contour,
    nonlocal_integral,
    reference_solution,
    solve_at,
    solve_many,
)
from nonlocalsolver.cli import main
from nonlocalsolver.oracle import weight_laplace_integral

# (id, field, lowest admitted value, the call that takes the count)
COUNTS = [
    ("config-n", "n", 0, lambda v: SolverConfig(n=v)),
    ("config-N", "N", 0, lambda v: SolverConfig(N=v)),
    ("laplacian-m", "m", 2, Laplacian1D),
    ("sine-modes", "modes", 1, SineSpectralOperator),
    ("gauss-n", "n", 0, gauss_legendre),
]
BAD_COUNTS = [True, 2.5, "below"]  # "below": one less than the lowest admitted value

COMPLEX = {"1j": 1j, "complex128": np.complex128(0.5 + 1j),
           "array": np.array([0.5, 0.3 + 1j])}
# a complex weight of each kind, below the a_I = sqrt(2) of OP and the 1/T of T
COMPLEX_WEIGHTS = {"1j": lambda s: 0.3j, "complex128": lambda s: np.complex128(0.15 + 0.3j),
                   "array": lambda s: 0.3 * np.exp(1j * s)}
OP, T, U0 = DiagonalOperator([2.0, 5.0]), 1.0, [1.0, 0.0]
ZERO = WeightFunction.zero()
# weights of 17 and 3 values whatever their points; 17 is the default Gauss order n = 16 plus one
W17 = WeightFunction.from_callable(lambda s: np.linspace(0.0, 0.5, 17), 0.5)
W3 = WeightFunction.from_callable(lambda s: np.zeros(3))


def _problem(T=T, w=ZERO, u0=U0):
    return NonlocalProblem(op=OP, T=T, w=w, u0=u0)


def _solve(t=0.5, w=ZERO, **config):
    return solve_at(_problem(w=w), SolverConfig(n=8, N=16, **config), t)


# (id, field, the call that takes real data, fed a complex value v or weight w)
DATA = [
    ("problem-u0", "u0", lambda v, w: _problem(u0=v)),
    ("reference-u0", "u0", lambda v, w: reference_solution(OP, ZERO, T, v, 0.5)),
    ("eigenvalues", "eigenvalues", lambda v, w: DiagonalOperator(v)),
    ("constant", "weight constant", lambda v, w: WeightFunction.constant(v)),
    ("polynomial", "weight polynomial coefficients",
     lambda v, w: WeightFunction.polynomial(np.atleast_1d(v))),
    ("solve_at-weight", "weight", lambda v, w: _solve(w=w)),
    ("laplace-weight", "weight", lambda v, w: weight_laplace_integral(w, 2.0, T)),
    ("reference-weight", "weight", lambda v, w: reference_solution(OP, w, T, U0, 0.5)),
]

# (id, field, the call that takes an empty sequence)
EMPTY = [
    ("laplace-lam", "lam", lambda: weight_laplace_integral(WeightFunction.cos(), [], T)),
    ("polynomial", "weight polynomial coefficients", lambda: WeightFunction.polynomial([])),
]

# (id, field, the call that takes a value out of its range, a bool or a string)
VALUES = [
    ("problem-T=-1", "horizon T", lambda: _problem(T=-1.0)),
    ("problem-T=inf", "horizon T", lambda: _problem(T=math.inf)),
    ("solve_at-t=-1", "time", lambda: _solve(-1.0)),
    ("solve_at-t=nan", "time", lambda: _solve(math.nan)),
    ("solve_at-t=array", "time", lambda: _solve(np.array([0.5]))),
    ("solve_at-t=10**400", "time", lambda: _solve(10**400)),
    ("bounds-rho0=0", "rho0", lambda: SpectralBounds(rho0=0.0)),
    ("bounds-rho0=inf", "rho0", lambda: SpectralBounds(rho0=math.inf)),
    ("contour-rho0=0", "rho0", lambda: make_self_adjoint_contour(0.0)),
    ("contour-rho0=nan", "rho0", lambda: make_self_adjoint_contour(math.nan)),
    ("config-rho1=-1", "rho1", lambda: SolverConfig(rho1=-1.0)),
    ("solve_at-rho1=rho0", "rho1", lambda: _solve(rho1=2.0)),
    ("config-n=129", "n", lambda: SolverConfig(n=129)),
    ("window-t_min=0", "t_min", lambda: WindowStep(0.0)),
    ("fixed-h=inf", "step size", lambda: FixedStep(math.inf)),
    ("eigenvalues=empty", "eigenvalues", lambda: DiagonalOperator([])),
    ("constant=nan", "weight", lambda: WeightFunction.constant(math.nan)),
    # a bool where a real number is expected is refused, as it is for a count
    ("solve_at-t=True", "time", lambda: _solve(True)),
    ("solve_many-t=True", "time", lambda: solve_many(_problem(), SolverConfig(), [True])),
    ("problem-T=True", "horizon T", lambda: _problem(T=True)),
    ("integral-T=True", "horizon T",
     lambda: nonlocal_integral(gauss_legendre(8), ZERO, True, 2.0)),
    ("reference-T=True", "horizon T", lambda: reference_solution(OP, ZERO, True, U0, 0.5)),
    ("config-rho1=True", "rho1", lambda: SolverConfig(rho1=True)),
    ("bounds-rho0=True", "rho0", lambda: SpectralBounds(rho0=True)),
    ("bounds-phi=True", "phi", lambda: SpectralBounds(2.0, phi=True)),
    ("contour-rho0=True", "rho0", lambda: make_self_adjoint_contour(True)),
    ("window-t_min=True", "t_min", lambda: WindowStep(True)),
    ("fixed-h=True", "step size", lambda: FixedStep(True)),
    ("constant=True", "weight constant", lambda: WeightFunction.constant(True)),
    ("callable-hint=True", "weight",
     lambda: WeightFunction.from_callable(np.cos, sup_norm_hint=True)),
    ("laplace-lam=True", "lam", lambda: weight_laplace_integral(WeightFunction.cos(), True, T)),
    ("resolvent-z=True", "resolvent", lambda: OP.resolvent_apply(True, U0)),
    # a string is not parsed as a number
    ("constant=str", "weight constant", lambda: WeightFunction.constant("0.3")),
    ("polynomial=str", "weight polynomial coefficients",
     lambda: WeightFunction.polynomial("12")),
    ("problem-u0=str", "u0", lambda: _problem(u0=["1.0", "0.0"])),
    ("resolvent-z=str", "resolvent", lambda: OP.resolvent_apply("3", U0)),
    ("modified-z=str", "resolvent", lambda: OP.modified_resolvent_apply("3+1j", U0)),
    # a numpy bool is a bool, and False is refused before the modified resolvent's z = 0
    ("solve_at-t=np.True_", "time", lambda: _solve(np.True_)),
    ("solve_many-t=np.True_", "time",
     lambda: solve_many(_problem(), SolverConfig(), [0.5, np.True_])),
    ("reference-t=np.True_", "time", lambda: reference_solution(OP, ZERO, T, U0, np.True_)),
    ("problem-T=np.True_", "horizon T", lambda: _problem(T=np.True_)),
    ("integral-T=np.True_", "horizon T",
     lambda: nonlocal_integral(gauss_legendre(8), ZERO, np.True_, 2.0)),
    ("laplace-T=np.True_", "horizon T",
     lambda: weight_laplace_integral(WeightFunction.cos(), 2.0, np.True_)),
    ("reference-T=np.True_", "horizon T",
     lambda: reference_solution(OP, ZERO, np.True_, U0, 0.5)),
    ("config-rho1=np.True_", "rho1", lambda: SolverConfig(rho1=np.True_)),
    ("config-rho1=np.False_", "rho1", lambda: SolverConfig(rho1=np.False_)),
    ("bounds-rho0=np.True_", "rho0", lambda: SpectralBounds(rho0=np.True_)),
    ("bounds-phi=np.True_", "phi", lambda: SpectralBounds(2.0, phi=np.True_)),
    ("bounds-phi=np.False_", "phi", lambda: SpectralBounds(2.0, phi=np.False_)),
    ("contour-rho0=np.True_", "rho0", lambda: make_self_adjoint_contour(np.True_)),
    ("window-t_min=np.True_", "t_min", lambda: WindowStep(np.True_)),
    ("fixed-h=np.True_", "step size", lambda: FixedStep(np.True_)),
    ("uniform-alpha=np.True_", "alpha", lambda: UniformStep(alpha=np.True_)),
    ("laplace-lam=np.True_", "lam",
     lambda: weight_laplace_integral(WeightFunction.cos(), np.True_, T)),
    ("constant=np.True_", "weight constant", lambda: WeightFunction.constant(np.True_)),
    ("callable-hint=np.True_", "weight",
     lambda: WeightFunction.from_callable(np.cos, sup_norm_hint=np.True_)),
    ("resolvent-z=np.True_", "resolvent", lambda: OP.resolvent_apply(np.True_, U0)),
    ("modified-z=np.True_", "resolvent", lambda: OP.modified_resolvent_apply(np.True_, U0)),
    ("modified-z=False", "resolvent", lambda: OP.modified_resolvent_apply(False, U0)),
    ("modified-z=np.False_", "resolvent", lambda: OP.modified_resolvent_apply(np.False_, U0)),
    # an int past the float range is refused before any float() of it overflows
    ("problem-T=10**400", "horizon T", lambda: _problem(T=10**400)),
    ("integral-T=10**400", "horizon T",
     lambda: nonlocal_integral(gauss_legendre(8), ZERO, 10**400, 2.0)),
    ("laplace-T=10**400", "horizon T",
     lambda: weight_laplace_integral(WeightFunction.cos(), 2.0, 10**400)),
    ("reference-T=10**400", "horizon T", lambda: reference_solution(OP, ZERO, 10**400, U0, 0.5)),
    ("bounds-rho0=10**400", "rho0", lambda: SpectralBounds(rho0=10**400)),
    ("contour-rho0=10**400", "rho0", lambda: make_self_adjoint_contour(10**400)),
    ("fixed-h=10**400", "step size", lambda: FixedStep(10**400)),
    ("window-t_min=10**400", "t_min", lambda: WindowStep(10**400)),
    ("callable-hint=10**400", "weight",
     lambda: WeightFunction.from_callable(np.cos, sup_norm_hint=10**400)),
    ("config-rho1=10**400", "rho1", lambda: SolverConfig(rho1=10**400)),
    # more strings, and a Decimal, which numbers.Real leaves out: it does not mix with floats
    ("problem-T=str", "horizon T", lambda: _problem(T="1.0")),
    ("problem-T=Decimal", "horizon T", lambda: _problem(T=Decimal("0.5"))),
    ("config-rho1=str", "rho1", lambda: SolverConfig(rho1="0.5")),
    ("bounds-phi=str", "phi", lambda: SpectralBounds(2.0, phi="0.5")),
    ("callable-hint=str", "weight",
     lambda: WeightFunction.from_callable(np.cos, sup_norm_hint="1")),
    ("uniform-alpha=str", "alpha", lambda: UniformStep(alpha="0.5")),
    ("solve_many-t=str", "time", lambda: solve_many(_problem(), SolverConfig(), [0.5, "0.5"])),
    # an array is not a scalar, even one with one element
    ("problem-T=array", "horizon T", lambda: _problem(T=np.array([1.0]))),
    ("bounds-rho0=array", "rho0", lambda: SpectralBounds(rho0=np.array([2.0, 3.0]))),
    ("window-t_min=array", "t_min", lambda: WindowStep(np.array([0.5]))),
    ("fixed-h=array", "step size", lambda: FixedStep(np.array([0.2]))),
    ("uniform-alpha=1", "alpha", lambda: UniformStep(alpha=1)),
    ("uniform-alpha=True", "alpha", lambda: UniformStep(alpha=True)),
    # a problem's operator and weight, and a solve's config, are of their own types
    ("problem-w=np.cos", "w", lambda: _problem(w=np.cos)),
    ("problem-w=lambda", "w", lambda: _problem(w=lambda s: 0.0)),
    ("problem-w=None", "w", lambda: _problem(w=None)),
    ("problem-op=np.eye(2)", "op", lambda: NonlocalProblem(op=np.eye(2), T=T, w=ZERO, u0=U0)),
    ("solve_at-config=None", "config", lambda: solve_at(_problem(), None, 0.5)),
    ("solve_many-config=None", "config", lambda: solve_many(_problem(), None, [0.5])),
    # a weight gives one real value per point, or one value for all of them
    ("solve_at-weight=17-values", "weight",
     lambda: solve_at(_problem(w=W17), SolverConfig(), 0.5)),
    ("solve_at-weight=3-values", "weight", lambda: _solve(w=W3)),
    ("laplace-weight=17-values", "weight", lambda: weight_laplace_integral(W17, 2.0, T)),
    ("laplace-weight=3-values", "weight", lambda: weight_laplace_integral(W3, 2.0, T)),
    # a resolvent's state is numeric: a string or bytes is not parsed, None is not NaN
    ("resolvent-v=str", "resolvent", lambda: OP.resolvent_apply(3 + 1j, ["1", "2"])),
    ("modified-v=bytes", "resolvent", lambda: OP.modified_resolvent_apply(3 + 1j, [b"1", b"2"])),
    ("resolvent-v=None", "resolvent", lambda: OP.resolvent_apply(3 + 1j, [None, 1])),
]

# (id, the call that takes an int, a numpy scalar, a 0-d array, a Fraction or a
# bool array: all are numbers)
NUMBERS = [
    ("problem-T=int", lambda: _problem(T=1)),
    ("solve_at-t=int64", lambda: _solve(np.int64(1))),
    ("solve_at-t=float32", lambda: _solve(np.float32(0.5))),
    ("bounds-rho0=int64", lambda: SpectralBounds(np.int64(2))),
    ("constant=int64", lambda: WeightFunction.constant(np.int64(0))),
    ("resolvent-z=int", lambda: OP.resolvent_apply(3, U0)),
    ("weight=bool-array", lambda: _solve(w=WeightFunction.from_callable(lambda s: s < 0.5))),
    ("weight=scalar", lambda: _solve(w=WeightFunction.from_callable(lambda s: 0.3))),
    ("solve_at-t=0d-array", lambda: _solve(np.array(0.5))),
    ("solve_at-T=Fraction",
     lambda: solve_at(_problem(T=Fraction(1, 2)), SolverConfig(n=8, N=16), 0.5)),
    ("config-rho1=float32", lambda: SolverConfig(rho1=np.float32(0.5))),
]

# a valid solve config, and the files that the u0 rows below read from the
# directory each row runs in
BASE = {"operator": "diagonal:5,9", "T": "1.0", "weight": "cos", "u0": "sine:1", "t": "0.5"}
FILES = {"short.txt": b"1\n", "nan.txt": b"1\nnan\n", "latin1.txt": b"\xff\xfe1\n",
         "sine": b"1\n"}

# (the keys that replace BASE's or follow them, the start of the first line on
# stderr): each a solve config that the CLI refuses with exit code 2; its test id
# is its keys, key=value joined by +
CONFIGS = [
    # the operator kind and its size or eigenvalues
    ({"operator": "bogus"}, "config error: key operator: unknown kind 'bogus' (expected "),
    ({"operator": "bogus:1"}, "config error: key operator: unknown kind 'bogus:1' (expected "),
    # a kind without its colon is not a kind; an empty size is not an integer
    ({"operator": "diagonal"}, "config error: key operator: unknown kind 'diagonal' (expected "),
    ({"operator": "laplacian1d"},
     "config error: key operator: unknown kind 'laplacian1d' (expected "),
    ({"operator": "sine_spectral"},
     "config error: key operator: unknown kind 'sine_spectral' (expected "),
    ({"operator": "diagonal:"}, "config error: key operator: expected a real number, got ''"),
    ({"operator": "laplacian1d:"}, "config error: key operator: expected an integer, got ''"),
    ({"operator": "sine_spectral:"}, "config error: key operator: expected an integer, got ''"),
    ({"operator": "laplacian1d:2.5"},
     "config error: key operator: expected an integer, got '2.5'"),
    ({"operator": "laplacian1d:abc"},
     "config error: key operator: expected an integer, got 'abc'"),
    ({"operator": "sine_spectral:abc"},
     "config error: key operator: expected an integer, got 'abc'"),
    ({"operator": "diagonal:2,x"}, "config error: key operator: expected a real number, got 'x'"),
    ({"operator": "laplacian1d:1"},
     "config error: key operator: m must be an integer >= 2, got 1"),
    ({"operator": "sine_spectral:0"},
     "config error: key operator: modes must be an integer >= 1, got 0"),
    ({"operator": "diagonal:2,inf"},
     "config error: key operator: all eigenvalues must be positive and finite, got inf"),
    ({"operator": "diagonal:inf"},
     "config error: key operator: all eigenvalues must be positive and finite, got inf"),
    ({"operator": "diagonal:2,1e400"},
     "config error: key operator: all eigenvalues must be positive and finite, got inf"),
    ({"operator": "diagonal:2,nan"},
     "config error: key operator: all eigenvalues must be positive and finite, got nan"),
    # the weight
    ({"weight": "const"}, "config error: key weight: unknown form 'const' (expected "),
    ({"weight": "sin"}, "config error: key weight: unknown form 'sin' (expected "),
    ({"weight": "const:nan"},
     "config error: key weight: weight const:nan: sup|w| must be finite and >= 0, got nan"),
    ({"weight": "const:inf"},
     "config error: key weight: weight const:inf: sup|w| must be finite and >= 0, got inf"),
    ({"weight": "const:-inf"},
     "config error: key weight: weight const:-inf: sup|w| must be finite and >= 0, got inf"),
    ({"weight": "poly:nan,1"},
     "config error: key weight: weight polynomial coefficients must be finite, got [nan, 1.0]"),
    ({"weight": "poly:1,inf"},
     "config error: key weight: weight polynomial coefficients must be finite, got [1.0, inf]"),
    # u0: a value named sine or poly_x2_1mx is that form, never a file path,
    # and a file whose name is a form's is read when written as a path
    ({"u0": "sine:0"}, "config error: key u0: mode 0 outside 1..2"),
    ({"u0": "sine:3"}, "config error: key u0: mode 3 outside 1..2"),
    ({"u0": "sine:x"}, "config error: key u0: expected an integer, got 'x'"),
    ({"u0": "sine:"}, "config error: key u0: expected an integer, got ''"),
    ({"u0": "sine"}, "config error: key u0: unknown form 'sine' (expected "),
    ({"u0": "poly_x2_1mx:3"}, "config error: key u0: unknown form 'poly_x2_1mx:3' (expected "),
    ({"u0": "poly_x2_1mx"},
     "config error: key u0: poly_x2_1mx is not defined for diagonal operators"),
    ({"u0": "missing.txt"},
     "config error: key u0: cannot read file 'missing.txt': [Errno 2] No such file"),
    # a u0 file is decoded as a config file is, whatever the locale
    ({"u0": "latin1.txt"},
     "config error: key u0: cannot read file 'latin1.txt': 'utf-8' codec can't decode"),
    ({"u0": "short.txt"}, "config error: key u0: u0 length (1,) does not match operator dim 2"),
    ({"u0": "./sine"}, "config error: key u0: u0 length (1,) does not match operator dim 2"),
    ({"u0": "nan.txt"}, "config error: key u0: u0 must be finite"),
    # the step rule; the large-t rule and its c1 key were removed
    ({"step_mode": "bogus"}, "config error: key step_mode: unknown mode 'bogus' (expected "),
    ({"step_mode": "fixed"}, "config error: key step_mode: unknown mode 'fixed' (expected "),
    ({"step_mode": "window:1"}, "config error: key step_mode: unknown mode 'window:1' (expected "),
    ({"step_mode": "large_t", "N": "1"},
     "config error: key step_mode: unknown mode 'large_t' (expected "),
    ({"step_mode": "large_t", "c1": "nan"}, "config error: line 7: unknown key 'c1'"),
    ({"step_mode": "fixed:inf"},
     "config error: key step_mode: step size must be positive and finite, got inf"),
    ({"step_mode": "uniform:abc"},
     "config error: key step_mode: expected a real number, got 'abc'"),
    # the window rule has no time to fit when t = 0 is the only one
    ({"t": "0", "step_mode": "window"},
     "config error: key step_mode: window needs a time in (0, inf) in t"),
    # a combination that only the plan can refuse keeps the solver's words
    ({"rho1": "50"}, "config error: rho1 must lie in [0, rho0), got 50.0"),
    ({"rho1": "nan"}, "config error: key rho1: rho1 must be finite and >= 0, got nan"),
    ({"rho1": "-1"}, "config error: key rho1: rho1 must be finite and >= 0, got -1.0"),
    ({"rho1": "inf"}, "config error: key rho1: rho1 must be finite and >= 0, got inf"),
    ({"n": "200"}, "config error: key n: n must be <= 128, got 200"),
    # outside [0, 1] the grid's boundary zeros or the sine series' periodic
    # extension would be printed as u(t, x)
    *(({"operator": f"{kind}:8", "x": x}, f"config error: key x: must lie in [0, 1], got {x}")
      for kind in ("sine_spectral", "laplacian1d") for x in ("nan", "inf", "1.75", "-0.25")),
    # the size rides on the operator kind, alpha on step_mode = uniform:ALPHA and
    # the output path on --out; the keys that once held them are refused like any
    # unknown key
    ({"c1": "1"}, "config error: line 6: unknown key 'c1'"),
    ({"operator": "sine_spectral:8", "m": "8"}, "config error: line 6: unknown key 'm'"),
    ({"operator": "laplacian1d:8", "modes": "8"}, "config error: line 6: unknown key 'modes'"),
    ({"m": "8"}, "config error: line 6: unknown key 'm'"),
    ({"modes": "8"}, "config error: line 6: unknown key 'modes'"),
    ({"alpha": "0.5"}, "config error: line 6: unknown key 'alpha'"),
    ({"out": "x.csv"}, "config error: line 6: unknown key 'out'"),
]


def _params(table):
    """The rows of table as pytest parameters, each under its id."""
    return [pytest.param(*row, id=id) for id, *row in table]


def _count_case(low, make, bad):
    """The bad count and the call that takes it."""
    v = low - 1 if bad == "below" else bad
    return v, lambda: make(v)


def _complex_case(call, kind):
    """The call fed the complex value and the complex weight of kind."""
    w = WeightFunction.from_callable(COMPLEX_WEIGHTS[kind])
    return lambda: call(COMPLEX[kind], w)


def _refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as e:
            call()
    return str(e.value)


def _config_id(keys):
    return "+".join(f"{k}={v}" for k, v in keys.items())


def solve_config(keys):
    """Exit code and stderr of solve on BASE with keys in the current directory,
    where FILES are written first."""
    for name, data in FILES.items():
        with open(name, "wb") as fh:
            fh.write(data)
    with open("refused.cfg", "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in {**BASE, **keys}.items())
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["solve", "--config", "refused.cfg"])
    return code, err.getvalue()


@pytest.mark.parametrize("field, low, make", _params(COUNTS))
@pytest.mark.parametrize("bad", BAD_COUNTS)
def test_count_refused(field, low, make, bad):
    v, call = _count_case(low, make, bad)
    assert _refused(call) == f"{field} must be an integer >= {low}, got {v}"


@pytest.mark.parametrize("field, call", _params(DATA))
@pytest.mark.parametrize("kind", list(COMPLEX))
def test_complex_data_refused(field, call, kind):
    message = _refused(_complex_case(call, kind))
    assert message.startswith(field + " ") and message.endswith(" must be real"), message


@pytest.mark.parametrize("field, call", _params(EMPTY))
def test_empty_data_refused(field, call):
    message = _refused(call)
    assert message.startswith(field + " ") and message.endswith(" must be nonempty"), message


@pytest.mark.parametrize("field, call", _params(VALUES))
def test_bad_value_refused(field, call):
    message = _refused(call)
    assert message.startswith(field + " "), message


@pytest.mark.parametrize("keys, message",
                         [pytest.param(*row, id=_config_id(row[0])) for row in CONFIGS])
def test_config_refused(tmp_path, monkeypatch, keys, message):
    # no second key is named: with a message that names its key, exactly one
    monkeypatch.chdir(tmp_path)
    code, err = solve_config(keys)
    assert code == 2 and err.startswith(message) and err.count("key ") <= 1, err


@pytest.mark.parametrize("call", _params(NUMBERS))
def test_numbers_accepted(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()


def cases():
    """(test ID, call) of every row above, in table order."""
    for (id, _, low, make), bad in itertools.product(COUNTS, BAD_COUNTS):
        yield f"{test_count_refused.__name__}[{bad}-{id}]", _count_case(low, make, bad)[1]
    for kind, (id, _, call) in itertools.product(COMPLEX, DATA):
        yield f"{test_complex_data_refused.__name__}[{kind}-{id}]", _complex_case(call, kind)
    for test, table in ((test_empty_data_refused, EMPTY), (test_bad_value_refused, VALUES)):
        for id, _, call in table:
            yield f"{test.__name__}[{id}]", call


def config_cases():
    """(test ID, keys) of every row of CONFIGS, in table order."""
    for keys, _ in CONFIGS:
        yield f"{test_config_refused.__name__}[{_config_id(keys)}]", keys
