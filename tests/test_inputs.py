"""The one list of bad inputs to the public constructors and entry points, a
row of a table below for each: a count must be an integer at or above its
bound; problem data must be real and nonempty; a value must lie in its range;
and a bool or a string is never read as a number. Each bad input raises
ValueError that starts with its field's name, and no warning comes first (a
ComplexWarning once cut complex data to its real part).

`python tools/fingerprint.py --refusals SRC_DIR` prints the outcome of every
row, labelled with its test ID (see cases() at the end), so that two trees can
be compared row by row."""

import itertools
import math
import warnings

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
    WeightFunction,
    WindowStep,
    gauss_legendre,
    make_self_adjoint_contour,
    nonlocal_integral,
    reference_solution,
    solve_at,
    solve_many,
)
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
]

# (id, the call that takes an int, a numpy scalar or a bool array: all are numbers)
NUMBERS = [
    ("problem-T=int", lambda: _problem(T=1)),
    ("solve_at-t=int64", lambda: _solve(np.int64(1))),
    ("solve_at-t=float32", lambda: _solve(np.float32(0.5))),
    ("bounds-rho0=int64", lambda: SpectralBounds(np.int64(2))),
    ("constant=int64", lambda: WeightFunction.constant(np.int64(0))),
    ("resolvent-z=int", lambda: OP.resolvent_apply(3, U0)),
    ("weight=bool-array", lambda: _solve(w=WeightFunction.from_callable(lambda s: s < 0.5))),
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
