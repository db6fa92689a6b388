"""One sweep over the input rules of the public constructors and entry points:
a count must be an integer at or above its bound, and problem data must be
real and nonempty. Each bad input raises ValueError that starts with its
field's name, and no warning comes first (a ComplexWarning once cut complex
data to its real part)."""

import warnings

import numpy as np
import pytest

from nonlocalsolver import (
    DiagonalOperator,
    Laplacian1D,
    NonlocalProblem,
    SineSpectralOperator,
    SolverConfig,
    WeightFunction,
    gauss_legendre,
    reference_solution,
    solve_at,
)
from nonlocalsolver.oracle import weight_laplace_integral

# (field, lowest admitted value, the call that takes the count)
COUNTS = [
    ("n", 0, lambda v: SolverConfig(n=v)),
    ("N", 0, lambda v: SolverConfig(N=v)),
    ("m", 2, Laplacian1D),
    ("modes", 1, SineSpectralOperator),
    ("n", 0, gauss_legendre),
]

COMPLEX = {"1j": 1j, "complex128": np.complex128(0.5 + 1j),
           "array": np.array([0.5, 0.3 + 1j])}
# a complex weight of each kind, below the a_I = sqrt(2) of OP and the 1/T of T
COMPLEX_WEIGHTS = {"1j": lambda s: 0.3j, "complex128": lambda s: np.complex128(0.15 + 0.3j),
                   "array": lambda s: 0.3 * np.exp(1j * s)}
OP, T, U0 = DiagonalOperator([2.0, 5.0]), 1.0, [1.0, 0.0]


# (field, the call that takes real data, fed a complex value v or weight w)
DATA = [
    ("u0", lambda v, w: NonlocalProblem(op=OP, T=T, w=WeightFunction.zero(), u0=v)),
    ("u0", lambda v, w: reference_solution(OP, WeightFunction.zero(), T, v, 0.5)),
    ("eigenvalues", lambda v, w: DiagonalOperator(v)),
    ("weight constant", lambda v, w: WeightFunction.constant(v)),
    ("weight polynomial coefficients",
     lambda v, w: WeightFunction.polynomial(np.atleast_1d(v))),
    ("weight", lambda v, w: solve_at(NonlocalProblem(op=OP, T=T, w=w, u0=U0),
                                     SolverConfig(n=8, N=16), 0.5)),
    ("weight", lambda v, w: weight_laplace_integral(w, 2.0, T)),
    ("weight", lambda v, w: reference_solution(OP, w, T, U0, 0.5)),
]

# (field, the call that takes an empty sequence)
EMPTY = [
    ("lam", lambda: weight_laplace_integral(WeightFunction.cos(), [], T)),
    ("weight polynomial coefficients", lambda: WeightFunction.polynomial([])),
]


def _refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as e:
            call()
    return str(e.value)


@pytest.mark.parametrize("field, low, make", COUNTS,
                         ids=["config-n", "config-N", "laplacian-m", "sine-modes", "gauss-n"])
@pytest.mark.parametrize("bad", [True, 2.5, "below"])
def test_count_refused(field, low, make, bad):
    v = low - 1 if bad == "below" else bad
    assert _refused(lambda: make(v)) == f"{field} must be an integer >= {low}, got {v}"


@pytest.mark.parametrize("field, call", DATA,
                         ids=["problem-u0", "reference-u0", "eigenvalues", "constant",
                              "polynomial", "solve_at-weight", "laplace-weight",
                              "reference-weight"])
@pytest.mark.parametrize("kind", list(COMPLEX))
def test_complex_data_refused(field, call, kind):
    w = WeightFunction.from_callable(COMPLEX_WEIGHTS[kind])
    message = _refused(lambda: call(COMPLEX[kind], w))
    assert message.startswith(field + " ") and message.endswith(" must be real"), message


@pytest.mark.parametrize("field, call", EMPTY, ids=["laplace-lam", "polynomial"])
def test_empty_data_refused(field, call):
    message = _refused(call)
    assert message.startswith(field + " ") and message.endswith(" must be nonempty"), message
