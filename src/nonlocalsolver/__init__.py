"""Contour-quadrature solver for the evolution equation u' + Au = 0 under
the integral nonlocal condition u(0) + int_0^T w(s)u(s)ds = u0."""

# the names outside __all__ stay importable from here for code that already
# imports them, but only the names README.md documents are public
from .contour import (
    Contour,
    PathPoint,
    SpectralBounds,
    contour_point,
    make_contour,
    make_self_adjoint_contour,
)
from .errors import ConfigError, ExistenceError, NumericalError
from .operators import (
    DiagonalOperator,
    Laplacian1D,
    SectorialOperator,
    SineSpectralOperator,
    make_laplacian1d,
    poly_x2_1mx_coefficients,
)
from .oracle import reference_solution
from .quadrature import GaussRule, WeightFunction, gauss_legendre, nonlocal_integral
from .solver import (
    CalibratedStep,
    ConditionReport,
    FixedStep,
    NonlocalProblem,
    SolutionSample,
    SolverConfig,
    UniformStep,
    WindowStep,
    check_existence,
    solve_at,
    solve_many,
)

__version__ = "0.1.0"

__all__ = [
    "CalibratedStep", "ConditionReport", "ConfigError", "DiagonalOperator",
    "ExistenceError", "FixedStep", "Laplacian1D", "NonlocalProblem",
    "NumericalError", "SectorialOperator", "SineSpectralOperator",
    "SolutionSample", "SolverConfig", "SpectralBounds", "UniformStep",
    "WeightFunction", "WindowStep", "check_existence", "reference_solution",
    "solve_at", "solve_many",
]
