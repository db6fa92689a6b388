"""Contour-quadrature solver for the evolution equation u' + Au = 0 under
the integral nonlocal condition u(0) + int_0^T w(s)u(s)ds = u0."""

from .contour import (
    Contour,
    PathPoint,
    SpectralBounds,
    contour_point,
    make_contour,
    make_self_adjoint_contour,
    shifted_axes,
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
from .oracle import ModeProblem, mode_reference, reference_solution
from .quadrature import GaussRule, WeightFunction, gauss_legendre, nonlocal_integral
from .solver import (
    CalibratedStep,
    ConditionReport,
    FixedStep,
    LargeTStep,
    NonlocalProblem,
    SolutionSample,
    SolverConfig,
    UniformStep,
    check_existence,
    solve_at,
    solve_many,
)

__version__ = "0.1.0"

__all__ = [
    "CalibratedStep", "ConditionReport", "ConfigError", "Contour",
    "DiagonalOperator", "ExistenceError", "FixedStep", "GaussRule",
    "Laplacian1D", "LargeTStep", "ModeProblem", "NonlocalProblem",
    "NumericalError", "PathPoint", "SectorialOperator", "SineSpectralOperator",
    "SolutionSample", "SolverConfig", "SpectralBounds", "UniformStep",
    "WeightFunction", "check_existence", "contour_point",
    "gauss_legendre", "make_contour", "make_laplacian1d",
    "make_self_adjoint_contour", "mode_reference",
    "nonlocal_integral", "poly_x2_1mx_coefficients", "reference_solution",
    "shifted_axes", "solve_at", "solve_many",
]
