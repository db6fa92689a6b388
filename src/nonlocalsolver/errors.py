"""Exception types, and the rule 0 < v < inf (NaN refused), shared across the package."""

import math


class ConfigError(ValueError):
    """Invalid configuration input (bad key, bad value, bad file)."""


class ExistenceError(RuntimeError):
    """The solvability condition for the nonlocal problem is violated."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (singular solve, no convergence)."""


def positive_finite(name, v):
    if not (0.0 < v < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {v}")
    return v
