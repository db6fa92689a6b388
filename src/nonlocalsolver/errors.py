"""Exception types, and the three input rules shared across the package."""

import math

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration input (bad key, bad value, bad file)."""


class ExistenceError(RuntimeError):
    """The solvability condition for the nonlocal problem is violated."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (singular solve, no convergence)."""


def positive_finite(name, v):
    if isinstance(v, np.ndarray):  # checked at its extremes: a NaN anywhere makes both NaN
        if v.size == 0:
            raise ValueError(f"{name} must be nonempty")
        positive_finite(name, v.min())
        positive_finite(name, v.max())
    elif not (0.0 < v < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {v}")
    return v


def count(name, v, low):
    if isinstance(v, bool) or not (isinstance(v, (int, np.integer)) and v >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {v}")
    return v


def real_array(name, v):
    # numpy's cast would only warn and keep the real part; the folded sum needs real data
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real")
    return np.asarray(v, dtype=float)
