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
    elif isinstance(v, bool) or not (0.0 < v < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {v}")
    return v


def count(name, v, low):
    if isinstance(v, bool) or not (isinstance(v, (int, np.integer)) and v >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {v}")
    return v


def real_array(name, v):
    # numpy's cast would only warn and keep the real part, read a bool as 1 and
    # parse a string; the folded sum needs real numbers
    a = np.asarray(v)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} must be real")
    if isinstance(v, bool) or a.dtype.kind not in "biuf":  # a bool array is numpy's 0 and 1
        raise ValueError(f"{name} must be a real number or array, got {v!r}")
    return np.asarray(a, dtype=float)
