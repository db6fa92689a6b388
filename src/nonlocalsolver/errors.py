"""Exception types, and the four input rules shared across the package."""

import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration input (bad key, bad value, bad file)."""


class ExistenceError(RuntimeError):
    """The solvability condition for the nonlocal problem is violated."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (singular solve, no convergence)."""


def real_number(name, v):
    """float(v) for a real number v in the float range; a 0-d array is its one element.
    numbers.Real leaves out numpy's bool, Decimal and complex; float skips the slow ABC."""
    if isinstance(v, np.ndarray) and not v.ndim:
        v = v[()]
    if isinstance(v, (float, numbers.Real)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:  # an int past the float range
            pass
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real")
    shown = v if isinstance(v, np.ndarray) else repr(v)
    raise ValueError(f"{name} must be a real number in the float range, got {shown}")


def positive_finite(name, v):
    if not (0.0 < real_number(name, v) < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {v}")
    return v


def count(name, v, low):
    if isinstance(v, bool) or not (isinstance(v, (int, np.integer)) and v >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {v}")
    return v


def real_array(name, v):
    # numpy's cast would only warn and keep the real part, and parse a string;
    # the folded sum needs real numbers
    a = np.asarray(v)
    if not a.ndim or a.dtype.kind not in "biuf":  # a bool array of ndim >= 1 is numpy's 0 and 1
        return np.asarray(real_number(name, v))  # a real 0-d v, or a refusal
    return np.asarray(a, dtype=float)
