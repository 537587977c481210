"""Small numerical helpers shared across the package."""

import itertools

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def is_finite_real(value):
    """True for a finite Python or numpy real number, bools excluded."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and np.isfinite(value))


def is_integer(value):
    """True for a Python or numpy integer, bools excluded."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def real_array(value, name):
    """``value`` as a float64 array, a float64 array passing as it is.

    Raises ValueError naming ``name`` unless ``value`` is a regular nested
    list (or array) of real numbers: a bool, a string or None among its
    entries is rejected, not read as 1, a number or NaN."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} must be an array of numbers: {err}") from None
    if arr is value:
        return arr
    entries = [value]
    for _ in range(arr.ndim):
        entries = itertools.chain.from_iterable(entries)
    for entry in set(map(type, entries)):
        if not issubclass(entry, (int, float, np.integer, np.floating)) or issubclass(entry, bool):
            raise ValueError(f"{name} must hold only numbers, got an entry of type "
                             f"{entry.__name__}")
    return arr


def logsumexp(a, axis):
    """Stabilized log(sum(exp(a))) along the integer ``axis``: an array with
    that axis removed."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m, axis=axis)


def trapezoid_weights(x):
    """Quadrature weights w such that sum(w * f) == np.trapezoid(f, x)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("grid must be a 1-D array with at least two points")
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w


def normal_log_pdf(x, mean, std):
    """Log density of a normal distribution, broadcasting over all arguments."""
    z = (np.asarray(x, dtype=float) - mean) / std
    return -0.5 * (z * z + LOG_2PI) - np.log(std)
