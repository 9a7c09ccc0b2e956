"""Gauss-Legendre quadrature: cached nodes and one node-doubling loop."""

from functools import lru_cache

import numpy as np

from .errors import NumericError


@lru_cache(maxsize=32)
def nodes(n):
    xs, ws = np.polynomial.legendre.leggauss(n)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def integrate(f, a, b, n, rel_tol, cap):
    """Gauss-Legendre integrals of the vectorized ``f`` over [a, b].

    ``a`` and ``b`` are floats or equal-length 1-D arrays of interval ends.
    Each interval doubles its node count from ``n`` until successive values
    differ by at most ``rel_tol * max(1, |value|)``; ``NumericError`` names
    the first interval still unsettled past ``cap`` nodes.  Every level
    evaluates ``f`` once, on the nodes of all unsettled intervals as one
    flat array.  Returns a float for float ends, else an array of values.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    values = np.empty(len(a))
    active = np.arange(len(a))
    prev = None
    while active.size:
        xs, ws = nodes(n)
        x = half[active, None] * xs + mid[active, None]
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        val = half[active] * np.sum(ws * fx, axis=1)
        if prev is not None:
            settled = np.abs(val - prev) <= rel_tol * np.maximum(1.0, np.abs(val))
            values[active[settled]] = val[settled]
            active, val = active[~settled], val[~settled]
        if active.size and n >= cap:
            k = active[0]
            raise NumericError(f"Gauss-Legendre on [{float(a[k])!r}, {float(b[k])!r}] did not "
                               f"settle to {rel_tol:g} with {cap} nodes")
        prev = val
        n *= 2
    return float(values[0]) if scalar else values
