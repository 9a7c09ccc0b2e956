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
    """Gauss-Legendre integral of the vectorized ``f`` over [a, b], doubling
    the node count from ``n`` until successive values differ by at most
    ``rel_tol * max(1, |value|)``; ``NumericError`` past ``cap`` nodes."""
    prev = None
    while True:
        xs, ws = nodes(n)
        val = 0.5 * (b - a) * float(np.sum(ws * f(0.5 * (b - a) * xs + 0.5 * (a + b))))
        if prev is not None and abs(val - prev) <= rel_tol * max(1.0, abs(val)):
            return val
        if n >= cap:
            raise NumericError(f"Gauss-Legendre on [{a!r}, {b!r}] did not settle "
                               f"to {rel_tol:g} with {cap} nodes")
        prev = val
        n *= 2
