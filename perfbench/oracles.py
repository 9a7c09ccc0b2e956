"""Reference computations the benchmark makes apart from the program.

Monte Carlo estimates use a jittered grid: one uniform point in each cell
of an n^d grid over a box that holds the body.  The reported sigma is the
standard error of plain Monte Carlo with the same number of points, which
bounds the error of the stratified estimate from above, so a 4-sigma test
on a correct program almost never fails while a 1% volume error still
exceeds it.  Points are drawn one grid slab at a time to keep memory small
next to the program's own.
"""

from __future__ import annotations

import math

import numpy as np


def _jittered_slabs(rng, lo, hi, n):
    """Yield the points of an n^d jittered grid over the box, one slab at a time."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = len(lo)
    h = (hi - lo) / n
    rest = np.stack(np.meshgrid(*([np.arange(n)] * (d - 1)), indexing="ij"),
                    axis=-1).reshape(-1, d - 1)
    for i in range(n):
        idx = np.concatenate([np.full((len(rest), 1), i), rest], axis=1)
        yield lo + (idx + rng.random(idx.shape)) * h


def _estimate(rng, lo, hi, n, weight):
    """Integral of weight(points) over the box, with the plain-MC sigma."""
    box = float(np.prod(np.asarray(hi) - np.asarray(lo)))
    total = total_sq = 0.0
    count = 0
    for pts in _jittered_slabs(rng, lo, hi, n):
        w = weight(pts)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        count += len(w)
    mean = total / count
    var = max(0.0, total_sq / count - mean * mean)
    return box * mean, box * math.sqrt(var / count)


def ball_box(centers, radius):
    """Box holding the intersection of the balls B(c_i, radius)."""
    centers = np.asarray(centers, dtype=float)
    return centers.max(axis=0) - radius, centers.min(axis=0) + radius


def mc_ball_intersection(rng, centers, radius, n):
    """Volume (3-D) or area (2-D) of the intersection of congruent balls."""
    centers = np.asarray(centers, dtype=float)
    lo, hi = ball_box(centers, radius)
    if np.any(hi <= lo):
        return 0.0, 0.0

    def inside(pts):
        ok = np.ones(len(pts), dtype=bool)
        for c in centers:
            ok &= np.sum((pts - c) ** 2, axis=1) <= radius * radius
        return ok.astype(float)

    return _estimate(rng, lo, hi, n, inside)


def geodesic_radius(curvature, lam):
    """Radius of the circle of geodesic curvature lam: cot rho = lam on the
    unit sphere, coth rho = lam in the hyperbolic plane."""
    if curvature > 0.0:
        return math.atan(1.0 / lam)
    return math.atanh(1.0 / lam)


def metric_distance(curvature, pts, q):
    """Distance from chart points to q: stereographic chart of the unit
    sphere (curvature +1) or Poincare disk (curvature -1)."""
    pts = np.atleast_2d(pts)
    q = np.asarray(q, dtype=float)
    dd = np.sum((pts - q) ** 2, axis=1)
    s = np.sum(pts * pts, axis=1)
    qq = float(q @ q)
    if curvature > 0.0:
        return np.arccos(np.clip(1.0 - 2.0 * dd / ((1.0 + s) * (1.0 + qq)), -1.0, 1.0))
    return np.arccosh(np.maximum(1.0, 1.0 + 2.0 * dd / ((1.0 - s) * (1.0 - qq))))


def _chart_interval(curvature, q, rho):
    """Chart center and radius of the metric disk B(q, rho).

    The disk is symmetric about the line through the chart origin and q,
    so its chart circle has a diameter on that line, between the chart
    points at metric distance |q| - rho and |q| + rho from the origin.
    """
    q = np.asarray(q, dtype=float)
    a = float(np.linalg.norm(q))
    u = q / a if a > 0.0 else np.array([1.0, 0.0])
    to_chart = math.tan if curvature > 0.0 else math.tanh
    from_chart = math.atan if curvature > 0.0 else math.atanh
    dist = 2.0 * from_chart(a)
    near = to_chart(0.5 * (dist - rho))
    far = to_chart(0.5 * (dist + rho))
    return 0.5 * (near + far) * u, 0.5 * (far - near)


def mc_geodesic_polygon_area(rng, curvature, centers, rho, n):
    """Area of the intersection of metric disks B(q_i, rho) in M^2(+-1).

    Points of the conformal chart are weighted by the squared conformal
    factor 2 / (1 + c |z|^2).
    """
    lo = np.full(2, -np.inf)
    hi = np.full(2, np.inf)
    for q in centers:
        c, r = _chart_interval(curvature, q, rho)
        lo = np.maximum(lo, c - r)
        hi = np.minimum(hi, c + r)

    def weight(pts):
        ok = np.ones(len(pts), dtype=bool)
        for q in centers:
            ok &= metric_distance(curvature, pts, q) <= rho
        s = np.sum(pts * pts, axis=1)
        return np.where(ok, (2.0 / (1.0 + curvature * s)) ** 2, 0.0)

    return _estimate(rng, lo, hi, n, weight)


def random_rotation(rng):
    """Uniform random rotation of R^3 (QR of a Gaussian matrix, sign-fixed)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q
