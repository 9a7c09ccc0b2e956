"""Inscribed balls of congruent-ball intersections via enclosing-ball duality.

For a body ``K = intersection of B(o_i, R)`` the depth of a point x is
``min_i (R - |x - o_i|)``; maximizing it gives

    r(K) = R - rho,    rho = radius of the minimal enclosing ball of the o_i,

with the inscribed center at the enclosing-ball center and the touching
facets exactly the enclosing ball's support set.  The enclosing ball is
computed by Welzl's move-to-front recursion with exact circumball solves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import EmptyBodyError, InvalidParameterError, NumericError
from . import ball_polytope3 as bp3

TOUCH_TOL = 1e-9  # relative to the ball radius
GAP_TOL = 1e-9  # radians past pi that a planar angular gap may reach


@dataclass(frozen=True)
class MEBResult:
    center: np.ndarray
    radius: float
    support: tuple  # indices of points on the boundary, at most dim+1


@dataclass(frozen=True)
class InscribedBall:
    center: np.ndarray
    radius: float
    touching: tuple        # facet indices tangent to the ball
    touch_points: tuple    # one point per touching facet
    halfspace_ok: bool     # touch points not confined to an open half-space


def _circumball(points):
    """Smallest ball with all given points on its boundary, or None.

    At most d+1 affinely independent points; solved from the linear system
    ``(c - p0) . (p_k - p0) = |p_k - p0|^2 / 2``.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        return np.zeros(pts.shape[1] if pts.ndim == 2 else 3), 0.0
    if n == 1:
        return pts[0].copy(), 0.0
    base = pts[0]
    rows = pts[1:] - base
    rhs = 0.5 * np.sum(rows * rows, axis=1)
    gram = rows @ rows.T
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    center = base + coef @ rows
    return center, float(np.linalg.norm(pts[0] - center))


def _contains(center, radius, p, slack):
    return np.linalg.norm(p - center) <= radius + slack


def _ball_of_boundary(pts, slack):
    """Smallest ball containing <= d+2 points, by brute force over subsets.

    ``NumericError`` when no subset's circumball contains every point."""
    from itertools import combinations

    n = len(pts)
    best = None
    for size in range(1, min(n, pts.shape[1] + 1) + 1):
        for comb in combinations(range(n), size):
            cb = _circumball(pts[list(comb)])
            if cb is None:
                continue
            center, radius = cb
            if all(_contains(center, radius, pts[k], slack) for k in range(n)):
                if best is None or radius < best[1]:
                    best = (center, radius)
    if best is None:
        raise NumericError(
            f"no circumball of a subset of {n} boundary points contains them all")
    return best


def minimal_enclosing_ball(points):
    """Smallest enclosing ball of points in R^2 or R^3.

    Welzl's move-to-front recursion with a deterministic shuffle; the ball
    itself is unique, so only support-set ties depend on the ordering.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise InvalidParameterError("minimal_enclosing_ball needs at least one point")
    if pts.shape[1] not in (2, 3):
        raise InvalidParameterError(f"points must live in R^2 or R^3, got shape {pts.shape}")
    dim = pts.shape[1]
    order = list(range(len(pts)))
    random.Random(0x5EB).shuffle(order)
    scale = max(1.0, float(np.max(np.abs(pts))))
    slack = 1e-13 * scale

    def mtf(pool, boundary):
        if boundary:
            center, radius = _ball_of_boundary(pts[list(boundary)], slack)
        else:
            center, radius = np.zeros(dim), -1.0
        if len(boundary) == dim + 1:
            return center, radius, list(boundary)
        support = list(boundary)
        for pos, idx in enumerate(pool):
            if radius < 0.0 or not _contains(center, radius, pts[idx], slack):
                center, radius, support = mtf(pool[:pos], boundary + [idx])
        return center, radius, support

    center, radius, support = mtf(order, [])
    # Keep only support points genuinely on the boundary.
    support = tuple(sorted(i for i in support
                           if abs(np.linalg.norm(pts[i] - center) - radius)
                           <= 1e-10 * max(1.0, radius)))
    return MEBResult(center=center, radius=float(radius), support=support)


def halfspace_condition(touch_points, o):
    """True iff no open half-space through o contains every touch point.

    Equivalently the origin-shifted directions admit no strictly separating
    direction; by Gordan duality that is the feasibility of a convex
    combination of the unit directions summing to zero, checked as a small
    linear program.  In the plane that holds iff no angular gap between
    consecutive directions exceeds pi (by ``GAP_TOL``), read off the sorted
    angles with no LP.
    """
    pts = np.atleast_2d(np.asarray(touch_points, dtype=float))
    o = np.asarray(o, dtype=float)
    dirs = pts - o
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms < 1e-14):
        raise InvalidParameterError("touch points must be distinct from the center")
    if dirs.shape[1] == 2:
        angles = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
        gaps = np.diff(angles, append=angles[0] + 2.0 * math.pi)
        return bool(np.max(gaps) <= math.pi + GAP_TOL)
    dirs = dirs / norms[:, None]
    n, d = dirs.shape
    a_eq = np.vstack([dirs.T, np.ones((1, n))])
    b_eq = np.concatenate([np.zeros(d), [1.0]])
    res = linprog(c=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, None)] * n, method="highs")
    return bool(res.status == 0)


def inscribed_ball(polytope):
    """The unique inscribed ball of a ball polytope (or Euclidean arc polygon).

    Works on any object exposing ``lam`` and retained ``centers``, and
    reuses the enclosing ball a ``BallPolytope3`` kept from its build; the
    touching set uses the tolerance ``|R - |o - o_i| - r| < 1e-9 * R``.
    A ``BallPolytope3`` keeps its inscribed ball, so the half-space LP runs
    once per body.
    """
    kept = getattr(polytope, "_inscribed", None)
    if kept is not None:
        return kept
    ball = _inscribed_ball(polytope)
    if isinstance(polytope, bp3.BallPolytope3):
        object.__setattr__(polytope, "_inscribed", ball)  # a cache on a frozen body
    return ball


def _inscribed_ball(polytope):
    lam = polytope.lam
    radius = 1.0 / lam
    centers = np.atleast_2d(np.asarray(polytope.centers, dtype=float))
    meb = getattr(polytope, "_meb", None) or minimal_enclosing_ball(centers)
    r = radius - meb.radius
    if r <= 0.0:
        raise EmptyBodyError(
            f"enclosing radius {meb.radius:.12g} leaves no inscribed ball (R = {radius:.12g})"
        )
    o = meb.center
    touching = []
    touch_points = []
    for i, oc in enumerate(centers):
        gap = abs(radius - float(np.linalg.norm(o - oc)) - r)
        if gap < TOUCH_TOL * radius:
            touching.append(i)
            sep = o - oc
            ns = np.linalg.norm(sep)
            if ns < 1e-14:
                # Single-ball body: the facet touches everywhere; pick a
                # representative direction.
                u = np.zeros_like(o)
                u[-1] = 1.0
            else:
                u = sep / ns
            touch_points.append(o + r * u)
    if len(touching) == 1 and len(centers) == 1:
        ok = True
    else:
        ok = halfspace_condition(np.asarray(touch_points), o)
    return InscribedBall(center=o, radius=float(r), touching=tuple(touching),
                         touch_points=tuple(np.asarray(p) for p in touch_points),
                         halfspace_ok=ok)


def reduce_to_touching(polytope):
    """Drop every ball whose facet does not touch the inscribed ball.

    The result keeps the same inscribed ball and its surface area can only
    grow (strictly, when anything was dropped).  A body with every ball
    touching and no redundant or duplicate center is returned as it is: a
    build of its centers would give it again.
    """
    ball = inscribed_ball(polytope)
    if (len(ball.touching) == len(polytope.centers)
            and not polytope.build_report.redundant_indices):
        return polytope
    keep = polytope.centers[list(ball.touching)]
    return bp3.build(polytope.lam, keep)


def shrink_touching(polytope, s):
    """Rebuild with the same touch directions but inscribed radius s.

    Requires an already-reduced polytope and ``0 < s <= r(K)``: every center
    moves along its ray from the inscribed center to distance ``1/lam - s``.
    """
    ball = inscribed_ball(polytope)
    if len(ball.touching) != len(polytope.centers):
        raise InvalidParameterError("shrink_touching needs a polytope reduced to touching facets")
    if not 0.0 < s <= ball.radius * (1.0 + 1e-12):
        raise InvalidParameterError(
            f"shrink radius must lie in (0, r(K)] = (0, {ball.radius:.12g}], got {s}"
        )
    radius = 1.0 / polytope.lam
    o = ball.center
    rays = polytope.centers - o
    rays = rays / np.linalg.norm(rays, axis=1)[:, None]
    new_centers = o + (radius - s) * rays
    return bp3.build(polytope.lam, new_centers)


@dataclass(frozen=True)
class ReverseInradiusReport:
    r_body: float
    r_lens: float
    margin: float
    is_lens: bool
    passed: bool


def verify_reverse_inradius(polytope, tol=1e-9):
    """Check r(K) >= r(L) for the lens L of equal surface area."""
    from . import reference_bodies as ref

    area = bp3.surface_area(polytope)
    lens = ref.lens3_from_surface_area(polytope.lam, area)
    r_body = inscribed_ball(polytope).radius
    margin = r_body - lens.inradius
    is_lens = len(polytope.facets) <= 2
    return ReverseInradiusReport(r_body=r_body, r_lens=lens.inradius,
                                 margin=margin, is_lens=is_lens,
                                 passed=margin >= -tol)
