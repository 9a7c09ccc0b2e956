"""Inscribed balls of congruent-ball intersections via enclosing-ball duality.

For a body ``K = intersection of B(o_i, R)`` the depth of a point x is
``min_i (R - |x - o_i|)``; maximizing it gives

    r(K) = R - rho,    rho = radius of the minimal enclosing ball of the o_i,

with the inscribed center at the enclosing-ball center and the touching
facets exactly the enclosing ball's support set.  The enclosing ball, in
any dimension, comes from Welzl's move-to-front recursion (Welzl 1991):
each basis of at most d+1 support points is extended one point at a time
in closed form (Gaertner, "Fast and robust smallest enclosing balls",
ESA 1999), with no subset enumeration and no LP.  The final basis carries
its barycentric multipliers mu >= 0, sum mu = 1, sum mu_k p_k = center:
the KKT certificate of the ball, and, since then
sum mu_k (center - p_k) = 0, the Gordan certificate that the touch
directions of the inscribed ball lie in no open half-space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub

import numpy as np

from .errors import EmptyBodyError, InvalidParameterError, NumericError
from . import ball_polytope3 as bp3

TOUCH_TOL = 1e-9  # relative to the ball radius
# How far from the origin the enclosing-ball center of unit directions may
# lie when their hull still counts as holding the origin.
CENTER_TOL = 1e-9
# How negative a multiplier may be in a basis that certifies its ball.
MU_TOL = 1e-12
# A new basis point whose offset from the basis's affine hull has squared
# length at or below this fraction of its squared offset from the first
# basis point (an angle of 1e-12) is affinely dependent on the basis.
_DEPENDENT = 1e-24


@dataclass(frozen=True)
class MEBResult:
    center: np.ndarray
    radius: float
    support: tuple      # indices of the basis points, at most dim+1, increasing
    multipliers: tuple  # mu_k >= 0 per support point, sum 1, sum mu_k p_k = center

    def remapped(self, kept):
        """The same ball over the points ``kept`` (increasing indices) of
        its point set, or None when a support point is not kept."""
        where = {k: n for n, k in enumerate(kept)}
        if not all(k in where for k in self.support):
            return None
        return MEBResult(center=self.center, radius=self.radius,
                         support=tuple(where[k] for k in self.support),
                         multipliers=self.multipliers)


@dataclass(frozen=True)
class InscribedBall:
    center: np.ndarray
    radius: float
    touching: tuple        # facet indices tangent to the ball
    touch_points: tuple    # one point per touching facet
    halfspace_ok: bool     # touch points not confined to an open half-space


class _Basis:
    """Points ``q_0..q_k`` (indices ``index``) and the ball through them
    centered in their affine hull.  With v_i = q_i - q_0 = sum_j L_ij e_j
    (``lower`` rows, ``frame`` the orthonormal e_j), the center is
    q_0 + sum_j y_j e_j, where L y = (|v_i|^2 / 2) puts it as far from
    every q_i as from q_0.  Never changed after it is made."""

    __slots__ = ("index", "origin", "frame", "lower", "y", "center", "radius")

    def __init__(self, index, origin, frame, lower, y, center, radius):
        self.index = index
        self.origin = origin  # q_0
        self.frame = frame
        self.lower = lower
        self.y = y
        self.center = center
        self.radius = radius


def _extend_basis(basis, k, p):
    """``basis`` (None for the empty one) with point ``k`` at ``p`` added,
    in O(k d) operations; None when ``p`` is affinely dependent on the
    basis points."""
    if basis is None:
        p = tuple(p)
        return _Basis((k,), p, (), (), (), p, 0.0)
    v = list(map(sub, p, basis.origin))
    vv = sum(map(mul, v, v))
    w, row = v, []
    for e in basis.frame:  # modified Gram-Schmidt
        c = sum(map(mul, w, e))
        row.append(c)
        w = [a - c * b for a, b in zip(w, e)]
    ww = sum(map(mul, w, w))
    if ww <= _DEPENDENT * vv:
        return None
    norm = math.sqrt(ww)
    e = tuple([x / norm for x in w])
    yk = (0.5 * vv - sum(map(mul, row, basis.y))) / norm
    center = tuple([c + yk * x for c, x in zip(basis.center, e)])
    return _Basis(basis.index + (k,), basis.origin, basis.frame + (e,),
                  basis.lower + (tuple(row) + (norm,),), basis.y + (yk,),
                  center, math.dist(center, basis.origin))


def _multipliers(basis):
    """Barycentric coordinates of the basis ball's center over its points:
    mu = (1 - sum x, x) with L^T x = y, by back substitution."""
    n = len(basis.y)
    x = [0.0] * n
    for i in reversed(range(n)):
        s = basis.y[i] - sum(basis.lower[t][i] * x[t] for t in range(i + 1, n))
        x[i] = s / basis.lower[i][i]
    return [1.0 - math.fsum(x)] + x


def _move_to_front_ball(pts, slack):
    """The last basis of Welzl's move-to-front recursion over the rows of
    ``pts`` (a list of coordinate lists), in index order; in exact
    arithmetic its ball is the smallest one holding every point."""
    dim = len(pts[0])
    order = list(range(len(pts)))
    current = None  # the basis whose ball was computed last

    def mtf(end, basis):
        # The smallest ball holding pts[order[:end]] with the basis points
        # on its boundary; each point found outside joins the basis and
        # moves to the front.
        nonlocal current
        for i in range(end):
            k = order[i]
            if current is not None and math.dist(pts[k], current.center) <= current.radius + slack:
                continue
            grown = _extend_basis(basis, k, pts[k])
            if grown is None:
                continue
            current = grown
            if len(grown.index) <= dim:
                mtf(i, grown)
            order.insert(0, order.pop(i))

    mtf(len(pts), None)
    return current


def minimal_enclosing_ball(points):
    """Smallest enclosing ball of points in R^d, with its KKT certificate.

    Welzl's move-to-front recursion over the points in index order, each
    basis solved in closed form by ``_extend_basis``.  A point counts as
    enclosed within 1e-13 of the largest coordinate magnitude (at least
    1), so points that near the sphere decide nothing; when that leaves a
    final basis that does not certify (such points lie on one side of it
    only), the recursion runs once more at 1e-16, which tells them apart.
    The support is the final basis and ``multipliers`` its barycentric
    coordinates.  ``NumericError`` when no basis certifies: a multiplier
    below ``-MU_TOL``, or a point more than 1e-13 outside the ball.
    Points appended after the others that the ball of the others holds
    leave the traversal, and so every bit of the result, unchanged.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0 or pts.ndim != 2 or pts.shape[1] == 0:
        raise InvalidParameterError(
            f"minimal_enclosing_ball needs an (m, d) array with m, d >= 1, got shape {pts.shape}")
    rows = pts.tolist()
    slack = 1e-13 * max(1.0, float(np.max(np.abs(pts))))
    for tol in (slack, 1e-3 * slack):
        basis = _move_to_front_ball(rows, tol)
        if basis is None:
            raise NumericError(f"no basis of {len(pts)} points could be formed")
        mu = _multipliers(basis)
        center = np.asarray(basis.center)
        outside = float(np.max(np.linalg.norm(pts - center, axis=1))) - basis.radius
        if min(mu) >= -MU_TOL and outside <= slack:
            ranked = sorted(zip(basis.index, mu))
            return MEBResult(center=center, radius=basis.radius,
                             support=tuple(k for k, _ in ranked),
                             multipliers=tuple(m for _, m in ranked))
    raise NumericError(
        f"no basis certifies the enclosing ball of {len(pts)} points: basis "
        f"{basis.index} has multipliers {mu} and leaves a point {outside:.3g} outside")


def halfspace_condition(touch_points, o):
    """True iff no open half-space through o contains every touch point.

    Equivalently the unit directions u_i from o to the touch points hold
    the origin in their convex hull (Gordan), in any dimension.  That holds
    iff the minimal enclosing ball of the u_i is centered at the origin
    (within ``CENTER_TOL``): its center c lies in conv(u_i), so c != 0 when
    the origin is outside; and if sum mu_i u_i = 0 with mu a convex
    combination, every ball B(c, rho) holding the u_i has
    rho^2 >= sum mu_i |u_i - c|^2 = 1 + |c|^2, least at c = 0.
    """
    pts = np.atleast_2d(np.asarray(touch_points, dtype=float))
    o = np.asarray(o, dtype=float)
    dirs = pts - o
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms < 1e-14):
        raise InvalidParameterError("touch points must be distinct from the center")
    ball = minimal_enclosing_ball(dirs / norms[:, None])
    return bool(np.linalg.norm(ball.center) <= CENTER_TOL)


def inscribed_ball(polytope):
    """The unique inscribed ball of a ball polytope (or Euclidean arc polygon).

    Works on any object exposing ``lam`` and retained ``centers``, and
    reuses the enclosing ball a ``BallPolytope3`` kept from its build; the
    touching set uses the tolerance ``|R - |o - o_i| - r| < 1e-9 * R``.
    ``halfspace_ok`` is read off the enclosing ball's multipliers, with no
    LP: its support touches and sum mu_k (o - o_k) = 0 with mu >= 0.
    A ``BallPolytope3`` keeps its inscribed ball.
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
    meb = getattr(polytope, "_meb", None)
    if meb is None:
        meb = minimal_enclosing_ball(centers)
        if isinstance(polytope, bp3.BallPolytope3):
            object.__setattr__(polytope, "_meb", meb)  # shared with the erosion
    r = radius - meb.radius
    if r <= 0.0:
        raise EmptyBodyError(
            f"enclosing radius {meb.radius:.12g} leaves no inscribed ball (R = {radius:.12g})"
        )
    o = meb.center
    sep = o - centers
    # Each row's np.linalg.norm: the same BLAS dot, one row per matrix product.
    dist = np.sqrt((sep[:, None, :] @ sep[:, :, None])[:, 0, 0])
    touching = np.flatnonzero(np.abs(radius - dist - r) < TOUCH_TOL * radius)
    single = dist[touching] < 1e-14
    u = sep[touching] / np.where(single, 1.0, dist[touching])[:, None]
    # Single-ball body: the facet touches everywhere; pick a representative
    # direction.
    u[single] = np.eye(len(o))[-1]
    touching = tuple(touching.tolist())
    ok = min(meb.multipliers) >= -MU_TOL and set(meb.support) <= set(touching)
    return InscribedBall(center=o, radius=float(r), touching=touching,
                         touch_points=tuple(o + r * u), halfspace_ok=ok)


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
    is_lens = len(polytope.centers) <= 2
    return ReverseInradiusReport(r_body=r_body, r_lens=lens.inradius,
                                 margin=margin, is_lens=is_lens,
                                 passed=margin >= -tol)
