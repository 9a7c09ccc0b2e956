"""Radial projection onto the inscribed sphere and facet ratio bounds.

Every touching facet i lies on a supporting sphere whose center o_i sits on
the ray from the inscribed center ``o`` through the touch point, at
distance ``e = R - r`` from o.  When the balls i and j both touch the
inscribed ball, their common edge lies in the bisector plane of o_i and
o_j, which passes through o because |o - o_i| = |o - o_j| = e.  So on a
body whose balls all touch, every projected edge is a great-circle arc,
and the radial projection of facet i onto the inscribed sphere is the
spherical polygon ``{u : u . (o_j - o_i) >= 0 for all j}``: the spherical
Voronoi cell of the touch direction ``(o - o_i) / e`` among all the touch
directions.  ``projected_facet_area`` measures it by Gauss-Bonnet and
requires that precondition of every edge of the facet.

The area-element pullback of the projection restricted to the supporting
sphere is ``g(t) = rho(t)^2 / (r^2 cos beta)`` with ``rho`` the ray length
and ``beta`` the incidence angle; it is 1 on the axis and strictly
increasing, which drives the per-facet ratio bound
``|F_i| / |projected F_i| <= (|boundary of matched lens|/2) / (2 pi r^2)``.
Its integral is a closed form: the cone of polar angle t about the touch
axis cuts from the supporting sphere the cap of angle phi about o_i with
``R cos(phi) = e + rho(t) cos(t)``, so
``r^2 * integral_0^t g(s) sin(s) ds = R^2 (1 - cos phi)``, and the
conical-sector measures need no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ball_polytope3 as bp3
from ._circular import TWO_PI
from .errors import InvalidParameterError
from .inradius import inscribed_ball

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class RadialChart:
    """Polar chart of one touching facet about its touch axis."""

    center: np.ndarray        # inscribed center o
    inradius: float
    facet_index: int
    touch_point: np.ndarray
    axis: np.ndarray          # unit vector from o toward the touch point
    sphere_center: np.ndarray
    ball_radius: float

    @property
    def center_offset(self):
        return self.ball_radius - self.inradius  # |o - o_i|

    def density(self, t):
        """Jacobian g(t) of the radial projection, per unit inscribed-sphere area."""
        e = self.center_offset
        c = np.cos(t)
        root = np.sqrt(e * e * c * c + self.ball_radius ** 2 - e * e)
        rho = -e * c + root  # distance from o to the supporting sphere
        return rho * rho / (self.inradius ** 2 * (root / self.ball_radius))


def chart_for_facet(polytope, facet_index, ball=None):
    """Radial chart of a facet; the facet must touch the inscribed ball."""
    if ball is None:
        ball = inscribed_ball(polytope)
    if facet_index not in ball.touching:
        raise InvalidParameterError(
            f"facet {facet_index} does not touch the inscribed ball"
        )
    radius = polytope.radius
    o_i = polytope.centers[facet_index]
    offset = np.linalg.norm(ball.center - o_i)
    if offset < 1e-14:
        axis = np.array([0.0, 0.0, 1.0])  # single-ball body: any axis works
    else:
        axis = (ball.center - o_i) / offset
    return RadialChart(center=ball.center, inradius=ball.radius,
                       facet_index=facet_index,
                       touch_point=ball.center + ball.radius * axis,
                       axis=axis, sphere_center=o_i, ball_radius=radius)


def radial_project(chart, q):
    """Central projection of q onto the inscribed sphere."""
    q = np.asarray(q, dtype=float)
    d = q - chart.center
    norm = np.linalg.norm(d)
    if norm < 1e-14:
        raise InvalidParameterError("cannot project the inscribed center itself")
    return chart.center + chart.inradius * d / norm


def projected_facet_area(polytope, chart, facet=None):
    """Area of the facet's radial projection on the inscribed sphere.

    The projection is a spherical polygon with great-circle sides (see the
    module docstring), so Gauss-Bonnet gives
    ``r^2 (2 pi (2 - #loops) - sum of exterior angles)``.  The side of edge
    (i, j) lies in the plane through o with normal ``circle_axis``, negated
    where the loop runs the edge backward; the exterior angle at a vertex v
    is the signed angle, about u = (v - o)/|v - o|, from the incoming
    side's normal to the outgoing side's.  A full circle adds no angle.
    ``InvalidParameterError`` when an edge plane misses o by more than
    ``1e-9 R``, that is, when the neighbouring ball does not touch the
    inscribed ball too.
    """
    if facet is None:
        facet = polytope.facets[chart.facet_index]
    o = chart.center.tolist()
    tol = 1e-9 * polytope.radius
    turn = 0.0
    for loop in facet.boundary_loops:
        normals = []
        for eidx, forward in loop:
            edge = polytope.edges[eidx]
            axis = edge.circle_axis.tolist()
            miss = bp3._dot([c - x for c, x in zip(edge.circle_center.tolist(), o)], axis)
            if abs(miss) > tol:
                raise InvalidParameterError(
                    f"the plane of edge {eidx} misses the inscribed center by {miss!r}, "
                    f"so one of balls {edge.pair} does not touch the inscribed ball")
            normals.append(axis if forward else [-x for x in axis])
        for idx, (eidx, forward) in enumerate(loop):
            edge = polytope.edges[eidx]
            if edge.full_circle:
                continue
            vid = edge.end_vertex if forward else edge.start_vertex
            u = [p - c for p, c in zip(polytope.vertices[vid].position.tolist(), o)]
            n_in, n_out = normals[idx], normals[(idx + 1) % len(loop)]
            turn += math.atan2(bp3._dot(bp3._cross(n_in, n_out), u) / math.sqrt(bp3._dot(u, u)),
                               bp3._dot(n_in, n_out))
    return chart.inradius ** 2 * (TWO_PI * (2 - len(facet.boundary_loops)) - turn)


@dataclass(frozen=True)
class Claim3Report:
    projected_areas: tuple
    total: float
    sphere_area: float
    rel_defect: float
    passed: bool


def _require_all_touching(polytope):
    ball = inscribed_ball(polytope)
    if len(ball.touching) != len(polytope.centers):
        raise InvalidParameterError(
            "all facets must touch the inscribed ball; apply reduce_to_touching first"
        )
    return ball


def claim3_check(polytope, rel_tol=1e-5):
    """Projected facet areas must tile the inscribed sphere exactly."""
    ball = _require_all_touching(polytope)
    areas = []
    for f in polytope.facets:
        chart = chart_for_facet(polytope, f.ball_index, ball)
        areas.append(projected_facet_area(polytope, chart, f))
    sphere = FOUR_PI * ball.radius ** 2
    total = float(sum(areas))
    rel = abs(total - sphere) / sphere
    return Claim3Report(projected_areas=tuple(areas), total=total,
                        sphere_area=sphere, rel_defect=rel, passed=rel <= rel_tol)


def ratio_F(lam, r):
    """The extremal facet ratio: half the matched lens boundary over 2 pi r^2.

    Scale-invariant: equals ``1 / (lam * r)``; tends to 1 in the ball limit.
    """
    if lam <= 0.0 or r <= 0.0 or r * lam > 1.0 + 1e-12:
        raise InvalidParameterError(f"need 0 < r*lam <= 1, got lam={lam}, r={r}")
    from .reference_bodies import lens3_from_inradius

    lens = lens3_from_inradius(lam, min(r, 1.0 / lam))
    return (lens.surface_area / 2.0) / (2.0 * math.pi * r * r)


@dataclass(frozen=True)
class KeyClaimReport:
    ratios: tuple
    bound: float
    at_equality: tuple      # facets flagged as full natural radial extensions
    max_ratio: float
    projected_total: float
    reconstructed_bound: float  # F * sum of projected areas (Theorem C chain)
    surface_area: float
    passed: bool


def _is_natural_extension(polytope, chart, facet, tol=1e-8):
    """True when the facet boundary lies in the equatorial plane through o:
    every edge circle's center lies within ``tol * R`` of that plane, and
    its tilt against the plane moves its rim by at most ``tol * R``."""
    slack = tol * polytope.radius
    o, axis = chart.center.tolist(), chart.axis.tolist()
    for loop in facet.boundary_loops:
        for eidx, _ in loop:
            edge = polytope.edges[eidx]
            height = bp3._dot([c - x for c, x in zip(edge.circle_center.tolist(), o)], axis)
            tilt = bp3._cross(axis, edge.circle_axis.tolist())
            if abs(height) > slack or edge.circle_radius * math.sqrt(bp3._dot(tilt, tilt)) > slack:
                return False
    return bool(facet.boundary_loops)


def key_claim_check(polytope, tol=1e-5):
    """Per-facet ratio bound |F_i| / |projected F_i| <= F, with equality
    exactly for full natural radial extensions (lens facets)."""
    ball = _require_all_touching(polytope)
    bound = ratio_F(polytope.lam, ball.radius)
    ratios = []
    flags = []
    projected_sum = 0.0
    for f in polytope.facets:
        chart = chart_for_facet(polytope, f.ball_index, ball)
        proj = projected_facet_area(polytope, chart, f)
        projected_sum += proj
        ratios.append(f.area / proj)
        flags.append(_is_natural_extension(polytope, chart, f))
    max_ratio = max(ratios)
    area = bp3.surface_area(polytope)
    reconstructed = bound * projected_sum
    passed = (max_ratio <= bound + tol) and (area <= reconstructed * (1.0 + 1e-6))
    return KeyClaimReport(ratios=tuple(ratios), bound=bound,
                          at_equality=tuple(flags), max_ratio=max_ratio,
                          projected_total=projected_sum,
                          reconstructed_bound=reconstructed,
                          surface_area=area, passed=passed)


def _one_minus_cos(angle):
    """1 - cos(angle), without cancellation near 0."""
    half = math.sin(0.5 * angle)
    return 2.0 * half * half


def _cone_caps(chart, x):
    """(1 - cos phi, 1 - cos t) for the cone of polar angle t = x pi/2 about
    the touch axis and the cap of angle phi about o_i that it cuts from the
    supporting sphere: the cone's edge ray meets that sphere at distance
    rho(t), so R cos(phi) = e + rho cos(t) and R sin(phi) = rho sin(t)."""
    if not 0.0 < x <= 1.0:
        raise InvalidParameterError(f"cone fraction x must lie in (0, 1], got {x}")
    t = 0.5 * math.pi * x
    e, r = chart.center_offset, chart.inradius
    c = math.cos(t)
    power = r * (chart.ball_radius + e)  # R^2 - e^2, as R - e = r
    rho = power / (e * c + math.sqrt(e * e * c * c + power))
    phi = math.atan2(rho * math.sin(t), e + rho * c)
    return _one_minus_cos(phi), _one_minus_cos(t)


def sector_measures(chart, x, wedge=(0.0, math.pi / 3.0)):
    """(area, projected area) of the conical sector cut by a wedge.

    The sector collects directions within polar angle ``x * pi/2`` of the
    touch axis and azimuth inside the wedge: a wedge of the cap it cuts from
    the supporting sphere, ``(t2 - t1) R^2 (1 - cos phi)``, over a wedge of
    the inscribed sphere's cap, ``(t2 - t1) r^2 (1 - cos t)``.
    """
    t1, t2 = wedge
    cap, projected_cap = _cone_caps(chart, x)
    if not 0.0 < t2 - t1 <= 2.0 * math.pi:
        raise InvalidParameterError(f"wedge dihedral must lie in (0, 2*pi], got {wedge}")
    return ((t2 - t1) * chart.ball_radius ** 2 * cap,
            (t2 - t1) * chart.inradius ** 2 * projected_cap)


def sector_ratio(chart, x, wedge=(0.0, math.pi / 3.0)):
    """Measure ratio |C_x| / |projected C_x| of a conical sector.

    Nondecreasing in x, equal to the extremal ratio at x = 1 independently
    of the wedge.
    """
    area, projected = sector_measures(chart, x, wedge)
    return area / projected


def cumulative_sector_excess(chart, x, lam):
    """Integral of (g - F) sin t up to the cone angle, in closed form
    ``R^2 (1 - cos phi) / r^2 - F (1 - cos t)``; nonpositive, zero at x=1."""
    cap, projected_cap = _cone_caps(chart, x)
    bound = ratio_F(lam, chart.inradius)
    return (chart.ball_radius / chart.inradius) ** 2 * cap - bound * projected_cap
