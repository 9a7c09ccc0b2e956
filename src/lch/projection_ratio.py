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
directions.  ``projected_facet_area`` measures it by Gauss-Bonnet, over
the facet's rows of the corner table the build kept on the body (its
``_tables``), and requires that precondition of every edge of the facet.

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
from ._circular import cross_rows, dot_rows
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
    module docstring), measured by ``_facet_projections``.
    ``InvalidParameterError`` when an edge plane of the facet misses o by
    more than ``1e-9 R``, that is, when the neighbouring ball does not
    touch the inscribed ball too.
    """
    ball = chart.facet_index if facet is None else facet.ball_index
    areas, _ = _facet_projections(polytope, chart.center, chart.inradius, [ball])
    return float(areas[0])


def _facet_projections(polytope, center, inradius, balls):
    """Projected areas and natural-extension flags of the facets of
    ``balls`` (an index array, or ``slice(None)`` for all), for the
    inscribed ball of center ``o`` and radius r, in one array pass over the
    build's ``_tables``.

    The projected side of edge (i, j) lies on the great circle in the plane
    through o with normal ``circle_axis``; at a corner vertex v, with u =
    (v - o)/|v - o|, its tangent in the sense of increasing phi is
    ``circle_axis x u``.  So the area is the build's Gauss-Bonnet kernel
    ``ball_polytope3._gauss_bonnet_areas`` on the inscribed sphere, over
    the rows of these facets in the build's corner table, with no geodesic
    curvature and normals u: ``r^2 (2 pi (2 - #loops) - sum of the
    turns)``.  A full circle makes no corner.  ``InvalidParameterError``
    when the plane of an edge of these facets misses o by more than
    ``1e-9 R``.

    Facet i is a natural extension when it has a boundary and each of its
    edge circles lies in the equatorial plane through o of its touch axis
    a_i = (o - o_i)/|o - o_i|: the circle's center z is within ``1e-8 R``
    of it, ``|(z - o) . a_i|``, and its tilt moves its rim by at most
    ``1e-8 R``, ``rho |a_i x circle_axis|``.  Each edge is tested against
    the axes of both its facets.
    """
    tables = polytope._tables
    pair, axes, rho = tables.pair, tables.axes, tables.rho
    z = tables.z - center
    mine = np.zeros(len(polytope.centers), dtype=bool)
    mine[balls] = True
    miss = dot_rows(z, axes)
    far = np.flatnonzero(mine[pair].any(1) & (np.abs(miss) > 1e-9 * polytope.radius))
    if far.size:
        n = far[0]
        raise InvalidParameterError(
            f"the plane of edge {n} misses the inscribed center by {float(miss[n])!r}, "
            f"so one of balls {tuple(pair[n].tolist())} does not touch the inscribed ball")

    touch = center - polytope.centers[pair]  # (edge, side, 3)
    touch /= np.sqrt(dot_rows(touch, touch))[..., None]
    slack = 1e-8 * polytope.radius
    tilt = cross_rows(touch, axes[:, None])
    off_plane = ((np.abs(dot_rows(z[:, None], touch)) > slack)
                 | (rho[:, None] * np.sqrt(dot_rows(tilt, tilt)) > slack))
    natural = np.bincount(pair.ravel(), off_plane.ravel(), len(polytope.centers)) == 0

    # Only the facets asked for keep their corners; the kernel sums over
    # all facets, and the others' areas (no corner, no meaning) are dropped.
    corners = tables.corners[:, mine[tables.corners[0]]]
    u = tables.positions[corners[5]] - center
    u /= np.sqrt(dot_rows(u, u))[:, None]
    areas = bp3._gauss_bonnet_areas(inradius * inradius, tables.chi, corners,
                                    cross_rows(axes[corners[1]], u),
                                    cross_rows(axes[corners[3]], u), u)
    return areas[balls], natural[balls] & (tables.chi[balls] < 2)


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
    areas, _ = _facet_projections(polytope, ball.center, ball.radius, slice(None))
    sphere = FOUR_PI * ball.radius ** 2
    total = float(areas.sum())
    rel = abs(total - sphere) / sphere
    return Claim3Report(projected_areas=tuple(areas.tolist()), total=total,
                        sphere_area=sphere, rel_defect=rel, passed=rel <= rel_tol)


def ratio_F(lam, r):
    """The extremal facet ratio: half the matched lens boundary over 2 pi r^2.

    Scale-invariant: equals ``1 / (lam * r)``; tends to 1 in the ball limit.
    """
    if not (lam > 0.0 and 0.0 < r * lam <= 1.0 + 1e-12):  # NaN fails too
        raise InvalidParameterError(f"need 0 < r*lam <= 1, got lam={lam}, r={r}")
    return 1.0 / (lam * min(r, 1.0 / lam))


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


def key_claim_check(polytope, tol=1e-5):
    """Per-facet ratio bound |F_i| / |projected F_i| <= F, with equality
    exactly for full natural radial extensions (lens facets)."""
    ball = _require_all_touching(polytope)
    bound = ratio_F(polytope.lam, ball.radius)
    projected, natural = _facet_projections(polytope, ball.center, ball.radius, slice(None))
    ratios = polytope._tables.area / projected
    max_ratio = float(ratios.max())
    projected_sum = float(projected.sum())
    area = bp3.surface_area(polytope)
    reconstructed = bound * projected_sum
    passed = (max_ratio <= bound + tol) and (area <= reconstructed * (1.0 + 1e-6))
    return KeyClaimReport(ratios=tuple(ratios.tolist()), bound=bound,
                          at_equality=tuple(natural.tolist()), max_ratio=max_ratio,
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
