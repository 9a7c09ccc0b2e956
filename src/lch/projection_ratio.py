"""Radial projection onto the inscribed sphere and facet ratio bounds.

Every touching facet lies on a supporting sphere whose center sits on the
ray from the inscribed center ``o`` through the touch point.  Projecting
the facet radially onto the inscribed sphere is a star-shaped map in polar
coordinates ``(t, theta)`` about the touch axis, so projected areas reduce
to one-dimensional integrals of the radial extent ``t_max(theta)``.  That
extent is exact: each meridian half-plane cuts the supporting sphere in a
great semicircle, and every other ball forbids one arc of it, so the facet
ends where the first forbidden arc opens.  One numpy kernel evaluates those
arc starts over the whole (azimuth x other ball) array, and a facet's
smooth pieces share one Gauss-Legendre node-doubling pass, which calls the
kernel once per doubling level.

The area-element pullback of the projection restricted to the supporting
sphere is ``g(t) = rho(t)^2 / (r^2 cos beta)`` with ``rho`` the ray length
and ``beta`` the incidence angle; it is 1 on the axis and strictly
increasing, which drives the per-facet ratio bound
``|F_i| / |projected F_i| <= (|boundary of matched lens|/2) / (2 pi r^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import _gl
from . import ball_polytope3 as bp3
from ._circular import CONSTRAINT_EPS, TWO_PI
from .errors import InvalidParameterError, NumericError
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


def _extent_function(polytope, chart):
    """t_max as a vectorized function of the azimuth, in closed form.

    The meridian half-plane at azimuth theta holds o_i, so it cuts the
    supporting sphere in the semicircle ``o_i + R (cos(phi) a + sin(phi) w)``,
    phi in [0, pi] from the touch point (a the touch axis, w the azimuth
    direction).  Ball k forbids one arc of it, where
    ``-2R (v.a) cos(phi) - 2R (v.w) sin(phi) > -|v|^2`` with ``v = o_k - o_i``;
    the facet ends where the first such arc opens, at phi_max, which lies at
    polar angle ``atan2(R sin(phi_max), R cos(phi_max) - e)`` about o.

    The coefficients are computed once per chart; a call evaluates the
    arc starts ``atan2(b, a) - acos(d / hypot(a, b)) mod 2 pi`` over the
    whole (azimuth x ball) array and takes phi_max as a row minimum from
    pi.  A ball that forbids the whole semicircle cannot occur for a
    facet touching the inscribed ball (its touch point lies in every
    ball) and raises ``NumericError``.
    """
    big_r = chart.ball_radius
    e1, e2 = bp3.orthonormal_frame(chart.axis)
    others = np.delete(np.arange(len(polytope.centers)), chart.facet_index)
    v = polytope.centers[others] - chart.sphere_center
    cos_coef = -2.0 * big_r * (v @ chart.axis)
    e1_coef, e2_coef = -2.0 * big_r * (v @ e1), -2.0 * big_r * (v @ e2)
    bound = -np.sum(v * v, axis=1)

    def t_max(thetas):
        thetas = np.asarray(thetas, dtype=float)
        sin_coef = np.cos(thetas)[:, None] * e1_coef + np.sin(thetas)[:, None] * e2_coef
        m = np.hypot(cos_coef, sin_coef)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = bound / m
        degenerate = m <= CONSTRAINT_EPS
        empty = np.where(degenerate, bound < -CONSTRAINT_EPS, ratio <= -1.0)
        if np.any(empty):
            row, col = (int(x[0]) for x in np.nonzero(empty))
            raise NumericError(
                f"ball {int(others[col])} forbids the whole meridian of facet "
                f"{chart.facet_index} at azimuth {float(thetas[row])!r}")
        cut = ~degenerate & (ratio < 1.0)
        start = np.mod(np.arctan2(sin_coef, cos_coef) - np.arccos(np.clip(ratio, -1.0, 1.0)),
                       TWO_PI)
        phi_max = np.min(start, axis=1, initial=math.pi, where=cut)
        return np.arctan2(big_r * np.sin(phi_max), big_r * np.cos(phi_max) - chart.center_offset)

    return t_max


def _radial_extents(polytope, chart, thetas):
    """t_max(theta) for a batch of azimuths (see ``_extent_function``)."""
    return _extent_function(polytope, chart)(thetas)


def _break_azimuths(polytope, chart):
    """Azimuths where t_max(theta) can kink: projected boundary vertices."""
    e1, e2 = bp3.orthonormal_frame(chart.axis)
    breaks = {0.0, 2.0 * math.pi}
    facet = polytope.facets[chart.facet_index]
    for loop in facet.boundary_loops:
        for eidx, forward in loop:
            edge = polytope.edges[eidx]
            if edge.full_circle:
                continue
            for vid in (edge.start_vertex, edge.end_vertex):
                w = polytope.vertices[vid].position - chart.center
                theta = math.atan2(float(w @ e2), float(w @ e1)) % (2.0 * math.pi)
                breaks.add(theta)
    return sorted(breaks)


def projected_facet_area(polytope, chart, facet=None, rel_tol=1e-9):
    """Area of the facet's radial projection on the inscribed sphere.

    Polar quadrature of ``1 - cos t_max(theta)``: the azimuth circle is
    split at projected-vertex directions (the only kinks of the radial
    extent), and all smooth pieces are integrated by Gauss-Legendre in one
    node-doubling pass, from 16 nodes per piece; each level evaluates the
    (azimuth x ball) extent kernel once on the nodes of every piece not
    yet settled to ``rel_tol`` (``NumericError`` past 256 nodes).
    """
    if facet is None:
        facet = polytope.facets[chart.facet_index]
    if not facet.boundary_loops:
        return FOUR_PI * chart.inradius ** 2  # single ball: the whole sphere

    t_max = _extent_function(polytope, chart)
    breaks = np.array(_break_azimuths(polytope, chart))
    a, b = breaks[:-1], breaks[1:]
    keep = b - a >= 1e-13
    pieces = _gl.integrate(lambda thetas: 1.0 - np.cos(t_max(thetas)),
                           a[keep], b[keep], 16, rel_tol, 256)
    return chart.inradius ** 2 * sum(pieces.tolist())


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
    """True when the facet boundary lies in the equatorial plane through o."""
    scale = polytope.radius
    for loop in facet.boundary_loops:
        for eidx, forward in loop:
            edge = polytope.edges[eidx]
            for phi in np.linspace(edge.phi_start, edge.phi_end, 8):
                x = edge.point_at(phi)
                if abs(float((x - chart.center) @ chart.axis)) > tol * scale:
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


def sector_measures(chart, x, wedge=(0.0, math.pi / 3.0)):
    """(area, projected area) of the conical sector cut by a wedge.

    The sector collects directions within polar angle ``x * pi/2`` of the
    touch axis and azimuth inside the wedge; its supporting-sphere area is
    the projected area weighted by the density.
    """
    if not 0.0 < x <= 1.0:
        raise InvalidParameterError(f"cone fraction x must lie in (0, 1], got {x}")
    t1, t2 = wedge
    if not 0.0 < t2 - t1 <= 2.0 * math.pi:
        raise InvalidParameterError(f"wedge dihedral must lie in (0, 2*pi], got {wedge}")
    t_top = 0.5 * math.pi * x
    num, _ = quad(lambda t: chart.density(t) * math.sin(t), 0.0, t_top,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    r2 = chart.inradius ** 2
    return ((t2 - t1) * r2 * num,
            (t2 - t1) * r2 * (1.0 - math.cos(t_top)))


def sector_ratio(chart, x, wedge=(0.0, math.pi / 3.0)):
    """Measure ratio |C_x| / |projected C_x| of a conical sector.

    One-dimensional polar quadrature; nondecreasing in x, equal to the
    extremal ratio at x = 1 independently of the wedge.
    """
    area, projected = sector_measures(chart, x, wedge)
    return area / projected


def cumulative_sector_excess(chart, x, lam):
    """Integral of (g - F) sin t up to the cone angle; nonpositive, zero at x=1."""
    if not 0.0 < x <= 1.0:
        raise InvalidParameterError(f"cone fraction x must lie in (0, 1], got {x}")
    bound = ratio_F(lam, chart.inradius)
    t_top = 0.5 * math.pi * x
    val, _ = quad(lambda t: (chart.density(t) - bound) * math.sin(t), 0.0, t_top,
                  epsabs=1e-13, epsrel=1e-11, limit=200)
    return val
