"""Convex polygons bounded by curves of constant geodesic curvature in M^2(c).

In the conformal charts fixed by ``model_space`` every supporting region
(disk, horodisk, equidistant domain) is bounded by a Euclidean circle, so
the boundary combinatorics reduces to the same circular-interval game as
in three dimensions: every other region forbids one open arc of each
candidate circle.  Conformality keeps chart angles equal to metric angles,
so turning angles are Euclidean.  Each arc's length is intrinsic to its
curve, chosen by the disk's kind:

* flat disks: ``r * dphi`` on the chart circle of radius r;
* geodesic disks of radius rho: ``sn(rho) * theta`` (sn = sin on S^2,
  sinh on H^2), where theta is the angle the arc subtends at the disk's
  center C.  On the lifted quadric (``ms.lift``) it is the atan2 of
  ``det[C, X0, X1]`` and the G-inner product of the lifted endpoints
  projected off C; a full circle has ``theta = 2 pi``;
* horocycles and equidistants at lam = tanh(delta): with
  ``sinh(d / 2) = |z0 - z1| / sqrt((1 - |z0|^2) (1 - |z1|^2))`` for the
  distance d of the endpoints and ``w = sqrt((1 - lam) (1 + lam))``, the
  length is ``(2 / w) asinh(w sinh(d / 2))``, and ``2 sinh(d / 2)`` on a
  horocycle (w = 0).  That is ``cosh(delta) = 1 / w`` times the length of
  the arc's projection on its base geodesic.

Each disk's chart circle, and the depth of a chart point below the disks'
boundaries, come from the disk's chart quadratic (``ms.chart_form``), so
this module holds no distance formula of its own.

All boundary arcs have geodesic curvature equal to the curvature bound, so
for nonzero ambient curvature the area follows from the total-turning
identity ``c * area + lam * perimeter + sum(turning angles) = 2 pi``; the
Euclidean area uses the shoelace over the vertices plus circular-segment
corrections.

The lens of inradius s is bounded by two arcs of geodesic curvature lam
that meet on the perpendicular bisector of its axis.  Write (tn, sn, atn)
for (x, x, x), (tan, sin, atan) and (tanh, sinh, atanh) at c = 0, +1, -1
and rho for the disk radius; then its perimeter P is, in closed form:

* disks: ``cos alpha = lam tn(rho - s)``, ``P = 4 alpha sn(rho)``; inverse
  ``s = rho - atn(cos(P / (4 sn rho)) / lam)`` for ``P < 2 pi sn(rho)``;
* horodisks (lam = 1, c = -1): ``P = 4 sqrt(e^(2s) - 1)``; inverse
  ``s = log(1 + P^2 / 16) / 2``;
* equidistants, characteristic distance delta:
  ``cosh y = sinh delta / sinh(delta - s)``, ``sinh w = sinh y / cosh delta``,
  ``P = 4 w cosh delta``; inverse, with ``w = P / (4 cosh delta)``,
  ``s = delta - asinh(sinh delta / sqrt(1 + cosh^2 delta sinh^2 w))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import model_space as ms
from ._circular import (
    TWO_PI,
    cluster_points,
    complement_of_forbidden,
    cross_rows,
    feasible_arcs,
    successors,
)
from .errors import (
    EmptyBodyError,
    InvalidParameterError,
    NonCompactError,
    NumericError,
    TopologyError,
    check_lam,
)

_VERTEX_TOL = 1e-9


# ---------------------------------------------------------------------------
# Supporting lambda-disks
# ---------------------------------------------------------------------------

def _finite(*values):
    """True iff every number of ``values``, nested tuples included, is
    finite; None (an unused field) counts as finite."""
    return all(_finite(*v) if isinstance(v, tuple) else v is None or math.isfinite(v)
               for v in values)


@dataclass(frozen=True)
class LambdaDisk2:
    """One supporting region of boundary curvature lam in M^2(c).

    Exactly one parameter block is populated, matching ``kind``:
    ``center``/``radius`` for metric disks, ``ideal``/``level`` for
    horodisks, ``geodesic``/``offset`` for equidistant domains.
    """

    space: ms.ModelSpace
    lam: float
    kind: str
    center: tuple | None = None
    radius: float | None = None
    ideal: tuple | None = None
    level: float = 0.0
    geodesic: tuple | None = None
    offset: float | None = None

    def __post_init__(self):
        """``InvalidParameterError`` unless lam passes ``check_lam`` and every
        coordinate and number of the disk is finite."""
        check_lam(self.lam)
        for name in ("center", "radius", "ideal", "level", "geodesic", "offset"):
            if not _finite(getattr(self, name)):
                raise InvalidParameterError(f"the {self.kind} disk's {name} must be finite")


def euclidean_disk(space, lam, center):
    check_lam(lam)
    if space.curvature != 0.0:
        raise InvalidParameterError("euclidean disks need curvature 0")
    return LambdaDisk2(space=space, lam=lam, kind="euclidean",
                       center=tuple(np.asarray(center, dtype=float)), radius=1.0 / lam)


def geodesic_disk(space, lam, center):
    cls = ms.classify_umbilical(space, lam)
    if cls.kind not in (ms.GEODESIC_SPHERE_SPHERICAL, ms.GEODESIC_SPHERE_HYPERBOLIC):
        raise InvalidParameterError(
            f"lam={lam} does not bound geodesic disks at curvature {space.curvature}"
        )
    return LambdaDisk2(space=space, lam=lam, kind="geodesic",
                       center=tuple(np.asarray(center, dtype=float)), radius=cls.size)


def horodisk(space, lam, ideal, level=0.0):
    cls = ms.classify_umbilical(space, lam)
    if cls.kind != ms.HOROSPHERE:
        raise InvalidParameterError(f"lam={lam} is not the horocycle curvature")
    ideal = np.asarray(ideal, dtype=float)
    norm = np.linalg.norm(ideal)
    if abs(norm - 1.0) > 1e-9:
        raise InvalidParameterError("horodisk ideal point must be a unit vector")
    return LambdaDisk2(space=space, lam=lam, kind="horo",
                       ideal=tuple(ideal / norm), level=float(level))


def equidistant_domain(space, lam, g1, g2):
    """Domain bounded by the equidistant on the left of the oriented geodesic.

    The region is ``{signed left distance <= characteristic distance}``: it
    contains the base geodesic and everything to its right.
    """
    cls = ms.classify_umbilical(space, lam)
    if cls.kind != ms.EQUIDISTANT:
        raise InvalidParameterError(f"lam={lam} is not in the equidistant regime")
    return LambdaDisk2(space=space, lam=lam, kind="equidistant",
                       geodesic=(tuple(np.asarray(g1, dtype=float)),
                                 tuple(np.asarray(g2, dtype=float))),
                       offset=cls.size)


# ---------------------------------------------------------------------------
# Chart circles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartCircle:
    center: np.ndarray
    radius: float
    side: int  # +1: region is the inside of the circle; -1: the outside


def chart_circle(disk):
    """The disk's boundary as the level set ``Q = level W`` of its chart form.

    With ``a = A - c level`` the level set is ``a |z|^2 + b . z + k = 0``
    (``b = beta - 2 A m``, ``k = A |m|^2 + C - level``): a circle of center
    ``-b / (2a)``, and the disk is its inside for ``a > 0``.
    """
    A, (mx, my), (bx, by), C, _, level, _ = ms.chart_form(disk)
    a = A - disk.space.curvature * level
    if abs(a) <= 1e-15 * (abs(A) + abs(level)):
        raise NumericError("the disk boundary passes through the chart's point at infinity")
    center = np.array([bx - 2.0 * A * mx, by - 2.0 * A * my]) / (-2.0 * a)
    k = A * (mx * mx + my * my) + C - level
    return ChartCircle(center=center, radius=math.sqrt(float(center @ center) - k / a),
                       side=1 if a > 0.0 else -1)


# ---------------------------------------------------------------------------
# Compactness of hyperbolic intersections
# ---------------------------------------------------------------------------

def _ideal_closure_forbidden(disk):
    """Forbidden open arcs of ideal directions (complement of the closure).

    Returns a list of (center_angle, half_width) pairs describing ideal
    directions NOT in the closure of the region, or None when the closure
    is empty (compact region).
    """
    if disk.kind == "geodesic":
        return None
    if disk.kind == "horo":
        ang = math.atan2(disk.ideal[1], disk.ideal[0])
        # closure is the single ideal point: forbid the complementary arc
        return [((ang + math.pi) % TWO_PI, math.pi - 1e-12)]
    circle = chart_circle(disk)
    # Ideal endpoints of the bounding equidistant arc.
    d = float(np.linalg.norm(circle.center))
    r = circle.radius
    cos_half = (d * d + 1.0 - r * r) / (2.0 * d)
    cos_half = max(-1.0, min(1.0, cos_half))
    half = math.acos(cos_half)
    toward = math.atan2(circle.center[1], circle.center[0])
    # The closure is the closed ideal arc on the domain side; the open
    # complementary arc is forbidden.  The domain side contains the ideal
    # arc away from the circle center when the domain is the outside.
    if circle.side == -1:
        return [(toward, half)]
    return [((toward + math.pi) % TWO_PI, math.pi - half)]


def _check_compact(space, disks):
    if space.curvature != -1.0:
        return
    if any(d.kind == "geodesic" for d in disks):
        return
    forbidden = []
    for d in disks:
        fb = _ideal_closure_forbidden(d)
        if fb is None:
            return
        forbidden.extend((c, h, None) for c, h in fb)
    arcs, full = complement_of_forbidden(forbidden, eps=1e-13)
    if full or arcs:
        raise NonCompactError(
            "the intersection keeps a cone of ideal directions; "
            "add disks or reduce the inradius below the characteristic distance"
        )


# ---------------------------------------------------------------------------
# The polygon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc2:
    disk_index: int
    circle: ChartCircle
    phi_start: float
    phi_end: float
    full_circle: bool
    start_vertex: int | None
    end_vertex: int | None
    length: float

    @property
    def angle(self):
        return self.phi_end - self.phi_start

    def point_at(self, phi):
        return self.circle.center + self.circle.radius * np.array(
            [math.cos(phi), math.sin(phi)])

    def travel_endpoints(self):
        """(entry phi, exit phi) in traversal order (body on the left)."""
        if self.circle.side == +1:
            return self.phi_start, self.phi_end
        return self.phi_end, self.phi_start

    def tangent_at(self, phi):
        w = np.array([math.cos(phi), math.sin(phi)])
        t = np.array([-w[1], w[0]])
        return t if self.circle.side == +1 else -t


@dataclass(frozen=True, eq=False)
class ArcPolygon2:
    """Compares and hashes by identity."""

    space: ms.ModelSpace
    lam: float
    disks: tuple
    boundary: tuple        # arcs in counterclockwise traversal order
    vertices: tuple        # chart points; vertex k starts boundary[k]
    turning_angles: tuple  # angle at vertex k (between boundary[k-1] and boundary[k])
    # The polygon's ``InscribedDisk2``, kept by the first ``inradius2``.
    _inscribed_disk: object = field(default=None, init=False, repr=False)

    @property
    def centers(self):
        """Disk centers (Euclidean polygons only); feeds the MEB duality."""
        if self.space.curvature != 0.0 or any(d.kind != "euclidean" for d in self.disks):
            raise InvalidParameterError("centers are only defined for Euclidean polygons")
        return np.asarray([d.center for d in self.disks])

    def membership(self, z, slack=1e-12):
        """Whether the chart point z, or each row of an (N, 2) array, is in
        the polygon (up to ``slack`` in the chart circles' squared radii)."""
        z = np.asarray(z, dtype=float)
        inside = np.ones(z.shape[:-1], dtype=bool)
        for circle in map(chart_circle, self.disks):
            gap = np.sum((z - circle.center) ** 2, axis=-1) - circle.radius ** 2
            inside &= circle.side * gap <= slack
        return inside if z.ndim > 1 else bool(inside)


def _arc_length(disk, circle, phi0, phi1, full):
    """Metric length of the chart arc ``phi0 -> phi1`` of the disk's boundary
    circle, in closed form (module docstring)."""
    if disk.kind == "euclidean":
        return circle.radius * (phi1 - phi0)
    c = disk.space.curvature
    sn = math.sin if c > 0.0 else math.sinh
    if full:
        return TWO_PI * sn(disk.radius)
    (cx, cy), r = circle.center.tolist(), circle.radius
    ends = [(cx + r * math.cos(phi), cy + r * math.sin(phi)) for phi in (phi0, phi1)]
    if disk.kind == "geodesic":
        Y = ms.lift(c, np.array([disk.center, *ends]))  # rows C, X0, X1
        gram = Y @ (Y * (1.0, 1.0, c)).T
        # <X0 - c <X0, C> C, X1 - c <X1, C> C>: the ends projected off C
        dot = gram[1, 2] - c * gram[0, 1] * gram[0, 2]
        # The chart circle runs clockwise about a center outside it (side -1).
        theta = math.atan2(circle.side * np.linalg.det(Y), dot)
        return sn(disk.radius) * (theta % TWO_PI)
    (x0, y0), (x1, y1) = ends
    chord = 2.0 * r * math.sin(0.5 * (phi1 - phi0))
    sinh_half = chord / math.sqrt((1.0 - x0 * x0 - y0 * y0) * (1.0 - x1 * x1 - y1 * y1))
    if disk.kind == "horo":
        return 2.0 * sinh_half
    w = math.sqrt((1.0 - disk.lam) * (1.0 + disk.lam))
    return 2.0 / w * math.asinh(w * sinh_half)


def build2(space, lam, disks):
    """Intersect supporting lambda-disks into an arc polygon.

    Raises ``EmptyBodyError`` for empty intersections, ``NonCompactError``
    for unbounded hyperbolic intersections of horodisks/equidistants, and
    ``TopologyError`` if the boundary fails to close into one loop.
    """
    disks = tuple(disks)
    if not disks:
        raise InvalidParameterError("need at least one disk")
    check_lam(lam)
    space.require_metric_layer()
    _check_compact(space, disks)
    circles = [chart_circle(d) for d in disks]
    scale = max(c.radius for c in circles)

    # Row i, column j: where circle i leaves disk j (side=+1 wants
    # |z - c_j|^2 <= r_j^2, side=-1 the reverse); disk i constrains nothing.
    center = np.array([c.center for c in circles])
    r = np.array([c.radius for c in circles])
    side = np.array([float(c.side) for c in circles])
    dv = center[:, None, :] - center
    two_r = 2.0 * r[:, None]
    d = -side * (((dv * dv).sum(2) + (r * r)[:, None]) - r * r)
    d[np.diag_indices(len(circles))] = math.inf
    raw = []
    for i, feasible in enumerate(feasible_arcs(side * (two_r * dv[..., 0]),
                                               side * (two_r * dv[..., 1]), d)):
        if feasible is None:
            continue
        arcs, full = feasible
        if full:
            raw.append((i, 0.0, TWO_PI, True))
        else:
            raw.extend((i, s, e, False) for s, e, _, _ in arcs)

    if not raw:
        raise EmptyBodyError("the disks have empty intersection")

    ends = [circles[i].center + circles[i].radius * np.array([math.cos(phi), math.sin(phi)])
            for i, s, e, full in raw if not full for phi in (s, e)]
    positions, index = cluster_points(ends, _VERTEX_TOL * scale)
    index = iter(index)  # two entries, start then end, per open arc
    arcs = [Arc2(disk_index=i, circle=circles[i], phi_start=s, phi_end=e,
                 full_circle=full,
                 start_vertex=None if full else next(index),
                 end_vertex=None if full else next(index),
                 length=_arc_length(disks[i], circles[i], s, e, full))
            for i, s, e, full in raw]

    # Chain into a single counterclockwise boundary loop.
    if len(arcs) == 1 and arcs[0].full_circle:
        return ArcPolygon2(space=space, lam=lam, disks=disks,
                           boundary=(arcs[0],), vertices=(), turning_angles=())
    if any(a.full_circle for a in arcs):
        raise TopologyError("mixed full-circle and open arcs on the boundary")

    # Each arc's (first, last) vertex, run with the body on its left.
    tails, heads = zip(*[(a.start_vertex, a.end_vertex)[::a.circle.side] for a in arcs])
    succ = successors([0] * len(arcs), tails, heads).tolist()
    order = [0]
    while succ[order[-1]] and len(order) <= len(arcs):  # a permutation returns to arc 0
        order.append(succ[order[-1]])
    if len(order) != len(arcs):
        raise TopologyError("boundary arcs do not close into a single loop")

    loop = [arcs[k] for k in order]
    vertices = [np.asarray(positions[tails[k]]) for k in order]
    turning = []
    for prev, a in zip(loop[-1:] + loop[:-1], loop):
        t_in = prev.tangent_at(prev.travel_endpoints()[1])
        t_out = a.tangent_at(a.travel_endpoints()[0])
        turning.append(math.atan2(float(t_in[0] * t_out[1] - t_in[1] * t_out[0]),
                                  float(t_in @ t_out)))
    return ArcPolygon2(space=space, lam=lam, disks=disks, boundary=tuple(loop),
                       vertices=tuple(vertices), turning_angles=tuple(turning))


def perimeter2(poly):
    return float(sum(a.length for a in poly.boundary))


def area2(poly):
    """Enclosed area: shoelace plus segment bulges (flat) or total turning."""
    c = poly.space.curvature
    if c == 0.0:
        shoelace = 0.0
        n = len(poly.vertices)
        for k in range(n):
            x0, y0 = poly.vertices[k]
            x1, y1 = poly.vertices[(k + 1) % n]
            shoelace += x0 * y1 - x1 * y0
        segments = 0.0
        for a in poly.boundary:
            theta = a.angle
            segments += 0.5 * (theta - math.sin(theta)) * a.circle.radius ** 2
        return 0.5 * shoelace + segments if n else math.pi / poly.lam ** 2
    total_turn = sum(poly.turning_angles)
    return (TWO_PI - total_turn - poly.lam * perimeter2(poly)) / c


def total_turning_defect(poly):
    """Residual of c*area + lam*perimeter + sum(turning) = 2*pi (flat: exact)."""
    c = poly.space.curvature
    return (c * area2(poly) + poly.lam * perimeter2(poly)
            + sum(poly.turning_angles) - TWO_PI)


# ---------------------------------------------------------------------------
# Flat-case checks (vertex-angle constraints, derivative, isoperimetry)
# ---------------------------------------------------------------------------

def _require_flat(poly):
    if poly.space.curvature != 0.0:
        raise InvalidParameterError("this check is defined for Euclidean polygons")


def lens_vertex_angle(lam, perimeter):
    """Vertex angle of the flat lens with the given perimeter."""
    check_lam(lam)
    if not 0.0 < perimeter * lam <= TWO_PI + 1e-12:
        raise InvalidParameterError(f"perimeter {perimeter} out of range for lam={lam}")
    return math.pi - 0.5 * perimeter * lam


@dataclass(frozen=True)
class ConstraintsReport:
    gamma_star: float
    max_angle: float
    angle_sum: float
    passed: bool


def constraints_check(poly, tol=1e-9):
    """Vertex angles are capped by, and sum to twice, the lens angle."""
    _require_flat(poly)
    gamma_star = lens_vertex_angle(poly.lam, perimeter2(poly))
    angles = poly.turning_angles
    max_angle = max(angles) if angles else 0.0
    angle_sum = float(sum(angles))
    passed = (max_angle <= gamma_star + tol
              and abs(angle_sum - 2.0 * gamma_star) <= tol)
    return ConstraintsReport(gamma_star=gamma_star, max_angle=max_angle,
                             angle_sum=angle_sum, passed=passed)


def initial_derivative_2d(poly):
    """Right derivative of the eroded perimeter at t = 0 (flat case)."""
    _require_flat(poly)
    return (-poly.lam * perimeter2(poly)
            - 2.0 * sum(math.tan(0.5 * g) for g in poly.turning_angles))


@dataclass(frozen=True)
class GoalReport:
    lhs: float
    rhs: float
    at_equality: bool
    passed: bool


def goal_inequality_check(poly, tol=1e-12):
    """sum tan(gamma_i/2) <= 2 tan(gamma*/2), equality only for the lens."""
    _require_flat(poly)
    gamma_star = lens_vertex_angle(poly.lam, perimeter2(poly))
    lhs = float(sum(math.tan(0.5 * g) for g in poly.turning_angles))
    rhs = 2.0 * math.tan(0.5 * gamma_star)
    equal = abs(lhs - rhs) <= 1e-9 and len(poly.turning_angles) == 2
    return GoalReport(lhs=lhs, rhs=rhs, at_equality=equal, passed=lhs <= rhs + tol)


@dataclass(frozen=True)
class Rip2DReport:
    area: float
    lens_area: float
    margin: float
    passed: bool


def rip2d_check(poly, tol=1e-9):
    """Flat reverse isoperimetric inequality against the matched lens."""
    _require_flat(poly)
    from .reference_bodies import lens2_measures

    area = area2(poly)
    lens_area = lens2_measures(poly.lam, perimeter2(poly))
    return Rip2DReport(area=area, lens_area=lens_area, margin=area - lens_area,
                       passed=area >= lens_area - tol)


# ---------------------------------------------------------------------------
# Inradius in all three geometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InscribedDisk2:
    center: np.ndarray  # chart point
    radius: float
    touching: tuple


def inradius2(poly):
    """Largest inscribed disk, exact in all three geometries.

    Euclidean polygons use the exact enclosing-ball duality.  Curved
    polygons lift to the quadric of ``ms.lifted_form``, where the depth
    below disk i is ``rho - F(a_i . X + b_i)``: at the inscribed center
    ``max_i (a_i . X + b_i)`` is least on the quadric, an LP-type problem
    whose basis holds at most three disks, solved in closed form
    (``_minimax_on_quadric``).  The radius is the least signed distance
    from that center to the disks' boundaries, evaluated in the chart, and
    the touching disks are those within 1e-7 of it.  The polygon keeps its
    disk, so the solve runs once per polygon.
    """
    if poly._inscribed_disk is None:
        object.__setattr__(poly, "_inscribed_disk", _inradius2(poly))  # a cache on a frozen polygon
    return poly._inscribed_disk


def _inradius2(poly):
    if poly.space.curvature == 0.0 and all(d.kind == "euclidean" for d in poly.disks):
        from .inradius import inscribed_ball

        ball = inscribed_ball(poly)
        return InscribedDisk2(center=ball.center, radius=ball.radius,
                              touching=ball.touching)

    forms = [ms.lifted_form(d) for d in poly.disks]
    if len({(f.rho, f.F) for f in forms}) > 1:  # the depth is rho - F(max_i ...) for one rho, F
        raise InvalidParameterError("the inradius needs disks of one kind and one lam")
    # Only a disk whose arc bounds the polygon can touch its inscribed disk.
    pool = sorted({arc.disk_index for arc in poly.boundary})
    a, b = np.array([f.a for f in forms]), np.array([f.b for f in forms])
    X, _ = _minimax_on_quadric(poly.space.curvature, a, b, pool)
    center = ms.unlift(X)
    # The chart evaluates the depth more accurately than the lift far out.
    depths = [ms.signed_distance_to_lambda_disk(poly.space, d, center) for d in poly.disks]
    radius = min(depths)
    if not radius > 0.0:
        raise NumericError(f"the polygon has no interior (inradius {radius:.3g})")
    touching = tuple(i for i, v in enumerate(depths) if abs(v - radius) <= 1e-7)
    return InscribedDisk2(center=center, radius=radius, touching=touching)


def _minimax_on_quadric(c, a, b, pool):
    """The point X of the lifted quadric ``X . G X = c``, ``G = diag(1, 1, c)``,
    on the chart's side (S^2 minus its south pole, the upper sheet of H^2),
    where ``max_i (a_i . X + b_i)`` is least, and the rows of its basis.

    At the optimum a convex combination ``sum mu_k a_k`` of at most three
    active rows is parallel to ``G X``, so the optimum is one of these
    closed-form candidates, built for every basis of rows in ``pool``:

    * one row: the minimum of ``a_i . X`` alone, ``X = -G a_i / |a_i|_G``;
    * two rows: the critical points of ``a_i . X`` on the curve
      ``d . X = e`` (``d = a_i - a_j``, ``e = b_j - b_i``), where
      ``X = -G (a_i - nu d) / lambda``.  With ``p = d . G a_i``,
      ``q = d . G d``, ``alpha = a_i . G a_i`` and
      ``kappa^2 = (alpha q - p^2) / (q^2 (c q - e^2))`` they are
      ``nu = p / q + sigma e kappa``, ``lambda = sigma kappa q`` for
      ``sigma = +-1``, smooth through the homogeneous case ``e = 0``
      (equal-radius hyperbolic disks all have ``b = -1``);
    * three rows: the two points where the line ``d_1 . X = e_1``,
      ``d_2 . X = e_2`` meets the quadric.

    Every candidate lies on the quadric, so the least objective among them
    (evaluated over every row) is the optimum.  ``NumericError`` when no
    candidate exists: the depth has no maximum (an unbounded body).
    """
    g = np.array([1.0, 1.0, c])
    blocks = [(np.empty((0, 3)), np.empty((0, 3), dtype=int))]  # (candidates, rows padded with -1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for size in (1, 2, 3):
            rows = np.array(list(combinations(pool, size)), dtype=int).reshape(-1, size)
            if not len(rows):
                continue
            ai = a[rows[:, 0]]
            if size == 1:
                X = -g * ai / np.sqrt(np.sum(ai * g * ai, axis=1) / c)[:, None]
                X = X[None]
            elif size == 2:
                d, e = ai - a[rows[:, 1]], b[rows[:, 1]] - b[rows[:, 0]]
                p, q = np.sum(d * g * ai, axis=1), np.sum(d * g * d, axis=1)
                alpha = np.sum(ai * g * ai, axis=1)
                kappa = np.sqrt((alpha * q - p * p) / (q * q * (c * q - e * e)))
                X = np.stack([-g * (ai - (p / q + sigma * e * kappa)[:, None] * d)
                              / (sigma * kappa * q)[:, None] for sigma in (1.0, -1.0)])
            else:
                d1, e1 = ai - a[rows[:, 1]], b[rows[:, 1]] - b[rows[:, 0]]
                d2, e2 = ai - a[rows[:, 2]], b[rows[:, 2]] - b[rows[:, 0]]
                n = cross_rows(d1, d2)
                x0 = ((e1[:, None] * cross_rows(d2, n) + e2[:, None] * cross_rows(n, d1))
                      / np.sum(n * n, axis=1)[:, None])
                qa = np.sum(n * g * n, axis=1)
                qb = np.sum(x0 * g * n, axis=1)
                qc = np.sum(x0 * g * x0, axis=1) - c
                root = -(qb + np.copysign(np.sqrt(qb * qb - qa * qc), qb))
                X = np.stack([x0 + t[:, None] * n for t in (root / qa, qc / root)])
            padded = np.full((len(rows), 3), -1)
            padded[:, :size] = rows
            blocks.extend((Xs, padded) for Xs in X)
    X = np.concatenate([Xs for Xs, _ in blocks])
    basis = np.concatenate([rows for _, rows in blocks])
    ok = np.all(np.isfinite(X), axis=1) & (X[:, 2] > (-1.0 if c > 0.0 else 0.0))
    if not np.any(ok):
        raise NumericError("the depth has no maximum on the lifted quadric (unbounded body)")
    X, basis = X[ok], basis[ok]
    best = int(np.argmin(np.max(X @ a.T + b, axis=1)))
    return X[best], tuple(int(i) for i in basis[best] if i >= 0)


def supporting_disk(space, lam, r0, u):
    """The lambda-disk touching the circle of radius r0 at direction u.

    The disk contains the inscribed circle around the origin and its
    boundary passes through the chart point at metric distance r0 along u.
    """
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    c = space.curvature
    if c == 0.0:
        return euclidean_disk(space, lam, (r0 - 1.0 / lam) * u)
    cls = ms.classify_umbilical(space, lam)
    if cls.kind in (ms.GEODESIC_SPHERE_SPHERICAL, ms.GEODESIC_SPHERE_HYPERBOLIC):
        if r0 >= cls.size:
            raise InvalidParameterError(
                f"inradius {r0} exceeds the supporting disk radius {cls.size}"
            )
        center = ms.exp_map(space, np.zeros(2), u, r0 - cls.size)
        return geodesic_disk(space, lam, center)
    if cls.kind == ms.HOROSPHERE:
        # The supporting horoball wraps around the far side: its ideal
        # point is opposite the touch direction and its boundary level
        # is the Busemann value +r0 attained at the touch point.
        return horodisk(space, lam, -u, level=r0)
    if r0 >= cls.size:
        raise InvalidParameterError(
            f"inradius {r0} must stay below the characteristic distance {cls.size}"
        )
    q = ms.exp_map(space, np.zeros(2), u, r0 - cls.size)
    v = np.array([-u[1], u[0]])
    g1 = ms.exp_map(space, q, v, -0.4)
    g2 = ms.exp_map(space, q, v, 0.4)
    # Orient so the left side faces the touch direction.
    if float(np.array([-(g2 - g1)[1], (g2 - g1)[0]]) @ u) < 0.0:
        g1, g2 = g2, g1
    return equidistant_domain(space, lam, g1, g2)


def touching_polygon2(space, lam, r0, directions):
    """Polygon of supporting disks touching the circle of radius r0 at the
    given chart directions (the construction behind generators and lenses)."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    disks = [supporting_disk(space, lam, r0, u) for u in directions]
    return build2(space, lam, disks)


# (tn, sn, atn) of the lens formulas per curvature; float is the identity.
_LENS_TRIG = {0.0: (float, float, float), 1.0: (math.tan, math.sin, math.atan),
              -1.0: (math.tanh, math.sinh, math.atanh)}


def lens_perimeter_direct(space, lam, s):
    """Perimeter of the inradius-s lens, in closed form (module docstring)."""
    space.require_metric_layer()
    cls = ms.classify_umbilical(space, lam)
    size = math.inf if cls.size is None else cls.size
    if not 0.0 < s < size:
        raise InvalidParameterError(f"lens inradius must lie in (0, {size}), got {s}")
    if cls.kind == ms.HOROSPHERE:
        return 4.0 * math.sqrt(math.expm1(2.0 * s))
    if cls.kind == ms.EQUIDISTANT:
        # cosh^2 y - 1 with cosh y = sinh(delta) / sinh(delta - s), without cancellation
        sinh_y = math.sqrt(math.sinh(s) * math.sinh(2.0 * size - s)) / math.sinh(size - s)
        return 4.0 * math.cosh(size) * math.asinh(sinh_y / math.cosh(size))
    tn, sn, _ = _LENS_TRIG[space.curvature]
    return 4.0 * sn(size) * math.acos(lam * tn(size - s))


@dataclass(frozen=True)
class TheoremB2DReport:
    r_body: float
    r_lens: float
    margin: float
    passed: bool


def matched_lens_inradius(space, lam, perimeter):
    """Inradius of the lens with the given perimeter: the exact inverse of
    ``lens_perimeter_direct``; ``InvalidParameterError`` for a perimeter
    that is not finite, ``NumericError`` outside the lens range."""
    space.require_metric_layer()
    if not math.isfinite(perimeter):
        raise InvalidParameterError(f"perimeter {perimeter} is not finite")
    if not perimeter > 0.0:
        raise NumericError(f"perimeter {perimeter} is below every lens perimeter")
    cls = ms.classify_umbilical(space, lam)
    if cls.kind == ms.HOROSPHERE:
        return 0.5 * math.log1p(perimeter * perimeter / 16.0)
    size = cls.size
    if cls.kind == ms.EQUIDISTANT:
        ch = math.cosh(size)
        sinh_w = math.sinh(perimeter / (4.0 * ch))
        return size - math.asinh(math.sinh(size) / math.hypot(1.0, ch * sinh_w))
    tn, sn, atn = _LENS_TRIG[space.curvature]
    alpha = perimeter / (4.0 * sn(size))
    if alpha >= 0.5 * math.pi:
        raise NumericError(
            f"no lens of perimeter {perimeter}: even the full disk is smaller"
        )
    return size - atn(math.cos(alpha) / lam)


def theoremB_2d_check(poly, tol=1e-7):
    """Reverse inradius inequality against the equal-perimeter lens."""
    disk = inradius2(poly)
    cls = ms.classify_umbilical(poly.space, poly.lam)
    if cls.kind == ms.EQUIDISTANT and disk.radius >= cls.size:
        # Beyond the characteristic distance every lens is smaller; trivially true.
        return TheoremB2DReport(r_body=disk.radius, r_lens=cls.size,
                                margin=disk.radius - cls.size, passed=True)
    r_lens = matched_lens_inradius(poly.space, poly.lam, perimeter2(poly))
    margin = disk.radius - r_lens
    return TheoremB2DReport(r_body=disk.radius, r_lens=r_lens, margin=margin,
                            passed=margin >= -tol)
