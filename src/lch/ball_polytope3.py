"""Intersections of congruent balls in R^3 and their exact measures.

A body is described by a curvature bound ``lam`` and ball centers; every
ball has radius ``1/lam``.  The build derives the boundary combinatorics:

* each unordered pair of balls meets (if at all) in a circle; every other
  ball forbids one open arc of that circle, and the surviving closed arcs
  are the edges of the body (one array pass over all candidate pairs and
  the balls that may cut them, see ``_candidate_pairs``, ``_pair_circles``
  and ``_pair_arcs``);
* arc endpoints, deduplicated spatially, are the vertices;
* the arcs bounding each sphere's facet chain into closed oriented loops
  (facet on the left, seen from outside).

On the unit sphere of directions around a center, the facet is the
intersection of caps ``u . e_ij >= d_ij * lam / 2``, so its area follows
from the intrinsic Gauss-Bonnet identity: a boundary arc sitting on a cap
of angular radius psi has constant geodesic curvature cot(psi) and
contributes ``arc_angle * cos(psi)``; corners contribute turning angles.
Volumes come from the divergence theorem with closed-form arc integrals.
The facet stage is one array pass too: ``_facet_measures`` sums each
arc's ``dphi cos(psi)`` onto both its facets, and the Gauss-Bonnet
kernel ``_gauss_bonnet_areas`` sums each corner's turn ``atan2((t_in x
t_out) . n, t_in . t_out)`` onto its facet, ``area = R^2 (2 pi chi -
both sums)``.  The kernel has two callers: this build, and
``projection_ratio``, whose projected facets are spherical polygons
with great-circle sides (no geodesic curvature), measured over the
build's own ``_corner_table``.

The build's arrays are the body: ``_Tables`` holds per edge its pair,
circle, frame, end angles, end vertices and center distance; per vertex
its position and ball triple; the corner table; and per facet its Euler
characteristic, loops, area and vector area.  Every measure reads them
(``surface_area``, ``volume``, ``_edge_tan_terms``, ``gauss_bonnet``,
``erosion``, ``projection_ratio``).  The ``EdgeArc``, ``Vertex`` and
``Facet`` objects of ``BallPolytope3.edges``, ``.vertices`` and
``.facets`` are views made from the rows on first access, their arrays
rows of the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, repeat
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ._circular import TWO_PI, chain_loops, cluster_points, cross_rows, dot_rows, feasible_arcs
from .errors import (
    DegenerateBodyError,
    EmptyBodyError,
    InvalidParameterError,
    check_lam,
)

VERTEX_TOL = 1e-9  # relative to the ball radius
# Centers are cospherical when their lifted matrix is this close to rank 3
# (see _candidate_pairs).
COSPHERICAL_TOL = 1e-12
# Adjacent hull triangles whose unit normals agree this closely may be one
# facet that qhull merged and triangulated arbitrarily.
_FLAT_NORMALS = 1e-6
_XYZ = np.arange(3)
_EDGE_SLOTS = np.array([[1, 2], [2, 0], [0, 1]])  # the edge opposite each slot of a triangle
_EYE = np.eye(3)


@dataclass(frozen=True)
class Vertex:
    position: np.ndarray
    incident: frozenset


@dataclass(frozen=True)
class EdgeArc:
    pair: tuple
    circle_center: np.ndarray
    circle_axis: np.ndarray  # unit vector from o_i toward o_j (i < j)
    circle_radius: float
    frame: tuple  # (E1, E2) with E1 x E2 = axis
    phi_start: float
    phi_end: float
    full_circle: bool
    start_vertex: int | None
    end_vertex: int | None
    dihedral: float
    center_distance: float  # |o_i - o_j|

    @property
    def arc_angle(self):
        return self.phi_end - self.phi_start

    @property
    def length(self):
        return self.circle_radius * self.arc_angle

    def point_at(self, phi):
        e1, e2 = self.frame
        return self.circle_center + self.circle_radius * (math.cos(phi) * e1 + math.sin(phi) * e2)

    def tangent_at(self, phi, forward):
        """Unit tangent at phi, ``cos(phi) e2 - sin(phi) e1``, negated when not forward."""
        e1, e2 = self.frame
        t = math.cos(phi) * e2 - math.sin(phi) * e1
        return t if forward else -t


@dataclass(frozen=True)
class Facet:
    ball_index: int
    # Each loop is a tuple of (edge_index, forward) pairs; forward means
    # increasing phi, which keeps this facet on the left.
    boundary_loops: tuple
    area: float
    vector_area: np.ndarray


class _Tables(NamedTuple):
    """A built body: one row per edge, vertex, corner or facet, in the
    order of ``edges``, ``vertices`` and ``facets``, whose objects are
    views of these rows."""

    pair: np.ndarray         # (edges, 2) balls i < j
    z: np.ndarray            # (edges, 3) circle centers
    axes: np.ndarray         # (edges, 3) unit circle axes
    rho: np.ndarray          # (edges,) circle radii
    e1: np.ndarray           # (edges, 3) the circle frames, e1 x e2 = axis
    e2: np.ndarray           # (edges, 3)
    phi: np.ndarray          # (edges, 2) phi_start, phi_end
    ends: np.ndarray         # (edges, 2) start and end vertices, -1 on a full circle (no end)
    dist: np.ndarray         # (edges,) center distances |o_i - o_j|
    positions: np.ndarray    # (vertices, 3)
    triples: np.ndarray      # (vertices, 3) each vertex's balls, sorted
    corners: np.ndarray      # (6, corners) the _corner_table of the facets' loops
    chi: np.ndarray          # (facets,) Euler characteristics, 2 - #loops
    loops: tuple             # per facet, its ``Facet.boundary_loops``
    area: np.ndarray         # (facets,)
    vector_area: np.ndarray  # (facets, 3)


@dataclass(frozen=True)
class BuildReport:
    redundant_indices: tuple
    duplicate_indices: tuple
    source_centers: np.ndarray  # the input list, order preserved (for I/O)
    # Where the build took its candidate pairs over every kept center
    # ("hull" or "all", see _candidate_pairs) and how many: their circles
    # are computed once, also when redundant balls drop.
    pair_source: str = "all"
    candidate_pairs: int = 0


@dataclass(frozen=True)
class BallPolytope3:
    """Immutable after build; the build's ``_Tables`` are the body."""

    lam: float
    centers: np.ndarray           # retained centers, shape (m, 3)
    redundant_centers: np.ndarray  # shape (k, 3); their balls contain the body
    build_report: BuildReport = field(repr=False)
    # The minimal enclosing ball of ``centers`` (an ``inradius.MEBResult``):
    # the build's, its support remapped past dropped redundant balls; None
    # when a support ball dropped, until ``inradius`` or ``erosion`` solves
    # it once and keeps it.
    _meb: object = field(default=None, compare=False, repr=False)
    # The build's ``_Tables``, which every measure reads.
    _tables: object = field(default=None, compare=False, repr=False)
    # The body's ``inradius.InscribedBall``, kept by its first computation.
    _inscribed: object = field(default=None, init=False, compare=False, repr=False)
    # The body's ``erosion._Erosion`` (its event schedule), kept by its first use.
    _erosion: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def radius(self):
        return 1.0 / self.lam

    @property
    def all_centers(self):
        if len(self.redundant_centers) == 0:
            return self.centers
        return np.vstack([self.centers, self.redundant_centers])

    @cached_property
    def edges(self):
        """The ``EdgeArc`` of each edge row of ``_tables``, made on first access."""
        t = self._tables
        starts, ends = ([None if v < 0 else v for v in col] for col in t.ends.T.tolist())
        dihedral = 2.0 * np.arcsin(0.5 * self.lam * t.dist)  # cos(dihedral) = 1 - 2 (lam d / 2)^2
        # The fields in EdgeArc's order; a full circle is an edge without end vertices.
        return tuple(map(EdgeArc, map(tuple, t.pair.tolist()), t.z, t.axes, t.rho.tolist(),
                         zip(t.e1, t.e2), *t.phi.T.tolist(), [s is None for s in starts],
                         starts, ends, dihedral.tolist(), t.dist.tolist()))

    @cached_property
    def vertices(self):
        """The ``Vertex`` of each vertex row of ``_tables``, made on first access."""
        t = self._tables
        return tuple(map(Vertex, t.positions, map(frozenset, t.triples.tolist())))

    @cached_property
    def facets(self):
        """The ``Facet`` of each facet row of ``_tables``, made on first access."""
        t = self._tables
        return tuple(map(Facet, range(len(t.loops)), t.loops, t.area.tolist(), t.vector_area))

    def combinatorial_signature(self):
        """Hashable summary of the boundary structure: the counts, the
        facets' balls and the edges' ball pairs, so an edge flip (edge
        (i, j) dies as edge (k, l) is born) changes it too."""
        m, t = len(self.centers), self._tables
        return (m, len(t.pair), len(t.positions), tuple(range(m)),
                tuple(sorted(map(tuple, t.pair.tolist()))))


def orthonormal_frame(axes):
    """Unit vectors (e1, e2) with e1 x e2 = axis, for a unit axis of shape
    (3,) or each row of an (n, 3) array; e1 and e2 take the shape of ``axes``.

    e1 is the unit vector of the axis's least component minus its
    projection on the axis, normalized."""
    a = np.asarray(axes, dtype=float)
    rows = a.reshape(-1, 3)
    unit = _EYE[np.abs(rows).argmin(1)]
    e1 = unit - dot_rows(rows, unit)[:, None] * rows
    e1 /= np.sqrt(dot_rows(e1, e1))[:, None]
    return e1.reshape(a.shape), cross_rows(rows, e1).reshape(a.shape)


def _candidate_pairs(pts, radius):
    """The center pairs that may carry an edge and the balls that may cut
    their circles: ``(ij, cols, source)``.  ``ij`` is an ``(n, 2)`` array
    of pairs ``(i, j)``, i < j, in lexicographic order; ``cols`` is an
    ``(n, 2)`` array of the two balls ``k < l`` that may cut row p's
    circle, or None when every ball may; ``source`` is ``"hull"`` or
    ``"all"``.

    An edge (i, j) has a point at distance R from o_i and o_j and at most
    R from every other center: the ball of radius R around it holds every
    center and has o_i, o_j on its sphere.  When the centers lie on one
    sphere, the two spheres meet in a circle whose plane has every other
    center on one side, so (i, j) is an edge of the centers' convex hull
    (the ball hull of Bezdek, Langi, Naszodi & Papez, DCG 38, 2007).  By
    the same duality the vertex of hull triangle ijk is the point at
    distance R from o_i, o_j and o_k on the inner side of that face, and
    it lies strictly inside every other ball; so the arc of edge (i, j)
    runs between the vertices of its two triangles ijk and ijl, and balls
    k and l are the only ones that cut it.

    So for the hull of ``_cospherical_hull`` the candidates are its
    edges, each cut by the third vertices of its two triangles.  Qhull
    triangulates merged near-coplanar facets arbitrarily, so when two
    adjacent hull triangles have unit normals within 1e-6, their two
    unshared vertices are a candidate pair too and every ball may cut
    every candidate.  Without that hull all pairs are candidates, each
    cut by every ball.
    """
    hull = _cospherical_hull(pts, radius)
    if hull is None:
        every = np.array(list(combinations(range(len(pts)), 2)), dtype=np.intp)
        return every.reshape(-1, 2), None, "all"
    tri, across = hull.simplices, hull.neighbors
    # Slot s of triangle f holds vertex k of the edge opposite it, shared
    # with triangle across[f, s], whose third vertex l is its vertex sum
    # less the edge's.  Rows (i, j, k, l), each edge from its lower triangle:
    total = tri.sum(1)
    rows = np.concatenate([tri[:, _EDGE_SLOTS], tri[..., None],
                           (total[across] - total[:, None] + tri)[..., None]], axis=2)
    once = np.arange(len(tri))[:, None] < across
    rows = rows[once]
    rows[:, :2].sort(1)
    rows[:, 2:].sort(1)
    normals = hull.equations[:, :3]
    flat = np.linalg.norm(normals[:, None, :] - normals[across], axis=2)[once] <= _FLAT_NORMALS
    if flat.any():
        return np.unique(np.vstack([rows[:, :2], rows[flat, 2:]]), axis=0), None, "hull"
    rows = rows[np.lexsort(rows[:, 1::-1].T)]
    return rows[:, :2], rows[:, 2:], "hull"


def _cospherical_hull(pts, radius):
    """The ``ConvexHull`` of m >= 5 cospherical centers, all of them its
    vertices, or None.

    Cospherical means: centered, scaled to unit size and lifted to
    (p, |p|^2), the centered lifted rows have smallest singular value at
    most ``COSPHERICAL_TOL`` = 1e-12 times the largest, and the sphere of
    that singular vector has radius below R (a near-planar set fits a
    plane instead).  None also for a ``QhullError`` and a hull with fewer
    than m vertices.
    """
    m = len(pts)
    if m <= 4:
        return None
    q = pts - pts.mean(axis=0)
    scale = float(np.max(np.linalg.norm(q, axis=1)))
    q /= scale
    sq = np.einsum("ij,ij->i", q, q)
    mean_sq = float(sq.mean())
    _, sv, vt = np.linalg.svd(np.column_stack([q, sq - mean_sq]), full_matrices=False)
    a, w = vt[-1, :3], float(vt[-1, 3])
    # The rows satisfy a.q + w (|q|^2 - mean_sq) = 0: the sphere around
    # -a / 2w with squared radius mean_sq + |a|^2 / 4w^2, in units of scale.
    if (sv[-1] > COSPHERICAL_TOL * sv[0]
            or float(a @ a) >= 4.0 * w * w * ((radius / scale) ** 2 - mean_sq)):
        return None
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    return hull if len(hull.vertices) == m else None


def _pair_circles(pts, radius, ij, cols):
    """The intersection circles of the center pairs ``ij`` (rows ``(i, j)``)
    and the constraints of the balls ``cols`` (every ball when None) on
    each, as arrays over the pairs.

    Returns ``(circles, (a, b, d))``.  ``circles`` holds, per pair, the
    circle's center, unit axis (from o_i toward o_j), radius, frame e1 and
    e2, and the distance of the two centers; the ball of column c (ball
    c, or ``cols[p, c]``) keeps the point at angle phi of circle p iff
    ``a[p, c] cos(phi) + b[p, c] sin(phi) <= d[p, c]``, and ``d`` is
    infinite where that ball is i or j.
    """
    oi, oj = pts[ij].transpose(1, 0, 2)
    dv = oj - oi
    dist2 = dot_rows(dv, dv)
    dist = np.sqrt(dist2)
    axes = dv / dist[:, None]
    z = 0.5 * (oi + oj)
    rho = np.sqrt(np.maximum(0.0, radius * radius - 0.25 * dist2))
    e1, e2 = orthonormal_frame(axes)
    # Ball k keeps |z + rho (cos phi e1 + sin phi e2) - o_k| <= radius: the
    # constraint (a, b, d) of row p, column k, formed from v = z - o_k.
    v = z[:, None, :] - (pts if cols is None else pts[cols])
    two_rho = 2.0 * rho[:, None]
    a = two_rho * (v @ e1[:, :, None])[..., 0]
    b = two_rho * (v @ e2[:, :, None])[..., 0]
    d = (radius * radius - dot_rows(v, v)) - (rho * rho)[:, None]
    if cols is None:
        d[np.arange(len(ij))[:, None], ij] = math.inf  # balls i and j constrain nothing
    return (z, axes, rho, e1, e2, dist), (a, b, d)


def _pair_arcs(ij, cols, a, b, d):
    """The feasible arcs of ``_pair_circles`` as columns ``(i, j, p, phi_start,
    phi_end, full, lab_s, lab_e)``: p is the pair's row, the labels are the
    balls that end the arc, through ``cols`` as in ``_pair_circles`` (-1
    on a full circle)."""
    raw = []
    balls = repeat(range(d.shape[1])) if cols is None else cols.tolist()
    for p, ((i, j), ball, feasible) in enumerate(zip(ij.tolist(), balls, feasible_arcs(a, b, d))):
        if feasible is None:
            continue
        arcs, full = feasible
        if full:
            raw.append((i, j, p, 0.0, TWO_PI, True, -1, -1))
        else:
            raw.extend((i, j, p, s, e, False, ball[lab_s], ball[lab_e])
                       for s, e, lab_s, lab_e in arcs)
    return tuple(zip(*raw)) or ((),) * 8


def _collect_vertices(arcs, points, radius):
    """The vertices, clustered from the arcs' start and end ``points``, as
    ``(positions, triples, ends)``: their ``(n, 3)`` positions and sorted
    ball triples, and each arc's (start, end) vertex, (-1, -1) on a full
    circle.

    Each arc end lies on its arc's two balls and on the ball that ends
    it; ``DegenerateBodyError`` when the ends of one vertex name more
    than three balls."""
    i, j, _, _, _, full, lab_s, lab_e = arcs
    opened = np.flatnonzero(np.logical_not(full))
    # Rows 2k and 2k + 1 are the start and end of the k-th open arc.
    reps, index = cluster_points(points[opened].reshape(-1, 3), VERTEX_TOL * radius)
    index = np.array(index, dtype=np.intp)
    i, j, lab_s, lab_e = np.array((i, j, lab_s, lab_e), dtype=np.intp)[:, opened]
    balls = np.sort(np.stack([i.repeat(2), j.repeat(2), np.stack([lab_s, lab_e], 1).ravel()], 1))
    triples = np.empty((len(reps), 3), dtype=np.intp)
    triples[index] = balls
    other = index[(triples[index] != balls).any(1)]
    if other.size:
        vid = other.min()
        raise DegenerateBodyError(
            f"{np.unique(balls[index == vid]).size} spheres pass within tolerance of a common "
            f"point (vertex {vid} at {reps[vid].tolist()})")
    ends = np.full((len(full), 2), -1, dtype=np.intp)
    ends[opened] = index.reshape(-1, 2)
    return np.array(reps).reshape(-1, 3), triples, ends


def _facet_loops(m, i, j, full, ends):
    """The boundary loops of facets 0..m-1: arc n, from vertex ``ends[n][0]``
    to ``ends[n][1]``, is ``(n, True)`` on facet ``i[n]`` (on its left) and
    ``(n, False)`` on facet ``j[n]``.  Each full circle is a loop of its
    own; the other arcs, in arc order, are chained end to start."""
    mine = [[] for _ in range(m)]
    for n, (left, right) in enumerate(zip(i, j)):
        mine[left].append((n, True))
        mine[right].append((n, False))
    loops = []
    for sides in mine:
        closed = tuple((side,) for side in sides if full[side[0]])
        open_sides = [side for side in sides if not full[side[0]]]
        chained = chain_loops([ends[n] if fwd else ends[n][::-1] for n, fwd in open_sides])
        loops.append(closed + tuple(tuple(open_sides[k] for k in loop) for loop in chained))
    return loops


def _corner_table(loops, full, ends):
    """One row per corner of facet f's ``loops[f]``, as int arrays
    ``(facet, in_arc, in_end, out_arc, out_end, vertex)``: the arc coming
    in and the end it meets the corner with (1, phi_end, when forward), the
    arc going out and its end (0 when forward), and the vertex, from arc
    n's ``ends[n]``.  Full circles, flagged by ``full``, make no corner."""
    rows = [(f, arc, fwd, nxt, not nxt_fwd, ends[arc][fwd])
            for f, facet_loops in enumerate(loops) for loop in facet_loops
            for (arc, fwd), (nxt, nxt_fwd) in zip(loop, loop[1:] + loop[:1]) if not full[arc]]
    return np.array(rows, dtype=np.intp).reshape(-1, 6).T


def _gauss_bonnet_areas(r2, chi, corners, t_in, t_out, normals, kg=0.0):
    """Intrinsic Gauss-Bonnet areas of the regions 0..m-1, m = ``len(chi)``
    (their Euler characteristics), on spheres of squared radius ``r2``:

        A_f = r2 (2 pi chi_f - kg_f
                  - sum over corners of atan2((t_in x t_out) . n, t_in . t_out)),

    ``kg`` the boundary arcs' total geodesic curvature per region (0 on
    great circles).  Row c of the ``_corner_table`` ``corners`` is a
    corner of region ``corners[0][c]``; ``t_in[c]`` and ``t_out[c]`` are
    its two arcs' tangents in their sense of increasing phi and
    ``normals[c]`` the outward unit normal there.
    """
    m = len(chi)
    total = TWO_PI * np.asarray(chi) - kg
    facet, _, in_end, _, out_end, _ = corners
    if len(facet):  # no vertex, no corner
        # A backward arc's tangent points against the loop; the turn changes
        # sign when exactly one of the two does.
        sign = np.where(in_end == out_end, -1.0, 1.0)
        total -= np.bincount(facet, np.arctan2(sign * dot_rows(cross_rows(t_in, t_out), normals),
                                               sign * dot_rows(t_in, t_out)), m)
    return r2 * total


def _facet_measures(r2, cos_psi, sides, arcs, chi, corners, normals):
    """Areas and vector areas of the facets 0..m-1, m = ``len(chi)`` (their
    Euler characteristics), in one array pass over arcs and corners.

    Arc n has facet ``sides[n]`` on its left and ``sides[n + arcs]`` on its
    right; ``arcs`` holds per arc its angle dphi, its circle's center z,
    unit axis and radius rho, and ``(arcs, 2, 3)`` arrays of the unit
    directions ``u = cos(phi) e1 + sin(phi) e2`` and tangents ``t =
    cos(phi) e2 - sin(phi) e1`` (= axis x u) at its two ends.  The areas
    are ``_gauss_bonnet_areas`` with one geodesic curvature dphi
    ``cos_psi[n]`` per arc serving both its facets.  Each arc's Stokes
    term ``(rho z x (u_1 - u_0) + rho^2 dphi axis) / 2`` is added to its
    left facet's vector area and subtracted from its right one's.
    """
    m = len(chi)
    dphi, z, axes, rho, u, t = arcs
    _, in_arc, in_end, out_arc, out_end, _ = corners
    stokes = 0.5 * (rho[:, None] * cross_rows(z, u[:, 1] - u[:, 0])
                    + (rho * rho * dphi)[:, None] * axes)
    vector = np.bincount((3 * sides[:, None] + _XYZ).ravel(),
                         np.concatenate([stokes, -stokes]).ravel(), 3 * m).reshape(m, 3)
    kg = dphi * cos_psi
    areas = _gauss_bonnet_areas(r2, chi, corners, t[in_arc, in_end], t[out_arc, out_end],
                                normals, np.bincount(sides, np.concatenate([kg, kg]), m))
    return areas, vector


def build(lam, centers):
    """Intersect balls of radius ``1/lam`` around ``centers``.

    Redundant balls (whose facet would be empty) are dropped and listed in
    the build report.  Raises ``EmptyBodyError`` for empty intersections and
    ``DegenerateBodyError`` for empty-interior or vertex-degenerate input.
    """
    check_lam(lam)
    pts = np.atleast_2d(np.asarray(centers, dtype=float))
    if pts.shape[0] < 1 or pts.shape[1] != 3:
        raise InvalidParameterError(f"centers must be an (m, 3) array, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidParameterError("centers must be finite")
    radius = 1.0 / lam

    reps, cluster = cluster_points(pts, 1e-12 * radius)
    keep = [cluster.index(c) for c in range(len(reps))]
    duplicates = [n for n, c in enumerate(cluster) if keep[c] != n]

    from .inradius import minimal_enclosing_ball  # deferred: avoids an import cycle

    meb = minimal_enclosing_ball(pts[keep])
    return _rebuild(lam, pts, meb.radius, keep, duplicates, meb)


def _rebuild(lam, pts, meb_radius, keep=None, duplicates=(), meb=None):
    """The body of the balls of radius ``1/lam`` around ``pts[keep]`` (all of
    ``pts`` by default), whose centers have enclosing radius ``meb_radius``.
    ``meb``, the enclosing ball of ``pts[keep]`` if known, is kept on the
    body with its support remapped to the retained balls, unless a support
    ball dropped (it touched the body at a single point).

    Raises ``EmptyBodyError`` when the balls miss a common point and
    ``DegenerateBodyError`` when they only touch.  ``duplicates`` are the
    repeated centers ``build`` merged.  Without ``keep`` nothing is merged,
    which is right for the centers of a built body at a smaller radius:
    they are over 1e-12 of the larger radius apart, so the smaller merge
    tolerance would find nothing.
    """
    radius = 1.0 / lam
    if meb_radius > radius * (1.0 + 1e-12):
        raise EmptyBodyError(
            f"enclosing radius {meb_radius:.12g} of the centers exceeds the ball radius {radius:.12g}"
        )
    if meb_radius >= radius * (1.0 - 1e-12):
        raise DegenerateBodyError("the intersection has empty interior (touching balls)")
    if keep is None:
        keep = list(range(len(pts)))
    work = pts[keep]
    retained_local, (source, candidates), parts = _build_retained(lam, work, radius)
    redundant_local = [k for k in range(len(work)) if k not in retained_local]
    redundant_orig = tuple(sorted([keep[k] for k in redundant_local] + list(duplicates)))
    report = BuildReport(redundant_indices=redundant_orig,
                         duplicate_indices=tuple(duplicates),
                         source_centers=pts,
                         pair_source=source,
                         candidate_pairs=candidates)
    redundant_pts = pts[list(redundant_orig)] if redundant_orig else np.zeros((0, 3))
    return BallPolytope3(lam=lam, redundant_centers=redundant_pts, build_report=report,
                         _meb=meb.remapped(retained_local) if meb and redundant_local else meb,
                         **parts)


def _build_retained(lam, work, radius):
    """Assemble combinatorics: ``(retained, (pair_source, candidate_pairs),
    fields)``, the retained balls, the ``BuildReport`` entries of the
    candidate pairs, and the body's ``centers`` and ``_tables``.  When
    balls carry no arc they are redundant: the arcs are cut again on the
    first pass's rows of the pairs of retained balls, and on its columns
    of the retained balls; explicit columns keep their width, a dropped
    ball's entries masked by d = inf."""
    ij, cols, source = _candidate_pairs(work, radius)
    circles, (a, b, d) = _pair_circles(work, radius, ij, cols)
    retained, rows = list(range(len(work))), np.arange(len(ij))  # the pass's rows in circles
    while True:
        arcs = _pair_arcs(ij, cols, a, b, d)
        present = sorted(set(arcs[0]) | set(arcs[1]))
        if len(retained) < 2 or len(present) == len(retained):
            break
        number = np.full(len(retained), -1, dtype=np.intp)
        number[present] = np.arange(len(present))
        keep = np.flatnonzero((number[ij] >= 0).all(1))
        ij, rows = number[ij[keep]], rows[keep]
        if cols is None:
            a, b, d = (x[keep[:, None], present] for x in (a, b, d))
        else:  # a dropped ball's entries constrain nothing
            cols = number[cols[keep]]
            a, b, d = a[keep], b[keep], np.where(cols < 0, math.inf, d[keep])
        retained = [retained[k] for k in present]
    work = work[retained]
    i, j, p, starts, stops, full, _, _ = arcs
    z, axes, rho, e1, e2, dist = (x[rows[list(p)]] for x in circles)
    phi = np.array((starts, stops)).reshape(2, -1).T
    cos, sin = np.cos(phi)[..., None], np.sin(phi)[..., None]
    # Each arc's unit directions from its circle's center at its two ends.
    u = cos * e1[:, None] + sin * e2[:, None]
    positions, triples, ends = _collect_vertices(arcs, z[:, None] + rho[:, None, None] * u, radius)
    end_list = ends.tolist()
    loops = _facet_loops(len(work), i, j, full, end_list)
    corners = _corner_table(loops, full, end_list)
    chi = np.array([2 - len(f) for f in loops], dtype=np.intp)
    sides = np.array(i + j, dtype=np.intp)  # each arc's left facet, then each arc's right
    normals = (positions[corners[5]] - work[corners[0]]) / radius
    tangents = cos * e2[:, None] - sin * e1[:, None]
    areas, vectors = _facet_measures(radius * radius, 0.5 * lam * dist, sides,
                                     (phi[:, 1] - phi[:, 0], z, axes, rho, u, tangents),
                                     chi, corners, normals)
    tables = _Tables(sides.reshape(2, -1).T, z, axes, rho, e1, e2, phi, ends, dist, positions,
                     triples, corners, chi, tuple(loops), areas, vectors)
    return retained, (source, len(circles[0])), {"centers": work, "_tables": tables}


def surface_area(polytope):
    """Total boundary area: the sum of the facet areas."""
    return float(sum(polytope._tables.area.tolist()))


def volume(polytope):
    """Divergence-theorem volume.

    On facet i the position-flux integrand splits into ``R * area`` plus
    ``o_i`` dotted with the facet vector area, which Stokes reduces to
    closed-form circular-arc line integrals.
    """
    t = polytope._tables
    flux = polytope.radius * t.area + (polytope.centers[:, None] @ t.vector_area[..., None]).ravel()
    return sum(flux.tolist()) / 3.0


def _edge_tan_terms(polytope):
    """``lam * length * tan(dihedral / 2)`` of each edge, as an array: the
    edge's ``length * tan(dihedral / 2)`` on the body scaled by lam, with
    dihedral = 2 asin(lam d / 2), d the edge's center distance.
    ``InvalidParameterError`` when d >= 2R, a dihedral angle of pi or more."""
    t, lam = polytope._tables, polytope.lam
    if (t.dist >= 2.0 / lam).any():
        raise InvalidParameterError(f"dihedral angles must be below pi: center distance "
                                    f"{t.dist.max()!r} reaches 2R = {2.0 / lam!r}")
    return lam * (t.rho * (t.phi[:, 1] - t.phi[:, 0])) * np.tan(np.arcsin(0.5 * lam * t.dist))


def membership(polytope, x):
    """True iff x lies in every ball, retained and redundant alike."""
    x = np.asarray(x, dtype=float)
    d = np.linalg.norm(polytope.all_centers - x, axis=1)
    return bool(np.max(d) <= polytope.radius)


@dataclass(frozen=True)
class ConvexityReport:
    samples: int
    max_violation: float
    passed: bool


def validate_lambda_convexity(polytope, samples=2048, seed=0):
    """Empirical rolling-ball check: K fits inside each supporting ball.

    For sampled boundary points (with known supporting center o_i), every
    vertex and every other sampled boundary point must lie within 1/lam of
    o_i.  Violations above 1e-9 fail the report.
    """
    rng = np.random.default_rng(seed)
    r = polytope.radius
    pts = []
    support = []
    per_facet = max(1, samples // len(polytope.centers))
    for k, o in enumerate(polytope.centers):
        got = 0
        for _ in range(50 * per_facet):
            if got >= per_facet:
                break
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            p = o + r * u
            if membership(polytope, p):
                pts.append(p)
                support.append(k)
                got += 1
    cloud = np.vstack([polytope._tables.positions, *pts])
    worst = 0.0
    for i in set(support):
        d = np.linalg.norm(cloud - polytope.centers[i], axis=1)
        worst = max(worst, float(np.max(d) - r))
    return ConvexityReport(samples=len(pts), max_violation=worst,
                           passed=worst <= 1e-9)
