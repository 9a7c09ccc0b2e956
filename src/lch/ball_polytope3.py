"""Intersections of congruent balls in R^3 and their exact measures.

A body is described by a curvature bound ``lam`` and ball centers; every
ball has radius ``1/lam``.  The build derives the boundary combinatorics:

* each unordered pair of balls meets (if at all) in a circle; every other
  ball forbids one open arc of that circle, and the surviving closed arcs
  are the edges of the body (one array pass over all candidate pairs and
  balls, see ``_pair_edges``);
* arc endpoints, deduplicated spatially, are the vertices;
* the arcs bounding each sphere's facet chain into closed oriented loops
  (facet on the left, seen from outside).

On the unit sphere of directions around a center, the facet is the
intersection of caps ``u . e_ij >= d_ij * lam / 2``, so its area follows
from the intrinsic Gauss-Bonnet identity: a boundary arc sitting on a cap
of angular radius psi has constant geodesic curvature cot(psi) and
contributes ``arc_angle * cos(psi)``; corners contribute turning angles.
Volumes come from the divergence theorem with closed-form arc integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ._circular import TWO_PI, chain_loops, cluster_points, cross_rows, dot_rows, feasible_arcs
from .errors import (
    DegenerateBodyError,
    EmptyBodyError,
    InvalidParameterError,
)

VERTEX_TOL = 1e-9  # relative to the ball radius
# Centers are cospherical when their lifted matrix is this close to rank 3
# (see _candidate_pairs).
COSPHERICAL_TOL = 1e-12
# Adjacent hull triangles whose unit normals agree this closely may be one
# facet that qhull merged and triangulated arbitrarily.
_FLAT_NORMALS = 1e-6
_XYZ = np.arange(3)


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
        t = np.array(_cross(self.circle_axis.tolist(),
                            _circle_point(self.frame[0].tolist(), self.frame[1].tolist(), phi)))
        return t if forward else -t


@dataclass(frozen=True)
class Facet:
    ball_index: int
    # Each loop is a tuple of (edge_index, forward) pairs; forward means
    # increasing phi, which keeps this facet on the left.
    boundary_loops: tuple
    area: float
    vector_area: np.ndarray


@dataclass(frozen=True)
class BuildReport:
    redundant_indices: tuple
    duplicate_indices: tuple
    source_centers: np.ndarray  # the input list, order preserved (for I/O)
    # Where the first pass, over every kept center, took its candidate
    # pairs ("hull" or "all", see _candidate_pairs); the pairs tried over
    # all passes (a pass repeats without the redundant balls).
    pair_source: str = "all"
    candidate_pairs: int = 0


@dataclass(frozen=True)
class BallPolytope3:
    """Immutable after build; all derived combinatorics is precomputed."""

    lam: float
    centers: np.ndarray           # retained centers, shape (m, 3)
    redundant_centers: np.ndarray  # shape (k, 3); their balls contain the body
    facets: tuple
    edges: tuple
    vertices: tuple
    build_report: BuildReport = field(repr=False)
    # The minimal enclosing ball of ``centers`` (an ``inradius.MEBResult``):
    # the build's, its support remapped past dropped redundant balls; None
    # when a support ball dropped, until ``inradius`` or ``erosion`` solves
    # it once and keeps it.
    _meb: object = field(default=None, compare=False, repr=False)
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

    def combinatorial_signature(self):
        """Hashable summary of the boundary structure: the counts, the
        facets' balls and the edges' ball pairs, so an edge flip (edge
        (i, j) dies as edge (k, l) is born) changes it too."""
        return (len(self.facets), len(self.edges), len(self.vertices),
                tuple(sorted(f.ball_index for f in self.facets)),
                tuple(sorted(e.pair for e in self.edges)))


def _dot(a, b):
    """a . b for two 3-sequences of floats."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """a x b for two 3-sequences of floats, as a tuple (np.cross's rounding)."""
    ax, ay, az = a
    bx, by, bz = b
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def orthonormal_frame(axes):
    """Unit vectors (e1, e2) with e1 x e2 = axis, for a unit axis of shape
    (3,) or each row of an (n, 3) array; e1 and e2 take the shape of ``axes``.

    e1 is the unit vector of the axis's least component minus its
    projection on the axis, normalized."""
    a = np.asarray(axes, dtype=float)
    rows = a.reshape(-1, 3)
    unit = np.abs(rows).argmin(1)[:, None] == _XYZ
    e1 = unit - rows[unit][:, None] * rows
    e1 /= np.sqrt(dot_rows(e1, e1))[:, None]
    return e1.reshape(a.shape), cross_rows(rows, e1).reshape(a.shape)


def _candidate_pairs(pts, radius):
    """The center pairs ``(i, j)``, i < j, that may carry an edge, in
    lexicographic order, and their source, ``"hull"`` or ``"all"``.

    An edge (i, j) has a point at distance R from o_i and o_j and at most
    R from every other center: the ball of radius R around it holds every
    center and has o_i, o_j on its sphere.  When the centers lie on one
    sphere, the two spheres meet in a circle whose plane has every other
    center on one side, so (i, j) is an edge of the centers' convex hull
    (the ball hull of Bezdek, Langi, Naszodi & Papez, DCG 38, 2007).

    The hull edges are the candidates for m >= 5 cospherical centers:
    centered, scaled to unit size and lifted to (p, |p|^2), the centered
    lifted rows have smallest singular value at most ``COSPHERICAL_TOL``
    = 1e-12 times the largest, and the sphere of that singular vector has
    radius below R (a near-planar set fits a plane instead).  Qhull
    triangulates merged near-coplanar facets arbitrarily, so every vertex
    pair of two adjacent hull triangles whose unit normals agree within
    1e-6 is a candidate too.  All pairs are candidates for m <= 4,
    centers that are not cospherical, a ``QhullError`` and a hull with
    fewer than m vertices.
    """
    m = len(pts)
    every = list(combinations(range(m), 2))
    if m <= 4:
        return every, "all"
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
        return every, "all"
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return every, "all"
    if len(hull.vertices) < m:
        return every, "all"
    simplices = hull.simplices.tolist()
    pairs = {pair for tri in simplices for pair in combinations(sorted(tri), 2)}
    normals = hull.equations[:, :3]
    flat = np.linalg.norm(normals[:, None, :] - normals[hull.neighbors], axis=2) <= _FLAT_NORMALS
    for f, k in zip(*np.nonzero(flat)):
        g = int(hull.neighbors[f, k])
        if g > f:
            pairs.update(combinations(sorted(set(simplices[f]) | set(simplices[g])), 2))
    return sorted(pairs), "hull"


def _pair_edges(pts, radius, pairs):
    """Feasible arcs of the intersection circles of the center pairs
    ``pairs``, each cut by every other ball, in one array pass.

    Returns ``(circles, raw)``.  ``circles`` holds, per pair, the circle's
    center, unit axis (from o_i toward o_j), radius, frame e1 and e2, and
    the distance of the two centers, as arrays over the pairs; ``raw``
    lists the arcs as ``(i, j, p, phi_start, phi_end, full, lab_s, lab_e)``,
    with p the pair's row in ``circles``.
    """
    ij = np.array(pairs, dtype=int).reshape(-1, 2)
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
    v = z[:, None, :] - pts
    two_rho = 2.0 * rho[:, None]
    a = two_rho * (v @ e1[:, :, None])[..., 0]
    b = two_rho * (v @ e2[:, :, None])[..., 0]
    d = (radius * radius - dot_rows(v, v)) - (rho * rho)[:, None]
    d[np.arange(len(ij))[:, None], ij] = math.inf  # balls i and j constrain nothing
    raw = []
    for p, ((i, j), feasible) in enumerate(zip(pairs, feasible_arcs(a, b, d))):
        if feasible is None:
            continue
        arcs, full = feasible
        if full:
            raw.append((i, j, p, 0.0, TWO_PI, True, None, None))
        else:
            raw.extend((i, j, p, s, e, False, lab_s, lab_e) for s, e, lab_s, lab_e in arcs)
    return (z, axes, rho, e1, e2, dist), raw


def _collect_vertices(circles, raw, radius):
    """Cluster arc endpoints into vertices; returns (vertices, endpoint map)."""
    z, _, rho, e1, e2, _ = circles
    opened = [(arc_id, arc) for arc_id, arc in enumerate(raw) if not arc[5]]
    if not opened:  # full circles only: no vertex
        return (), {}
    # Rows 2n and 2n + 1 are the start and end of the n-th open arc.
    p = np.repeat(np.array([arc[2] for _, arc in opened], dtype=int), 2)
    phi = np.array([arc[3:5] for _, arc in opened]).reshape(-1, 1)
    ends = z[p] + rho[p, None] * (np.cos(phi) * e1[p] + np.sin(phi) * e2[p])
    positions, index = cluster_points(ends, VERTEX_TOL * radius)
    incidents = [set() for _ in positions]
    endpoint_vertex = {}
    for (arc_id, (i, j, _, _, _, _, lab_s, lab_e)), vs, ve in zip(opened, index[::2], index[1::2]):
        incidents[vs].update((i, j, lab_s))
        incidents[ve].update((i, j, lab_e))
        endpoint_vertex[(arc_id, "s")] = vs
        endpoint_vertex[(arc_id, "e")] = ve
    for vid, inc in enumerate(incidents):
        if len(inc) > 3:
            raise DegenerateBodyError(
                f"{len(inc)} spheres pass within tolerance of a common point "
                f"(vertex {vid} at {positions[vid].tolist()})"
            )
    vertices = tuple(Vertex(position=p, incident=frozenset(inc))
                     for p, inc in zip(positions, incidents))
    return vertices, endpoint_vertex


def _circle_point(e1, e2, phi):
    """Unit direction cos(phi) e1 + sin(phi) e2 of a circle, as a tuple."""
    c, s = math.cos(phi), math.sin(phi)
    return (c * e1[0] + s * e2[0], c * e1[1] + s * e2[1], c * e1[2] + s * e2[2])


def _unit_tangent(frame, phi):
    """Unit tangent at phi, toward increasing phi, of the circle with
    ``frame`` (axis, e1, e2), as a tuple."""
    axis, e1, e2 = frame
    tx, ty, tz = _cross(axis, _circle_point(e1, e2, phi))
    norm = math.sqrt(tx * tx + ty * ty + tz * tz)
    return (tx / norm, ty / norm, tz / norm)


def _end_tangents(edges, frames, phis):
    """Each arc's unit tangents at (phi_start, phi_end), toward increasing
    phi; None for a full circle."""
    return [None if e.full_circle else (_unit_tangent(f, s), _unit_tangent(f, t))
            for e, f, (s, t) in zip(edges, frames, phis)]


def _facet_area(loops, edges, phis, tangents, positions, center, radius, lam):
    """Intrinsic Gauss-Bonnet area of one facet on the sphere of ``radius``
    around ``center``: ``radius^2 (2 pi chi - sum of arc angle * cos(psi) -
    sum of corner turning angles)``, with cos(psi) = lam d / 2 for an edge
    whose centers are d apart.

    ``edges`` give each edge's pair distance and end vertices,
    ``phis[e]`` its ``(phi_start, phi_end)``, ``tangents[e]`` its
    ``_end_tangents``, ``positions[v]`` vertex v and ``center`` the ball's
    center, as lists.  The build passes its own; an erosion piece passes
    those of K_t, whose edges keep their circles' axes and frames.
    """
    kg_total = 0.0
    turn_total = 0.0
    for loop in loops:
        k = len(loop)
        for idx, (eidx, forward) in enumerate(loop):
            edge = edges[eidx]
            phi_start, phi_end = phis[eidx]
            cos_psi = 0.5 * lam * edge.center_distance
            kg_total += (phi_end - phi_start) * cos_psi
            if not edge.full_circle:
                nxt_eidx, nxt_forward = loop[(idx + 1) % k]
                vid = edge.end_vertex if forward else edge.start_vertex
                t_in = tangents[eidx][1] if forward else [-x for x in tangents[eidx][0]]
                t_out = (tangents[nxt_eidx][0] if nxt_forward
                         else [-x for x in tangents[nxt_eidx][1]])
                normal = [(p - c) / radius for p, c in zip(positions[vid], center)]
                turn_total += math.atan2(_dot(_cross(t_in, t_out), normal),
                                         _dot(t_in, t_out))
    chi = 2 - len(loops)
    return radius * radius * (TWO_PI * chi - kg_total - turn_total)


def _facet_geometry(loops, edges, frames, phis, tangents, positions, center, radius, lam):
    """Area (intrinsic Gauss-Bonnet) and vector area (Stokes) of one facet."""
    area = _facet_area(loops, edges, phis, tangents, positions, center, radius, lam)
    vec = [0.0, 0.0, 0.0]
    for loop in loops:
        for eidx, forward in loop:
            edge = edges[eidx]
            axis, e1, e2 = frames[eidx]
            phi_from, phi_to = ((edge.phi_start, edge.phi_end) if forward
                                else (edge.phi_end, edge.phi_start))
            chord = [p - q for p, q in zip(_circle_point(e1, e2, phi_to),
                                           _circle_point(e1, e2, phi_from))]
            rho = edge.circle_radius
            sweep = rho * rho * (phi_to - phi_from)
            vec = [v + 0.5 * (rho * c + sweep * a) for v, c, a in
                   zip(vec, _cross(edge.circle_center.tolist(), chord), axis)]
    return area, np.array(vec)


def build(lam, centers):
    """Intersect balls of radius ``1/lam`` around ``centers``.

    Redundant balls (whose facet would be empty) are dropped and listed in
    the build report.  Raises ``EmptyBodyError`` for empty intersections and
    ``DegenerateBodyError`` for empty-interior or vertex-degenerate input.
    """
    if lam <= 0.0:
        raise InvalidParameterError(f"lam must be positive, got {lam}")
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
    retained_local, poly = _build_retained(lam, work, radius)
    redundant_local = [k for k in range(len(work)) if k not in retained_local]
    redundant_orig = tuple(sorted([keep[k] for k in redundant_local] + list(duplicates)))
    sources = poly["pair_sources"]
    report = BuildReport(redundant_indices=redundant_orig,
                         duplicate_indices=tuple(duplicates),
                         source_centers=pts,
                         pair_source=sources[0][0],
                         candidate_pairs=sum(n for _, n in sources))
    redundant_pts = pts[list(redundant_orig)] if redundant_orig else np.zeros((0, 3))
    return BallPolytope3(lam=lam, centers=poly["centers"],
                         redundant_centers=redundant_pts,
                         facets=poly["facets"], edges=poly["edges"],
                         vertices=poly["vertices"], build_report=report,
                         _meb=meb.remapped(retained_local) if meb and redundant_local else meb)


def _build_retained(lam, work, radius):
    """Assemble combinatorics, re-running if redundant balls drop out."""
    m = len(work)
    pairs, source = _candidate_pairs(work, radius)
    circles, raw = _pair_edges(work, radius, pairs)
    if m >= 2:
        present = set()
        for arc in raw:
            present.update(arc[:2])
        retained = sorted(present)
        if len(retained) < m:
            sub = work[retained]
            retained_sub, poly = _build_retained(lam, sub, radius)
            poly["pair_sources"].insert(0, (source, len(pairs)))
            return [retained[k] for k in retained_sub], poly
    retained = list(range(m))
    vertices, endpoint_vertex = _collect_vertices(circles, raw, radius)

    z, axes, rho, e1, e2, dist = circles
    radii, distances = rho.tolist(), dist.tolist()
    edges = []
    for arc_id, (i, j, p, s, e, full, _, _) in enumerate(raw):
        d = distances[p]
        dihedral = math.acos(min(1.0, max(-1.0, 1.0 - 0.5 * d * d * lam * lam)))
        edges.append(EdgeArc(pair=(i, j), circle_center=z[p], circle_axis=axes[p],
                             circle_radius=radii[p], frame=(e1[p], e2[p]),
                             phi_start=s, phi_end=e, full_circle=full,
                             start_vertex=endpoint_vertex.get((arc_id, "s")),
                             end_vertex=endpoint_vertex.get((arc_id, "e")),
                             dihedral=dihedral, center_distance=d))
    edges = tuple(edges)
    pair_frames = list(zip(axes.tolist(), e1.tolist(), e2.tolist()))  # (axis, e1, e2) as lists
    frames = [pair_frames[p] for _, _, p, *_ in raw]
    phis = [(e.phi_start, e.phi_end) for e in edges]
    tangents = _end_tangents(edges, frames, phis)
    positions = [v.position.tolist() for v in vertices]

    facets = []
    for i in range(m):
        mine = [(eidx, edges[eidx].pair[0] == i)
                for eidx in range(len(edges)) if i in edges[eidx].pair]
        closed = [((eidx, fwd),) for eidx, fwd in mine if edges[eidx].full_circle]
        open_arcs = [(eidx, fwd) for eidx, fwd in mine if not edges[eidx].full_circle]
        ends = [(edges[k].start_vertex, edges[k].end_vertex) if fwd
                else (edges[k].end_vertex, edges[k].start_vertex) for k, fwd in open_arcs]
        loops = tuple(closed) + tuple(tuple(open_arcs[k] for k in loop)
                                      for loop in chain_loops(ends))
        area, vec = _facet_geometry(loops, edges, frames, phis, tangents, positions,
                                    work[i].tolist(), radius, lam)
        facets.append(Facet(ball_index=i, boundary_loops=loops, area=area,
                            vector_area=vec))
    return retained, {"centers": work, "facets": tuple(facets),
                      "edges": edges, "vertices": vertices,
                      "pair_sources": [(source, len(pairs))]}


def surface_area(polytope):
    """Total boundary area: the sum of the facet areas."""
    return float(sum(f.area for f in polytope.facets))


def volume(polytope):
    """Divergence-theorem volume.

    On facet i the position-flux integrand splits into ``R * area`` plus
    ``o_i`` dotted with the facet vector area, which Stokes reduces to
    closed-form circular-arc line integrals.
    """
    r = polytope.radius
    total = 0.0
    for f in polytope.facets:
        total += r * f.area + float(polytope.centers[f.ball_index] @ f.vector_area)
    return total / 3.0


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
    n_facets = len(polytope.facets)
    per_facet = max(1, samples // max(1, n_facets))
    for f in polytope.facets:
        o = polytope.centers[f.ball_index]
        got = 0
        for _ in range(50 * per_facet):
            if got >= per_facet:
                break
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            p = o + r * u
            if membership(polytope, p):
                pts.append(p)
                support.append(f.ball_index)
                got += 1
    cloud = [v.position for v in polytope.vertices] + pts
    cloud = np.asarray(cloud) if cloud else np.zeros((0, 3))
    worst = 0.0
    for i in set(support):
        d = np.linalg.norm(cloud - polytope.centers[i], axis=1)
        worst = max(worst, float(np.max(d) - r))
    return ConvexityReport(samples=len(pts), max_violation=worst,
                           passed=worst <= 1e-9)
