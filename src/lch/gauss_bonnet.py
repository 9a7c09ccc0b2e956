"""Spherical-image accounting for ball polytopes.

The boundary of a convex body maps to the unit sphere of outward normals.
For an intersection of congruent balls this splits into three parts whose
areas must add up to the full sphere:

* facets carry constant Gaussian curvature ``lam^2``, contributing
  ``lam^2 * sum(areas)``;
* an edge's normals sweep a strip of width equal to the dihedral angle,
  of area ``2 * (lam * length) * tan(dihedral / 2)``;
* a vertex contributes the geodesic polygon spanned by its facet normals,
  measured by spherical excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball_polytope3 import _cross, _dot
from .errors import DegenerateBodyError, InvalidParameterError

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class GBReport:
    facet_total: float
    edge_total: float
    vertex_total: float

    @property
    def grand_total(self):
        return self.facet_total + self.edge_total + self.vertex_total

    @property
    def defect(self):
        return self.grand_total - FOUR_PI


def edge_spherical_image(edge, lam):
    """Normal-strip area of one edge on the unit sphere of directions."""
    if edge.dihedral >= math.pi:
        raise InvalidParameterError(f"dihedral angle {edge.dihedral} must be below pi")
    return 2.0 * (lam * edge.length) * math.tan(0.5 * edge.dihedral)


def _unit(a):
    norm = math.sqrt(_dot(a, a))
    return [x / norm for x in a]


def vertex_normals(polytope, vertex):
    """Outward facet normals at a vertex, ordered cyclically.

    The normals are sorted by angle around their spherical centroid; for
    the non-degenerate (trivalent) vertices produced by the build this
    fixes a simple convex spherical polygon.
    """
    r = polytope.radius
    idx = {f.ball_index: k for k, f in enumerate(polytope.facets)}
    position = vertex.position.tolist()
    normals = []
    for i in sorted(vertex.incident):
        if i not in idx:
            raise InvalidParameterError(f"vertex references missing facet {i}")
        normals.append(_unit([(p - c) / r for p, c in
                              zip(position, polytope.centers[i].tolist())]))
    total = [sum(n[c] for n in normals) for c in range(3)]
    if math.sqrt(_dot(total, total)) < 1e-12:
        raise DegenerateBodyError("vertex normals have no well-defined centroid")
    centroid = _unit(total)
    n0 = normals[0]
    along = _dot(n0, centroid)
    e1 = _unit([a - along * c for a, c in zip(n0, centroid)])
    e2 = _cross(centroid, e1)
    ang = [math.atan2(_dot(n, e2), _dot(n, e1)) for n in normals]
    return np.array([normals[k] for k in sorted(range(len(normals)), key=ang.__getitem__)])


def vertex_spherical_image(polytope, vertex):
    """Area of the normal-cone polygon at a vertex (spherical excess)."""
    normals = vertex_normals(polytope, vertex).tolist()
    k = len(normals)
    if k < 3:
        raise InvalidParameterError(f"vertex needs >= 3 incident facets, got {k}")
    angle_sum = 0.0
    for a in range(k):
        prev_n = normals[(a - 1) % k]
        this_n = normals[a]
        next_n = normals[(a + 1) % k]
        pp, pn = _dot(prev_n, this_n), _dot(next_n, this_n)
        u = [p - pp * t for p, t in zip(prev_n, this_n)]
        w = [q - pn * t for q, t in zip(next_n, this_n)]
        nu, nw = math.sqrt(_dot(u, u)), math.sqrt(_dot(w, w))
        if nu < 1e-14 or nw < 1e-14:
            raise DegenerateBodyError("coincident normals at a vertex")
        angle_sum += math.acos(min(1.0, max(-1.0, _dot(u, w) / (nu * nw))))
    excess = angle_sum - (k - 2) * math.pi
    if excess <= 0.0:
        raise DegenerateBodyError("vertex normals are not in convex position")
    return excess


def gb_total(polytope):
    """The three spherical-image components; their sum must be 4*pi."""
    lam = polytope.lam
    facet_total = lam * lam * sum(f.area for f in polytope.facets)
    edge_total = sum(edge_spherical_image(e, lam) for e in polytope.edges)
    vertex_total = sum(vertex_spherical_image(polytope, v) for v in polytope.vertices)
    return GBReport(facet_total=float(facet_total), edge_total=float(edge_total),
                    vertex_total=float(vertex_total))
