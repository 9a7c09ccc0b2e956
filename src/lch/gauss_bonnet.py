"""Spherical-image accounting for ball polytopes.

The boundary of a convex body maps to the unit sphere of outward normals.
For an intersection of congruent balls this splits into three parts whose
areas must add up to the full sphere:

* facets carry constant Gaussian curvature ``lam^2``, contributing
  ``lam^2 * sum(areas)``;
* an edge's normals sweep a strip of width equal to the dihedral angle,
  of area ``2 * (lam * length) * tan(dihedral / 2)``;
* a vertex contributes the spherical polygon spanned by its facet
  normals.  A built vertex is trivalent: its spheres are the two of an
  arc's circle and the one whose constraint ends the arc, and the build
  raises ``DegenerateBodyError`` when more than three meet.  So the
  polygon is a triangle of unit normals a, b, c, of area ``2 atan2(|a .
  (b x c)|, 1 + a.b + b.c + c.a)`` (Van Oosterom & Strackee, IEEE Trans.
  Biomed. Eng. 30, 1983).

``gb_total`` computes the edge and vertex parts as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._circular import cross_rows, dot_rows
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


def _edge_images(edges, lam):
    """Normal-strip areas of ``edges``, as an array."""
    dihedral = np.array([e.dihedral for e in edges])
    length = np.array([e.length for e in edges])
    wide = np.flatnonzero(dihedral >= math.pi)
    if wide.size:
        raise InvalidParameterError(f"dihedral angle {dihedral[wide[0]]} must be below pi")
    return 2.0 * (lam * length) * np.tan(0.5 * dihedral)


def _vertex_images(polytope, vertices):
    """Normal-cone solid angles of ``vertices``, as an array.

    ``InvalidParameterError`` for a vertex without exactly three facets of
    the body, ``DegenerateBodyError`` for coincident or coplanar normals.
    """
    incident = [sorted(v.incident) for v in vertices]
    for inc in incident:
        if len(inc) != 3:
            raise InvalidParameterError(f"vertex needs 3 incident facets, got {len(inc)}")
    missing = {i for inc in incident for i in inc} - {f.ball_index for f in polytope.facets}
    if missing:
        raise InvalidParameterError(f"vertex references missing facet {min(missing)}")
    balls = np.array(incident, dtype=np.intp).reshape(-1, 3)
    positions = np.array([v.position for v in vertices]).reshape(-1, 1, 3)
    normals = positions - polytope.centers[balls]          # (vertex, facet, 3)
    normals /= np.sqrt(dot_rows(normals, normals))[..., None]
    a, b, c = normals.transpose(1, 0, 2)
    excess = 2.0 * np.arctan2(np.abs(dot_rows(a, cross_rows(b, c))),
                              1.0 + dot_rows(a, b) + dot_rows(b, c) + dot_rows(c, a))
    # 0 for coincident or coplanar normals within a half-plane, 2 pi for
    # coplanar normals spread beyond one: neither is a vertex of a body.
    flat = np.flatnonzero(~((excess > 0.0) & (excess < 2.0 * math.pi)))
    if flat.size:
        raise DegenerateBodyError(
            f"the facet normals at vertex {vertices[flat[0]].position.tolist()} "
            "are coincident or coplanar")
    return excess


def edge_spherical_image(edge, lam):
    """Normal-strip area of one edge on the unit sphere of directions."""
    return float(_edge_images([edge], lam)[0])


def vertex_spherical_image(polytope, vertex):
    """Area of the normal-cone triangle at a vertex (its solid angle)."""
    return float(_vertex_images(polytope, [vertex])[0])


def gb_total(polytope):
    """The three spherical-image components; their sum must be 4*pi."""
    lam = polytope.lam
    facet_total = lam * lam * sum(f.area for f in polytope.facets)
    edge_total = _edge_images(polytope.edges, lam).sum()
    vertex_total = _vertex_images(polytope, polytope.vertices).sum()
    return GBReport(facet_total=float(facet_total), edge_total=float(edge_total),
                    vertex_total=float(vertex_total))
