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

``gb_total`` reads the build's arrays (``BallPolytope3.tables``): the
facet areas, each edge's ``lam * length * tan(dihedral / 2)`` from
``ball_polytope3._edge_tan_terms``, and the vertices' positions and ball
triples, whose triangles ``_vertex_images`` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ball_polytope3 as bp3
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


def _vertex_images(polytope, positions, triples):
    """Normal-cone solid angles of the vertices at ``positions`` (n, 3),
    each on the balls of its row of ``triples`` (n, 3), as an array.

    ``InvalidParameterError`` for a ball without a facet of the body,
    ``DegenerateBodyError`` for coincident or coplanar normals.
    """
    missing = triples[(triples < 0) | (triples >= len(polytope.centers))]
    if missing.size:
        raise InvalidParameterError(f"vertex references missing facet {missing.min()}")
    normals = positions[:, None] - polytope.centers[triples]          # (vertex, facet, 3)
    normals /= np.sqrt(dot_rows(normals, normals))[..., None]
    a, b, c = normals.transpose(1, 0, 2)
    excess = 2.0 * np.arctan2(np.abs(dot_rows(a, cross_rows(b, c))),
                              1.0 + dot_rows(a, b) + dot_rows(b, c) + dot_rows(c, a))
    # 0 for coincident or coplanar normals within a half-plane, 2 pi for
    # coplanar normals spread beyond one: neither is a vertex of a body.
    flat = np.flatnonzero(~((excess > 0.0) & (excess < 2.0 * math.pi)))
    if flat.size:
        raise DegenerateBodyError(
            f"the facet normals at vertex {positions[flat[0]].tolist()} "
            "are coincident or coplanar")
    return excess


def gb_total(polytope):
    """The three spherical-image components; their sum must be 4*pi."""
    lam, t = polytope.lam, polytope.tables
    return GBReport(facet_total=lam * lam * bp3.surface_area(polytope),
                    edge_total=float((2.0 * bp3._edge_tan_terms(polytope)).sum()),
                    vertex_total=float(_vertex_images(polytope, t.positions, t.triples).sum()))
