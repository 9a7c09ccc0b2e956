"""Facet, edge, and vertex spherical images summing to the full sphere."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    edge_strip_area_quadrature,
    gb_total_reference,
    make_body,
    support_assignment_counts,
    vertex_image_reference,
)
from lch import ball_polytope3 as bp3
from lch import gauss_bonnet as gb
from lch.errors import DegenerateBodyError, InvalidParameterError

FOUR_PI = 4.0 * math.pi
LENS = [[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]]


def with_tables(body, **rows):
    """The body with some of its build arrays replaced."""
    return dataclasses.replace(body, _tables=body._tables._replace(**rows))


def symmetric_triple(r0=0.4):
    u = np.array([[1, 0, 0],
                  [-0.5, math.sqrt(3) / 2, 0],
                  [-0.5, -math.sqrt(3) / 2, 0]])
    return bp3.build(1.0, (r0 - 1.0) * u)


class TestEdgeImage:
    def test_lens_strip(self):
        body = bp3.build(1.0, LENS)
        img = gb.edge_spherical_image(body.edges[0], 1.0)
        # l = pi*sqrt(3), gamma = pi/3: 2 l tan(pi/6) = 2 pi
        assert math.isclose(img, 2.0 * math.pi, rel_tol=1e-12)

    def test_flat_edge_limit(self):
        # nearly coincident centers make a nearly flat edge: tiny image
        body = bp3.build(1.0, [[0, 0, -1e-4], [0, 0, 1e-4]])
        img = gb.edge_spherical_image(body.edges[0], 1.0)
        # l ~ 2 pi, gamma ~ 2e-4: the image scales like 2 pi gamma
        assert img < 2e-3

    def test_against_strip_quadrature(self):
        body = make_body(seed=41, m=5, r0=0.45)
        assert body.edges
        for edge in body.edges[:3]:
            formula = gb.edge_spherical_image(edge, body.lam)
            quadrature = edge_strip_area_quadrature(body, edge)
            assert abs(formula - quadrature) <= 1e-6 * formula


class TestVertexImage:
    def test_lens_has_no_vertices(self):
        body = bp3.build(1.0, LENS)
        assert not body.vertices
        assert gb.gb_total(body).vertex_total == 0.0

    def test_mirror_symmetry(self):
        body = symmetric_triple()
        assert len(body.vertices) == 2
        a0 = gb.vertex_spherical_image(body, body.vertices[0])
        a1 = gb.vertex_spherical_image(body, body.vertices[1])
        assert a0 > 0.0
        assert abs(a0 - a1) < 1e-12

    def test_against_direction_assignment(self):
        body = make_body(seed=2, m=5, r0=0.4)
        assert body.vertices
        n = 400_000
        _, _, vertex_fracs = support_assignment_counts(body, n=n, seed=3)
        for k, v in enumerate(body.vertices):
            area = gb.vertex_spherical_image(body, v)
            p = vertex_fracs.get(k, 0.0)
            se = FOUR_PI * math.sqrt(max(p, 1e-9) * (1.0 - p) / n)
            assert abs(area - FOUR_PI * p) <= 4.0 * se

    def test_requires_three_facets(self):
        body = symmetric_triple()
        fake = bp3.Vertex(position=body.vertices[0].position,
                          incident=frozenset({0, 1}))
        with pytest.raises(InvalidParameterError):
            gb.vertex_spherical_image(body, fake)
        # A body's vertex triples name its balls; one naming ball 5 of three
        # has no facet to take a normal from.
        t = body._tables
        with pytest.raises(InvalidParameterError, match="missing facet 5"):
            gb.gb_total(with_tables(body, triples=np.vstack([t.triples[:1], [[0, 1, 5]]]),
                                    positions=t.positions[[0, 0]]))

    def test_against_scalar_reference(self):
        body = make_body(seed=2, m=9, r0=0.35)
        for v in body.vertices:
            assert math.isclose(gb.vertex_spherical_image(body, v),
                                vertex_image_reference(body, v), rel_tol=1e-12)

    @pytest.mark.parametrize("position", [(0.0, 0.0, 0.0), (5.0, 0.0, 0.0)])
    def test_coplanar_normals_raise(self, position):
        # The centers lie in z = 0, so a point of that plane sees coplanar
        # normals: spread over more than a half-plane at the origin
        # (solid angle 2 pi), within one far out (solid angle 0).
        body = symmetric_triple()
        fake = bp3.Vertex(position=np.array(position), incident=frozenset({0, 1, 2}))
        with pytest.raises(DegenerateBodyError, match="coplanar"):
            gb.vertex_spherical_image(body, fake)
        t = body._tables
        with pytest.raises(DegenerateBodyError, match="coplanar"):
            gb.gb_total(with_tables(body, positions=np.vstack([position, t.positions]),
                                    triples=np.vstack([[0, 1, 2], t.triples])))


class TestEdgeErrors:
    def test_straight_dihedral_raises(self):
        body = bp3.build(1.0, LENS)
        flat = dataclasses.replace(body.edges[0], dihedral=math.pi)
        with pytest.raises(InvalidParameterError, match="below pi"):
            gb.edge_spherical_image(flat, 1.0)
        # dihedral = 2 asin(lam d / 2) reaches pi at center distance d = 2R.
        t = body._tables
        with pytest.raises(InvalidParameterError, match="below pi"):
            gb.gb_total(with_tables(body, dist=np.full_like(t.dist, 2.0 * body.radius)))


class TestTotal:
    def test_matches_scalar_reference(self):
        # 230 generator bodies, m = 2..24 ten times each.
        rng = np.random.default_rng(26)
        for k in range(230):
            body = make_body(seed=7000 + k, m=2 + k % 23, r0=float(rng.uniform(0.15, 0.8)))
            rep = gb.gb_total(body)
            for got, want in zip((rep.facet_total, rep.edge_total, rep.vertex_total),
                                 gb_total_reference(body)):
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_ball(self):
        rep = gb.gb_total(bp3.build(1.0, [[0, 0, 0]]))
        assert math.isclose(rep.facet_total, FOUR_PI, rel_tol=1e-14)
        assert rep.edge_total == 0.0 and rep.vertex_total == 0.0

    def test_lens_decomposition(self):
        rep = gb.gb_total(bp3.build(1.0, LENS))
        assert math.isclose(rep.facet_total, 2.0 * math.pi, rel_tol=1e-12)
        assert math.isclose(rep.edge_total, 2.0 * math.pi, rel_tol=1e-12)
        assert rep.vertex_total == 0.0
        assert abs(rep.defect) < 1e-12

    def test_lens_family_decomposition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = rng.uniform(0.1, 0.5 * math.pi)
            body = bp3.build(1.0, [[0, 0, -math.cos(alpha)], [0, 0, math.cos(alpha)]])
            rep = gb.gb_total(body)
            assert abs(rep.facet_total - FOUR_PI * (1.0 - math.cos(alpha))) < 1e-10
            assert abs(rep.edge_total - FOUR_PI * math.cos(alpha)) < 1e-10
            assert rep.vertex_total == 0.0

    def test_random_sweep(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            seed = int(rng.integers(0, 2**31))
            m = int(rng.integers(2, 13))
            body = make_body(seed=seed, m=m, r0=float(rng.uniform(0.2, 0.7)))
            assert abs(gb.gb_total(body).defect) < 1e-9

    def test_lam_scaling_invariance(self):
        body = make_body(seed=3, m=5, r0=0.4)
        scaled = bp3.build(4.0, body.centers / 4.0)
        r1 = gb.gb_total(body)
        r2 = gb.gb_total(scaled)
        assert math.isclose(r1.facet_total, r2.facet_total, rel_tol=1e-10)
        assert math.isclose(r1.edge_total, r2.edge_total, rel_tol=1e-10)
        assert math.isclose(r1.vertex_total, r2.vertex_total, rel_tol=1e-10)

    def test_lens_maximizes_edge_term(self):
        # with the total pinned at 4*pi, the edge share is maximal exactly
        # when no vertices exist, which forces the lens
        lens_rep = gb.gb_total(bp3.build(1.0, LENS))
        assert math.isclose(lens_rep.edge_total,
                            FOUR_PI - lens_rep.facet_total, rel_tol=1e-12)
        for seed in (4, 9):
            body = make_body(seed=seed, m=5, r0=0.4)
            rep = gb.gb_total(body)
            assert body.vertices
            assert rep.edge_total < FOUR_PI - rep.facet_total - 1e-9
