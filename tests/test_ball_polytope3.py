"""Build combinatorics and exact measures of ball polytopes."""

import functools
import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import facet_loops, make_body, mc_facet_area, slice_facet_area
from lch import ball_polytope3 as bp3
from lch import erosion, harness, inradius, projection_ratio
from lch.errors import DegenerateBodyError, EmptyBodyError, InvalidParameterError

FOUR_PI = 4.0 * math.pi
LENS_CENTERS = [[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]]


def lens(lam=1.0):
    return bp3.build(lam, np.asarray(LENS_CENTERS) / lam)


class TestBuild:
    def test_lens_combinatorics(self):
        body = lens()
        t = body.tables
        assert (len(t.chi), len(t.positions), len(t.pair)) == (2, 0, 1)
        assert t.ends[0].tolist() == [-1, -1]  # a full circle
        assert math.isclose(t.rho[0], math.sqrt(3.0) / 2.0, rel_tol=1e-14)
        dihedral = 2.0 * math.asin(0.5 * body.lam * t.dist[0])
        assert math.isclose(dihedral, math.pi / 3.0, rel_tol=1e-12)

    def test_single_ball(self):
        t = bp3.build(1.0, [[0.1, -0.2, 0.3]]).tables
        assert len(t.chi) == 1
        assert len(t.pair) == 0
        assert math.isclose(t.area[0], FOUR_PI, rel_tol=1e-14)

    def test_redundant_ball_reported_and_dropped(self):
        body = bp3.build(1.0, LENS_CENTERS + [[0.0, 0.0, 0.4]])
        assert body.build_report.redundant_indices == (2,)
        assert len(body.tables.chi) == 2
        assert math.isclose(bp3.surface_area(body), 2.0 * math.pi, rel_tol=1e-12)

    def test_redundancy_by_membership_sampling(self):
        body = bp3.build(1.0, LENS_CENTERS)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.0, 1.0, size=(5000, 3))
        inside = np.array([bp3.membership(body, p) for p in pts])
        third = np.linalg.norm(pts - np.array([0.0, 0.0, 0.4]), axis=1) <= 1.0
        assert np.all(third[inside])  # B(0,0,0.4) really contains the lens

    def test_empty_intersection(self):
        with pytest.raises(EmptyBodyError, match="enclosing radius"):
            bp3.build(1.0, [[0, 0, 0], [3.0, 0, 0]])

    def test_balls_a_diameter_apart_fail_the_enclosing_test(self):
        # The enclosing-radius test runs before any intersection circle.
        with pytest.raises(DegenerateBodyError, match="touching"):
            bp3.build(1.0, [[0, 0, -1.0], [0, 0, 1.0], [0.5, 0, 0]])
        with pytest.raises(EmptyBodyError, match="enclosing radius"):
            bp3.build(1.0, [[0, 0, -(1.0 + 1e-9)], [0, 0, 1.0 + 1e-9], [0.5, 0, 0]])

    def test_degenerate_touching(self):
        with pytest.raises(DegenerateBodyError):
            bp3.build(1.0, [[0, 0, -1.0], [0, 0, 1.0]])

    def test_four_spheres_through_a_point_rejected(self):
        # touching construction with four coplanar-symmetric directions makes
        # four spheres meet at two common points
        u = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
        with pytest.raises(DegenerateBodyError):
            bp3.build(1.0, -0.6 * u)

    def test_bodies_compare_by_identity(self):
        body, again = lens(), lens()
        assert body == body and body != again
        assert hash(body) == hash(body)
        assert body in {body} and again not in {body}
        assert body in [again, body] and again not in [body]

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            bp3.build(-1.0, LENS_CENTERS)
        with pytest.raises(InvalidParameterError):
            bp3.build(1.0, np.zeros((0, 3)))


class TestMeasures:
    def test_ball_measures(self):
        body = bp3.build(1.0, [[0, 0, 0]])
        assert math.isclose(bp3.surface_area(body), FOUR_PI, rel_tol=1e-14)
        assert math.isclose(bp3.volume(body), FOUR_PI / 3.0, rel_tol=1e-14)

    def test_lens_closed_forms(self):
        body = lens()
        assert math.isclose(bp3.surface_area(body), 2.0 * math.pi, rel_tol=1e-12)
        assert math.isclose(bp3.volume(body), 5.0 * math.pi / 12.0, rel_tol=1e-12)

    def test_lens_family_matches_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            alpha = rng.uniform(0.05, 0.5 * math.pi)
            d = 2.0 * math.cos(alpha)
            body = bp3.build(1.0, [[0, 0, -d / 2], [0, 0, d / 2]])
            h = 1.0 - math.cos(alpha)
            assert math.isclose(bp3.surface_area(body), FOUR_PI * h, rel_tol=1e-10)
            assert math.isclose(bp3.volume(body),
                                (2.0 * math.pi / 3.0) * h * h * (3.0 - h),
                                rel_tol=1e-10)

    def test_facet_area_against_monte_carlo(self):
        body = make_body(seed=5, m=4, r0=0.45)
        for k, area in enumerate(body.tables.area.tolist()):
            est, se = mc_facet_area(body, k, n=300_000, seed=k)
            assert abs(area - est) <= 3.0 * se

    def test_volume_against_monte_carlo(self):
        body = make_body(seed=8, m=6, r0=0.5)
        est, se = harness.mc_volume(body, n_samples=1_000_000, seed=1)
        assert abs(bp3.volume(body) - est) <= 3.0 * se

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.2, 5.0), st.integers(0, 10_000))
    def test_scaling_law(self, scale, seed):
        body = make_body(seed=seed % 100, m=5, r0=0.4)
        scaled = bp3.build(body.lam / scale, body.centers * scale)
        assert math.isclose(bp3.surface_area(scaled),
                            scale ** 2 * bp3.surface_area(body), rel_tol=1e-10)
        assert math.isclose(bp3.volume(scaled),
                            scale ** 3 * bp3.volume(body), rel_tol=1e-10)

    def test_adding_ball_shrinks_measures(self):
        rng = np.random.default_rng(21)
        body = make_body(seed=3, m=4, r0=0.5)
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            extra = 0.4 * u  # within 2R(1 - eps) of every existing center
            grown = bp3.build(1.0, np.vstack([body.centers, extra]))
            assert bp3.surface_area(grown) <= bp3.surface_area(body) + 1e-12
            assert bp3.volume(grown) <= bp3.volume(body) + 1e-12
            if len(grown.build_report.redundant_indices) == 0:
                assert bp3.surface_area(grown) < bp3.surface_area(body) - 1e-12


class TestInvariants:
    def test_edge_dihedral_identity(self):
        body = make_body(seed=17, m=7, r0=0.35)
        t = body.tables
        for n, (i, j) in enumerate(t.pair.tolist()):
            d = np.linalg.norm(body.centers[i] - body.centers[j])
            lhs = math.cos(2.0 * math.asin(0.5 * body.lam * t.dist[n]))  # the dihedral angle's
            rhs = 1.0 - 0.5 * d * d * body.lam ** 2
            assert abs(lhs - rhs) < 1e-10
            # cross-check via outward normals at an edge point
            phi_start, phi_end = t.phi[n].tolist()
            phi = phi_start + 0.3 * (phi_end - phi_start)
            x = t.z[n] + t.rho[n] * (math.cos(phi) * t.e1[n] + math.sin(phi) * t.e2[n])
            n_i = (x - body.centers[i]) / body.radius
            n_j = (x - body.centers[j]) / body.radius
            assert abs(float(n_i @ n_j) - lhs) < 1e-10

    def test_euler_formula_trivalent(self):
        for seed in range(8):
            t = make_body(seed=seed, m=6, r0=0.4).tables
            if len(t.positions):
                assert len(t.positions) - len(t.pair) + len(t.chi) == 2

    def test_vertices_on_spheres_and_inside_balls(self):
        body = make_body(seed=30, m=8, r0=0.3)
        for position, balls in zip(body.tables.positions, body.tables.triples.tolist()):
            for i in balls:
                d = np.linalg.norm(position - body.centers[i])
                assert abs(d - body.radius) < 1e-10
            for k in range(len(body.centers)):
                d = np.linalg.norm(position - body.centers[k])
                assert d <= body.radius + 1e-10

    def test_membership_examples(self):
        body = lens()
        assert bp3.membership(body, [0.0, 0.0, 0.0])
        assert not bp3.membership(body, [0.0, 0.0, 0.51])
        ball = bp3.build(1.0, [[0, 0, 0]])
        assert bp3.membership(ball, [1.0, 0.0, 0.0])

    def test_validate_lambda_convexity(self):
        for body in (lens(), bp3.build(1.0, [[0, 0, 0]]), make_body(seed=2, m=6, r0=0.4)):
            report = bp3.validate_lambda_convexity(body, samples=2000, seed=0)
            assert report.passed
            assert report.max_violation < 1e-9


@functools.cache
def metamorphic_bodies():
    """Generator bodies m = 2..24 and random-center bodies, as (lam, centers)."""
    bodies = [(1.0, make_body(seed=60 + m, m=m, r0=0.2 + 0.03 * m).centers)
              for m in range(2, 25)]
    rng = np.random.default_rng(2025)
    for m in range(2, 25):
        u = rng.normal(size=(m, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        bodies.append((lam, u * rng.uniform(0.05, 0.9, size=(m, 1)) / lam))
    return bodies


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _measures(body):
    return bp3.surface_area(body), bp3.volume(body)


class TestBuildMetamorphic:
    """Rigid motions, relabelling and a containing ball leave the body alone."""

    @pytest.mark.parametrize("k", range(46))
    def test_rotation_and_translation(self, k):
        lam, centers = metamorphic_bodies()[k]
        rng = np.random.default_rng(k)
        body = bp3.build(lam, centers)
        moved = bp3.build(lam, centers @ _rotation(rng).T + rng.uniform(-1.0, 1.0, size=3) / lam)
        assert moved.combinatorial_signature() == body.combinatorial_signature()
        for got, want in zip(_measures(moved), _measures(body)):
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("k", range(46))
    def test_permutation(self, k):
        lam, centers = metamorphic_bodies()[k]
        perm = np.random.default_rng(k).permutation(len(centers))
        body, shuffled = bp3.build(lam, centers), bp3.build(lam, centers[perm])
        count = lambda b: (len(b.tables.chi), len(b.tables.pair), len(b.tables.positions),
                           len(b.build_report.redundant_indices))
        assert count(shuffled) == count(body)
        # relabelled by center: the facet areas and the retained balls agree
        areas = lambda b: dict(zip(map(tuple, b.centers), b.tables.area.tolist()))
        got, want = areas(shuffled), areas(body)
        assert got.keys() == want.keys()
        total = bp3.surface_area(body)
        assert all(abs(got[c] - want[c]) <= 1e-12 * total for c in want)
        edges = lambda b: sorted(frozenset(map(tuple, b.centers[pair])) for pair in b.tables.pair)
        assert sorted(map(sorted, edges(shuffled))) == sorted(map(sorted, edges(body)))
        for got, want in zip(_measures(shuffled), _measures(body)):
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("k", range(46))
    def test_containing_ball_is_redundant(self, k):
        # a ball around a convex combination of the centers holds the body:
        # |x - sum w_i o_i| <= sum w_i |x - o_i| <= R
        lam, centers = metamorphic_bodies()[k]
        rng = np.random.default_rng(k)
        body = bp3.build(lam, centers)
        at = int(rng.integers(0, len(centers) + 1))
        grown = bp3.build(lam, np.insert(centers, at, rng.dirichlet(np.ones(len(centers))) @ centers,
                                         axis=0))
        assert at in grown.build_report.redundant_indices
        assert grown.combinatorial_signature()[:3] == body.combinatorial_signature()[:3]
        for got, want in zip(_measures(grown), _measures(body)):
            assert abs(got - want) <= 1e-12 * want


class TestFacetAreaOracle:
    """Facet areas against ``slice_facet_area``, which integrates each
    facet's slices and shares no arithmetic with the Gauss-Bonnet sums."""

    @pytest.mark.parametrize("k", range(46))
    def test_facet_areas(self, k):
        lam, centers = metamorphic_bodies()[k]
        body = bp3.build(lam, centers)
        if k >= 23:  # random centers: not cospherical, so every pair is tried
            assert body.build_report.pair_source == "all"
        for k, area in enumerate(body.tables.area.tolist()):
            assert abs(area - slice_facet_area(body, k)) <= 1e-12 * area

    def test_lens_caps(self):
        body = lens()
        for k in range(len(body.centers)):
            assert math.isclose(slice_facet_area(body, k), math.pi, rel_tol=1e-14)


def noisy_touching_centers(seed, m, noise):
    """A touching body's centers, each moved radially by relative ``noise``."""
    centers = make_body(seed=seed, m=m, r0=0.3 + 0.02 * (m % 10)).centers
    rng = np.random.default_rng(seed)
    return centers * (1.0 + noise * rng.standard_normal((m, 1)))


def near_cocircular_centers(eps):
    """Four centers on one circle of the common sphere, the first moved
    ``eps`` off it along the sphere, and four below: near eps = 0 the four
    make one hull facet that qhull may merge and split either way."""
    polar = [0.55 + eps, 0.55, 0.55, 0.55, 2.3, 2.5, 2.2, 2.7]
    azimuth = [0.1, 1.9, 3.3, 4.6, 0.7, 2.6, 4.0, 5.5]
    return -0.6 * np.array([[math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
                            for t, p in zip(polar, azimuth)])


def redundant_and_duplicate_centers(k):
    """A touching body plus a repeated center, a center 1e-13 from another
    and a convex combination of the centers (a redundant ball), shuffled."""
    rng = np.random.default_rng(k)
    m = 3 + k % 8
    c = make_body(seed=5000 + k, m=m, r0=0.4).centers
    rows = list(c) + [c[k % m], c[(k + 1) % m] + 1e-13, rng.dirichlet(np.ones(m)) @ c]
    return np.asarray(rows)[rng.permutation(len(rows))]


def supporting_ball_centers(seed):
    """A touching body's centers and, last, a ball of radius R that
    supports the body at one of its vertices: it is centered at distance R
    from the vertex, against a convex combination of the facet normals
    there, so its sphere passes through the vertex and it holds the body."""
    body = make_body(seed=seed, m=4 + seed % 5, r0=0.35)
    t = body.tables
    k = seed % len(t.positions)
    normals = t.positions[k] - body.centers[t.triples[k]]
    mean = np.random.default_rng(seed).dirichlet(np.ones(3)) @ normals
    return np.vstack([body.centers, t.positions[k] - body.radius * mean / np.linalg.norm(mean)])


def build_outcome(lam, centers):
    """Everything the candidate pairs may affect, as exact strings, or the
    error type."""
    try:
        body = bp3.build(lam, centers)
    except Exception as exc:
        return type(exc)
    t = body.tables
    return (body.combinatorial_signature(),
            [sorted(map(tuple, t.corners[1:, t.corners[0] == f].T.tolist()))
             for f in range(len(t.chi))],
            t.chi.tolist(),
            [a.hex() for a in t.area.tolist()],
            [[x.hex() for x in position] + balls
             for position, balls in zip(t.positions.tolist(), t.triples.tolist())],
            [(pair, *(x.hex() for x in phi), *ends)
             for pair, phi, ends in zip(t.pair.tolist(), t.phi.tolist(), t.ends.tolist())],
            body.build_report.redundant_indices)


def every_pair(pts):
    return np.array(list(combinations(range(len(pts)), 2)), dtype=np.intp).reshape(-1, 2)


def all_pairs_outcome(monkeypatch, lam, centers):
    """``build_outcome`` of the full arrangement: every pair, cut by every ball."""
    with monkeypatch.context() as patch:
        patch.setattr(bp3, "_candidate_pairs", lambda pts, radius: (every_pair(pts), None, "all"))
        return build_outcome(lam, centers)


class TestCandidatePairs:
    """Hull candidate pairs, each cut by the balls of its two hull
    triangles only, give the very build that all pairs cut by all balls
    give."""

    def test_touching_bodies_take_the_hull(self, monkeypatch):
        widths = []
        real = bp3.feasible_arcs
        monkeypatch.setattr(bp3, "feasible_arcs",
                            lambda a, b, d: widths.append(d.shape) or real(a, b, d))
        for m in range(2, 25):
            for seed in (1, 2):
                widths.clear()
                report = make_body(seed=seed, m=m, r0=0.2 + 0.03 * m).build_report
                assert report.pair_source == ("hull" if m >= 5 else "all")
                assert report.candidate_pairs <= m * (m - 1) // 2
                if m >= 6:
                    assert report.candidate_pairs < m * (m - 1) // 2
                # One pass; from m = 5 on, two cutting balls per hull edge.
                assert widths == [(report.candidate_pairs, 2 if m >= 5 else m)]

    @pytest.mark.parametrize("noise", [0.0, 1e-15, 1e-13, 1e-12, 1e-9, 1e-6, 1e-3])
    def test_noisy_touching_bodies(self, monkeypatch, noise):
        sources = set()
        for m in range(5, 25):
            centers = noisy_touching_centers(seed=m, m=m, noise=noise)
            assert build_outcome(1.0, centers) == all_pairs_outcome(monkeypatch, 1.0, centers)
            sources.add(bp3._candidate_pairs(centers, 1.0)[2])
        # Both sides of the cosphericity tolerance are exercised.
        if noise <= 1e-13:
            assert sources == {"hull"}
        elif noise >= 1e-9:
            assert sources == {"all"}

    @pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-12, 1e-9, 1e-8, -1e-7, 1e-6, 1e-4])
    def test_near_cocircular_centers(self, monkeypatch, eps):
        centers = near_cocircular_centers(eps)
        assert build_outcome(1.0, centers) == all_pairs_outcome(monkeypatch, 1.0, centers)
        pairs, cols, source = bp3._candidate_pairs(centers, 1.0)
        assert source == "hull"
        pairs = set(map(tuple, pairs.tolist()))
        if abs(eps) <= 1e-6:  # the four make one flat facet: both diagonals are tried
            assert (0, 2) in pairs and (1, 3) in pairs
            assert cols is None  # and every ball cuts every pair

    def test_redundant_and_duplicate_centers(self, monkeypatch):
        for k in range(16):
            centers = redundant_and_duplicate_centers(k)
            got = build_outcome(1.0, centers)
            assert not isinstance(got, type)
            assert got == all_pairs_outcome(monkeypatch, 1.0, centers)

    def test_explicit_columns_drop_redundant_balls(self, monkeypatch):
        # Every pair with every other ball as its explicit columns: the
        # redundant balls drop by masking their entries, not by slicing
        # columns out, and the build is the full arrangement's.  A ball
        # supporting the body at a vertex often ends arcs in the first
        # pass and drops; with its entries left in, its label would too.
        def explicit(pts, radius):
            ij = every_pair(pts)
            cols = [[k for k in range(len(pts)) if k not in pair] for pair in ij.tolist()]
            return ij, np.array(cols, dtype=np.intp).reshape(len(ij), len(pts) - 2), "all"

        cases = [redundant_and_duplicate_centers(k) for k in range(16)]
        cases += [supporting_ball_centers(seed) for seed in range(16)]
        for centers in cases:
            full = all_pairs_outcome(monkeypatch, 1.0, centers)
            assert not isinstance(full, type)
            assert full[-1]  # a ball dropped
            with monkeypatch.context() as patch:
                patch.setattr(bp3, "_candidate_pairs", explicit)
                assert build_outcome(1.0, centers) == full

    def test_near_planar_centers_take_all_pairs(self, monkeypatch):
        # Centers in convex position within ~1e-13 of a plane pass the
        # singular-value test, but they fit a plane, not a sphere: some of
        # their edges are no hull edges.
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(6, 12))
            angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
            radii = rng.uniform(0.3, 0.6, m)
            centers = np.column_stack([radii * np.cos(angles), radii * np.sin(angles),
                                       1e-13 * rng.standard_normal(m)])
            assert bp3._candidate_pairs(centers, 1.0)[1:] == (None, "all")
            assert build_outcome(1.0, centers) == all_pairs_outcome(monkeypatch, 1.0, centers)


class TestBuildTables:
    """A body's ``tables`` are the build's arrays, and their rows describe
    one body; the erosion pieces and the projected facets read the build's
    one corner table."""

    @pytest.mark.parametrize("m", range(2, 25))
    def test_objects_are_rows_of_the_tables(self, m):
        # The edge, vertex, corner and facet rows agree with one another.
        body = harness.random_polytope(harness.GenSpec(seed=400 + m, m=m, inradius=0.35))
        t = body.tables
        assert len(t.chi) == len(t.area) == len(t.vector_area) == m
        assert len(t.triples) == len(t.positions)
        for n, (pair, phi, ends) in enumerate(zip(t.pair.tolist(), t.phi.tolist(),
                                                  t.ends.tolist())):
            assert pair[0] < pair[1]
            if ends[0] < 0:
                assert (ends, phi) == ([-1, -1], [0.0, 2.0 * math.pi])
                continue
            assert phi[0] < phi[1]
            for v, angle in zip(ends, phi):
                point = t.z[n] + t.rho[n] * (math.cos(angle) * t.e1[n] + math.sin(angle) * t.e2[n])
                assert np.linalg.norm(t.positions[v] - point) <= bp3.VERTEX_TOL * body.radius
                assert set(pair) < set(t.triples[v].tolist())
        opened = t.ends[:, 0] >= 0
        facet, in_arc, in_end, out_arc, out_end, vertex = t.corners
        for f in range(m):
            cycles, full = facet_loops(t, f)
            assert t.chi[f] == 2 - len(cycles) - len(full)
            for cycle in cycles:
                for c, d in zip(cycle, cycle[1:] + cycle[:1]):
                    # Corner c's out-arc is corner d's in-arc, run the same
                    # way, with the facet on its left.
                    assert (out_arc[c], 1 - out_end[c]) == (in_arc[d], in_end[d])
                    assert t.pair[in_arc[d], 1 - in_end[d]] == f
        # Each open arc is one side of each of its two facets.
        assert len(facet) == 2 * opened.sum()
        assert sorted(zip(in_arc.tolist(), in_end.tolist())) == sorted(
            (n, end) for n in np.flatnonzero(opened).tolist() for end in (0, 1))
        for arc, end in ((in_arc, in_end), (out_arc, out_end)):
            assert opened[arc].all()
            assert (t.pair[arc] == facet[:, None]).any(1).all()
            assert np.array_equal(t.ends[arc, end], vertex)

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("rings", [1, 2])
    def test_chi_counts_each_corner_cycle_once(self, n, rings):
        # Facets 0 and 1 share ``rings`` cycles of n arcs, facets 1 and 2 a
        # full circle, and facet 3 has no boundary.  One ring is as long as
        # a cycle can be for its number of sides, so the pointer jumping
        # must run to the end.
        ring = np.arange(n)
        ends = np.concatenate([np.stack([ring, np.roll(ring, -1)], 1) + k * n
                               for k in range(rings)] + [[[-1, -1]]])
        left, right = [0] * (rings * n) + [1], [1] * (rings * n) + [2]
        corners, chi = bp3._facet_corners(4, np.array(left + right), ends)
        assert chi.tolist() == [2 - rings, 1 - rings, 1, 2]
        t = SimpleNamespace(corners=corners, pair=np.array([left, right]).T, ends=ends)
        for f, cycles in enumerate([rings, rings, 0, 0]):
            assert [len(c) for c in facet_loops(t, f)[0]] == [n] * cycles

    @staticmethod
    def keyclaim():
        centers = harness.random_polytope(harness.GenSpec(seed=1008, m=8, inradius=0.4)).centers
        projection_ratio.key_claim_check(inradius.reduce_to_touching(bp3.build(1.0, centers)))

    @staticmethod
    def erode():
        body = bp3.build(1.0, [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.3, 0.0, 0.0]])
        erosion.profile(body, 64)
        erosion.volume_via_profile(body)

    @pytest.mark.parametrize("run", ["keyclaim", "erode"])
    def test_one_corner_table_per_build(self, monkeypatch, run):
        calls = dict.fromkeys(["successors", "_build_retained"], 0)
        for name in calls:
            def counted(*args, _name=name, _original=getattr(bp3, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(bp3, name, counted)
        getattr(self, run)()
        assert calls["_build_retained"] >= 1
        assert calls["successors"] == calls["_build_retained"]
