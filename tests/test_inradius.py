"""Enclosing-ball duality, touching reductions, and the reverse inradius check."""

import math
import random
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from conftest import make_body
from lch import ball_polytope3 as bp3
from lch import erosion, harness, inradius
from lch.errors import InvalidParameterError, NumericError
from lch.inradius import (
    halfspace_condition,
    inscribed_ball,
    minimal_enclosing_ball,
    reduce_to_touching,
    shrink_touching,
    verify_reverse_inradius,
)

LENS = [[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]]


def _gordan_lp(dirs):
    """The Gordan LP: some convex combination of the unit directions is zero."""
    dirs = np.asarray(dirs, dtype=float)
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    n, d = dirs.shape
    res = linprog(np.zeros(n), A_eq=np.vstack([dirs.T, np.ones((1, n))]),
                  b_eq=np.r_[np.zeros(d), 1.0], bounds=[(0.0, None)] * n,
                  method="highs")
    return res.status == 0


class TestMEB:
    def test_two_points(self):
        res = minimal_enclosing_ball([[-0.5, 0, 0], [0.5, 0, 0]])
        assert np.allclose(res.center, 0.0, atol=1e-14)
        assert math.isclose(res.radius, 0.5, rel_tol=1e-14)
        assert res.support == (0, 1)

    def test_single_point(self):
        res = minimal_enclosing_ball([[0.3, -0.1, 0.2]])
        assert res.radius == 0.0

    def test_random_cloud_certified(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.0, 1.0, size=(1000, 3))
        res = minimal_enclosing_ball(pts)
        d = np.linalg.norm(pts - res.center, axis=1)
        assert np.all(d <= res.radius + 1e-10)
        # optimality certificate: support points at full distance, center in
        # their hull, so shrinking the radius by 1e-6 must exclude a support
        assert res.support
        for k in res.support:
            assert abs(d[k] - res.radius) <= 1e-10
            assert d[k] > res.radius - 1e-6
        assert halfspace_condition(pts[list(res.support)], res.center)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 40), st.sampled_from([2, 3]))
    def test_welzl_properties(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, dim))
        res = minimal_enclosing_ball(pts)
        d = np.linalg.norm(pts - res.center, axis=1)
        assert np.all(d <= res.radius + 1e-9)
        assert len(res.support) <= dim + 1
        assert np.max(d) >= res.radius - 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 3))
        a = minimal_enclosing_ball(pts)
        b = minimal_enclosing_ball(pts)
        assert np.array_equal(a.center, b.center) and a.radius == b.radius

    def test_no_containing_circumball_raises(self, monkeypatch):
        # no silent fallback ball when no basis certifies: every basis
        # solve fails, or the last basis has a negative multiplier
        pts = [[-0.5, 0, 0], [0.5, 0, 0], [0, 0.3, 0]]
        original = inradius._extend_basis
        monkeypatch.setattr(inradius, "_extend_basis",
                            lambda basis, k, p: None if basis else original(basis, k, p))
        with pytest.raises(NumericError):
            minimal_enclosing_ball(pts)
        monkeypatch.setattr(inradius, "_extend_basis", lambda basis, k, p: None)
        with pytest.raises(NumericError):
            minimal_enclosing_ball(pts)
        monkeypatch.setattr(inradius, "_extend_basis", original)
        monkeypatch.setattr(inradius, "_multipliers", lambda basis: [1.5, -0.5])
        with pytest.raises(NumericError):
            minimal_enclosing_ball(pts)


def _reference_circumball(points):
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 1:
        return pts[0].copy(), 0.0
    base = pts[0]
    rows = pts[1:] - base
    rhs = 0.5 * np.sum(rows * rows, axis=1)
    try:
        coef = np.linalg.solve(rows @ rows.T, rhs)
    except np.linalg.LinAlgError:
        return None
    center = base + coef @ rows
    return center, float(np.linalg.norm(pts[0] - center))


def _reference_welzl(points):
    """The enclosing-ball solver this module had before the move-to-front
    one: Welzl's recursion over a fixed shuffle, the ball of each boundary
    set found by brute force over its subsets.  Kept as a reference."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dim = pts.shape[1]
    order = list(range(len(pts)))
    random.Random(0x5EB).shuffle(order)
    slack = 1e-13 * max(1.0, float(np.max(np.abs(pts))))

    def contains(center, radius, p):
        return np.linalg.norm(p - center) <= radius + slack

    def ball_of_boundary(bpts):
        best = None
        for size in range(1, min(len(bpts), dim + 1) + 1):
            for comb in combinations(range(len(bpts)), size):
                cb = _reference_circumball(bpts[list(comb)])
                if cb is not None and all(contains(*cb, p) for p in bpts):
                    if best is None or cb[1] < best[1]:
                        best = cb
        return best

    def mtf(pool, boundary):
        if boundary:
            center, radius = ball_of_boundary(pts[list(boundary)])
        else:
            center, radius = np.zeros(dim), -1.0
        if len(boundary) == dim + 1:
            return center, radius, list(boundary)
        support = list(boundary)
        for pos, idx in enumerate(pool):
            if radius < 0.0 or not contains(center, radius, pts[idx]):
                center, radius, support = mtf(pool[:pos], boundary + [idx])
        return center, radius, support

    center, radius, support = mtf(order, [])
    support = tuple(sorted(i for i in support
                           if abs(np.linalg.norm(pts[i] - center) - radius)
                           <= 1e-10 * max(1.0, radius)))
    return center, radius, support


def _brute_force_ball(points):
    """Smallest ball over every subset of at most d+1 points whose
    circumball (centered in the subset's affine hull) holds them all."""
    pts = np.asarray(points, dtype=float)
    best = None
    for size in range(1, min(len(pts), pts.shape[1] + 1) + 1):
        for comb in combinations(range(len(pts)), size):
            cb = _reference_circumball(pts[list(comb)])
            if cb is None:
                continue
            center, radius = cb
            if np.all(np.linalg.norm(pts - center, axis=1) <= radius * (1.0 + 1e-14)):
                if best is None or radius < best[1]:
                    best = cb
    return best


def _assert_certified(res, pts, tol=1e-13):
    """The KKT certificate: mu >= 0, sum mu = 1, sum mu_k p_k = center,
    the support on the sphere and every point inside."""
    pts = np.asarray(pts, dtype=float)
    mu = np.asarray(res.multipliers)
    assert len(mu) == len(res.support) <= pts.shape[1] + 1
    assert list(res.support) == sorted(set(res.support))
    assert np.all(mu >= -tol)
    assert abs(mu.sum() - 1.0) <= tol
    scale = max(1.0, float(np.max(np.abs(pts))))
    assert np.max(np.abs(mu @ pts[list(res.support)] - res.center)) <= tol * scale
    d = np.linalg.norm(pts - res.center, axis=1)
    assert np.all(np.abs(d[list(res.support)] - res.radius) <= tol * scale)
    assert np.all(d <= res.radius + tol * scale)


class TestMoveToFrontSolver:
    """The move-to-front solver against the brute-force Welzl it replaced."""

    def test_random_sets_match_the_reference(self):
        rng = np.random.default_rng(23)
        for k in range(400):
            dim = 2 + k % 2
            pts = rng.normal(size=(2 + k % 39, dim)) * rng.uniform(0.1, 3.0, dim)
            res = minimal_enclosing_ball(pts)
            _assert_certified(res, pts)
            center, radius, support = _reference_welzl(pts)
            # general position: the support is unique
            assert math.isclose(res.radius, radius, rel_tol=1e-14), k
            assert res.support == support, k

    def test_generator_bodies_match_the_reference(self):
        # Their centers lie on one sphere, so any basis among them whose
        # hull holds the center is a support; the reference's basis lies
        # on the new ball's sphere too.
        for k in range(120):
            body = make_body(seed=700 + k, m=2 + k % 23, r0=0.2 + 0.005 * k)
            pts = body.centers
            res = minimal_enclosing_ball(pts)
            _assert_certified(res, pts)
            center, radius, support = _reference_welzl(pts)
            assert math.isclose(res.radius, radius, rel_tol=1e-14), k
            assert np.max(np.abs(res.center - center)) <= 1e-14
            d = np.linalg.norm(pts[list(support)] - res.center, axis=1)
            assert np.all(np.abs(d - res.radius) <= 1e-14), k

    def test_reference_left_a_point_outside(self):
        # The reference returns at a full boundary set without looking at
        # the points before it, and its ball of a boundary set is not
        # always the ball through it: here it misses a point by 0.71.
        rng = np.random.default_rng(3520)
        pts = rng.normal(size=(int(rng.integers(12, 40)), 2))
        center, radius, _ = _reference_welzl(pts)
        assert np.max(np.linalg.norm(pts - center, axis=1)) - radius > 0.7
        res = minimal_enclosing_ball(pts)
        _assert_certified(res, pts)
        assert math.isclose(res.radius, _brute_force_ball(pts)[1], rel_tol=1e-13)

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_any_dimension_against_brute_force(self, dim):
        rng = np.random.default_rng(dim)
        for k in range(12):
            pts = rng.normal(size=(dim + 2 + k % 3, dim))
            res = minimal_enclosing_ball(pts)
            _assert_certified(res, pts)
            _, radius = _brute_force_ball(pts)
            assert math.isclose(res.radius, radius, rel_tol=1e-13), k
        sphere = rng.normal(size=(dim + 5, dim))  # cospherical
        sphere /= np.linalg.norm(sphere, axis=1)[:, None]
        res = minimal_enclosing_ball(sphere)
        _assert_certified(res, sphere)
        assert math.isclose(res.radius, _brute_force_ball(sphere)[1], rel_tol=1e-13)

    @pytest.mark.parametrize("name, pts, center, radius", [
        ("one point", [[0.3, -0.2, 0.1]], [0.3, -0.2, 0.1], 0.0),
        ("two points", [[1.0, 2.0], [3.0, 2.0]], [2.0, 2.0], 1.0),
        ("duplicates", [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [0.5, 0.0], 0.5),
        ("collinear triple", [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [1.0, 0.0], 1.0),
        ("collinear in space", [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [-1.0, -1.0, -1.0]],
         [0.0, 0.0, 0.0], math.sqrt(3.0)),
        ("square", [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [0.5, 0.5],
         math.sqrt(0.5)),
        ("five on a circle", [[math.cos(a), math.sin(a)]
                              for a in 2.0 * math.pi * np.arange(5) / 5], [0.0, 0.0], 1.0),
        ("cocircular in space", [[math.cos(a), math.sin(a), 0.0]
                                 for a in (0.1, 1.9, 3.3, 4.6)] + [[0.0, 0.0, 0.5]],
         [0.0, 0.0, 0.0], 1.0),
    ])
    def test_degenerate_inputs(self, name, pts, center, radius):
        res = minimal_enclosing_ball(pts)
        _assert_certified(res, pts, tol=1e-14)
        assert np.max(np.abs(res.center - center)) <= 1e-15, name
        assert math.isclose(res.radius, radius, rel_tol=1e-15, abs_tol=1e-15), name
        ref_center, ref_radius, _ = _reference_welzl(pts)
        assert math.isclose(res.radius, ref_radius, rel_tol=1e-14, abs_tol=1e-15), name

    def test_sphere_with_noise_at_the_tolerance(self, monkeypatch):
        # Points within the 1e-13 tolerance of the sphere decide nothing,
        # which can leave a basis that does not certify; the second pass
        # at 1e-16 tells them apart.
        passes = []
        original = inradius._move_to_front_ball

        def counted(rows, tol):
            passes.append(tol)
            return original(rows, tol)

        monkeypatch.setattr(inradius, "_move_to_front_ball", counted)
        rng = np.random.default_rng(17)
        second = 0
        for k in range(400):
            pts = rng.normal(size=(4 + k % 16, 3))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            pts += 1e-13 * rng.normal(size=pts.shape)
            passes.clear()
            _assert_certified(minimal_enclosing_ball(pts), pts)
            second += len(passes) == 2
        assert second == 3

    def test_appended_enclosed_points_change_no_bit(self):
        base = make_body(seed=9, m=7, r0=0.35).centers
        res = minimal_enclosing_ball(base)
        more = minimal_enclosing_ball(np.vstack([base, base.mean(axis=0), 0.5 * base[:3]]))
        assert more.center.tobytes() == res.center.tobytes()
        assert (more.radius, more.support, more.multipliers) == (
            res.radius, res.support, res.multipliers)

    def test_remapped(self):
        res = minimal_enclosing_ball([[0.0, 0.0], [0.1, 0.0], [2.0, 0.0], [1.0, 0.2]])
        assert res.support == (0, 2)
        moved = res.remapped([0, 2, 3])
        assert moved.support == (0, 1) and moved.multipliers == res.multipliers
        assert moved.center is res.center and moved.radius == res.radius
        assert res.remapped([0, 1, 3]) is None


class TestHalfspaceCondition:
    def test_antipodal_pair(self):
        assert halfspace_condition([[1, 0, 0], [-1, 0, 0]], [0, 0, 0])

    def test_one_hemisphere_fails(self):
        pts = [[1, 0, 0.2], [0, 1, 0.2], [-1, -1, 0.3]]
        assert not halfspace_condition(pts, [0, 0, 0])

    def test_tetrahedron(self):
        pts = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        assert halfspace_condition(pts, [0, 0, 0])

    def test_coincident_point_rejected(self):
        with pytest.raises(InvalidParameterError):
            halfspace_condition([[0, 0, 0], [1, 0, 0]], [0, 0, 0])
        with pytest.raises(InvalidParameterError):
            halfspace_condition([[0, 0], [1, 0]], [0, 0])

    def test_planar_gap_test_agrees_with_lp(self):
        rng = np.random.default_rng(2000)
        answers = []
        for k in range(2000):
            m = 2 + k % 7
            o = rng.uniform(-1.0, 1.0, 2)
            ang = rng.uniform(0.0, 2.0 * math.pi, m)
            pts = o + rng.uniform(0.1, 2.0, (m, 1)) * np.column_stack([np.cos(ang), np.sin(ang)])
            answers.append(halfspace_condition(pts, o))
            assert answers[-1] == _gordan_lp(pts - o), (m, ang)
        assert 500 < sum(answers) < 1500

    @pytest.mark.parametrize("base", [0.0, 0.3, 2.0, -3.0])
    def test_planar_gaps_near_pi(self, base):
        def u(t):
            return [math.cos(base + t), math.sin(base + t)]

        assert halfspace_condition([u(0.0), [-x for x in u(0.0)]], [0.0, 0.0])
        assert not halfspace_condition([u(0.0)], [0.0, 0.0])
        for delta in (1e-12, -1e-12, 1e-6, -1e-6):
            pair = [u(0.0), u(math.pi + delta)]  # largest gap pi + |delta|
            triple = pair + [u(1.5 * math.pi + 0.5 * delta)]  # largest gap pi + delta
            assert halfspace_condition(pair, [0.0, 0.0]) == (abs(delta) < 1e-9) == _gordan_lp(pair)
            assert halfspace_condition(triple, [0.0, 0.0]) == (delta < 1e-9) == _gordan_lp(triple)


class TestSpatialHalfspaceCondition:
    """In space the test is the enclosing ball of the unit directions."""

    def test_generator_draws_agree_with_lp(self):
        rng = harness.rng_stream(4242)
        answers = []
        for k in range(5060):
            m = 3 + k % 22
            dirs = harness._unit_directions(rng, m, 3)
            answers.append(halfspace_condition(dirs, np.zeros(3)))
            assert answers[-1] == _gordan_lp(dirs), (k, m)
        assert 1000 < sum(answers) < 4500

    @pytest.mark.parametrize("inside", [True, False])
    def test_origin_near_a_hull_facet(self, inside):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(11 + inside)
        for k in range(100):
            pts = rng.normal(size=(4 + k % 9, 3))
            hull = ConvexHull(pts)
            f = k % len(hull.simplices)
            normal = hull.equations[f, :3]  # outward, unit
            o = pts[hull.simplices[f]].mean(axis=0) + (-1e-6 if inside else 1e-6) * normal
            assert halfspace_condition(pts, o) == inside == _gordan_lp(pts - o), k

    def test_generator_keeps_every_decision(self, monkeypatch):
        specs = [harness.GenSpec(seed=900 + k, m=2 + k % 23, inradius=0.4) for k in range(92)]
        bodies = [harness.random_polytope(spec).centers for spec in specs]
        draws = []

        def lp(dirs, o):
            draws.append(len(dirs))
            return _gordan_lp(np.asarray(dirs) - o)

        monkeypatch.setattr(harness, "halfspace_condition", lp)
        for spec, centers in zip(specs, bodies):
            assert harness.random_polytope(spec).centers.tobytes() == centers.tobytes(), spec
        assert len(draws) > len(specs)  # rejections happened


class TestInscribedBall:
    def test_lens(self):
        ball = inscribed_ball(bp3.build(1.0, LENS))
        assert np.allclose(ball.center, 0.0, atol=1e-14)
        assert math.isclose(ball.radius, 0.5, rel_tol=1e-14)
        assert ball.touching == (0, 1)
        assert ball.halfspace_ok

    def test_single_ball(self):
        ball = inscribed_ball(bp3.build(1.0, [[0.2, 0.0, 0.0]]))
        assert math.isclose(ball.radius, 1.0, rel_tol=1e-14)
        assert ball.touching == (0,)

    def test_generator_radius_recovered(self):
        for seed in range(10):
            body = make_body(seed=seed, m=6, r0=0.37)
            ball = inscribed_ball(body)
            assert abs(ball.radius - 0.37) < 1e-10
            assert len(ball.touching) == len(body.centers)

    def test_against_grid_maximization(self):
        body = make_body(seed=4, m=4, r0=0.42)
        radius = body.radius

        def depth(x):
            return radius - np.max(np.linalg.norm(body.centers - x, axis=1))

        grid = np.linspace(-0.3, 0.3, 31)
        best = max(((x, y, z) for x in grid for y in grid for z in grid),
                   key=lambda p: depth(np.asarray(p)))
        res = minimize(lambda p: -depth(p), np.asarray(best), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 2000})
        assert abs(-res.fun - inscribed_ball(body).radius) < 1e-8

    def test_touching_matches_meb_support(self):
        for seed in (1, 7, 23):
            body = make_body(seed=seed, m=5, r0=0.4)
            ball = inscribed_ball(body)
            meb = minimal_enclosing_ball(body.centers)
            assert set(meb.support) <= set(ball.touching)


class TestKeptEnclosingBall:
    """The enclosing ball a build keeps gives the inscribed ball of its centers."""

    @staticmethod
    def _bits(ball):
        return (ball.center.tobytes(), ball.radius.hex(), ball.touching,
                [p.tobytes() for p in ball.touch_points], ball.halfspace_ok)

    def test_same_bits_as_the_centers_alone(self):
        base = make_body(seed=9, m=7, r0=0.35).centers
        cases = {
            "touching": (base, True),
            "duplicate": (np.vstack([base, base[2]]), True),
            # kept with its support remapped past the dropped interior ball
            "redundant": (np.vstack([base, base.mean(axis=0)]), True),
            "lens": (np.asarray(LENS), True),
            "ball": (np.zeros((1, 3)), True),
        }
        for name, (centers, kept) in cases.items():
            body = bp3.build(1.0, centers)
            assert (body._meb is not None) == kept, name
            alone = SimpleNamespace(lam=body.lam, centers=body.centers)
            first = inscribed_ball(body)
            assert self._bits(first) == self._bits(inscribed_ball(alone)), name
            assert inscribed_ball(body) is first, name  # kept on the body

    def test_no_lp_on_the_key_claim_path(self, monkeypatch):
        import scipy.optimize
        from lch import projection_ratio as pr

        calls = []

        def counted(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return record

        monkeypatch.setattr(scipy.optimize, "linprog", counted("linprog"))
        monkeypatch.setattr(inradius, "halfspace_condition", counted("halfspace_condition"))
        body = bp3.build(1.0, make_body(seed=9, m=7, r0=0.35).centers)
        reduced = reduce_to_touching(body)
        assert pr.key_claim_check(reduced).passed
        assert calls == []
        monkeypatch.undo()
        ball = inscribed_ball(reduced)
        assert ball.halfspace_ok
        assert ball.halfspace_ok == _gordan_lp(np.asarray(ball.touch_points) - ball.center)


class TestOneBallPerBody:
    """One enclosing-ball solve per body: the build's, kept past dropped
    balls, shared by ``inscribed_ball`` and the erosion."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        original = inradius.minimal_enclosing_ball

        def counted(points):
            calls.append(len(points))
            return original(points)

        monkeypatch.setattr(inradius, "minimal_enclosing_ball", counted)
        monkeypatch.setattr(erosion, "minimal_enclosing_ball", counted)
        return calls

    def test_one_solve_with_a_redundant_ball(self, monkeypatch):
        base = make_body(seed=9, m=7, r0=0.35).centers
        calls = self._count(monkeypatch)
        body = bp3.build(1.0, np.vstack([base[:3], base.mean(axis=0), base[3:]]))
        assert body.build_report.redundant_indices == (3,)
        ball = inscribed_ball(body)
        erosion.profile(body, 16)
        erosion.volume_via_profile(body)
        assert calls == [8]
        assert body._meb.support == tuple(sorted(body._meb.support))
        assert set(body._meb.support) <= set(ball.touching)
        _assert_certified(body._meb, body.centers)
        assert erosion._Erosion(body).meb is body._meb

    def test_dropped_support_solves_once(self, monkeypatch):
        body = bp3.build(1.0, make_body(seed=4, m=5, r0=0.4).centers)
        calls = self._count(monkeypatch)
        bare = bp3._rebuild(1.0, body.centers, body._meb.radius)  # no ball kept
        assert bare._meb is None
        ball = inscribed_ball(bare)
        erosion.profile(bare, 16)
        assert calls == [5]
        assert ball.radius == inscribed_ball(body).radius
        assert bare._erosion.meb is bare._meb


class TestReductions:
    def test_reduce_lens_unchanged(self):
        body = bp3.build(1.0, LENS)
        reduced = reduce_to_touching(body)
        assert np.allclose(reduced.centers, body.centers)

    def test_reduce_drops_nontouching_ball(self):
        body = bp3.build(1.0, LENS + [[0.3, 0.0, 0.0]])
        assert len(body.tables.chi) == 3  # the extra ball genuinely cuts
        reduced = reduce_to_touching(body)
        assert len(reduced.tables.chi) == 2
        assert inscribed_ball(reduced).radius == inscribed_ball(body).radius
        assert bp3.surface_area(reduced) > bp3.surface_area(body) + 1e-9

    @staticmethod
    def _hex(body):
        return ([a.hex() for a in body.tables.area.tolist()],
                [[x.hex() for x in v] for v in body.tables.positions.tolist()])

    def test_reduce_returns_a_touching_body(self):
        for m in (2, 5, 9, 12):
            body = bp3.build(1.0, make_body(seed=60 + m, m=m, r0=0.4).centers)
            assert reduce_to_touching(body) is body
            fresh = bp3.build(body.lam, body.centers)
            assert self._hex(body) == self._hex(fresh)

    def test_reduce_rebuilds_redundant_and_duplicate_centers(self):
        base = make_body(seed=9, m=7, r0=0.35).centers
        for extra in (base.mean(axis=0), base[2]):
            body = bp3.build(1.0, np.vstack([base, extra]))
            assert body.build_report.redundant_indices == (7,)
            reduced = reduce_to_touching(body)
            assert reduced is not body
            assert len(reduced.redundant_centers) == 0
            assert self._hex(reduced) == self._hex(bp3.build(1.0, base))

    def test_reduce_idempotent(self):
        body = make_body(seed=11, m=6, r0=0.45)
        once = reduce_to_touching(body)
        twice = reduce_to_touching(once)
        assert np.allclose(once.centers, twice.centers)

    def test_shrink_identity_at_full_radius(self):
        body = make_body(seed=2, m=5, r0=0.4)
        same = shrink_touching(body, 0.4)
        assert np.allclose(same.centers, body.centers, atol=1e-12)

    def test_shrink_lens_half_angle(self):
        body = bp3.build(1.0, LENS)
        small = shrink_touching(body, 0.25)
        assert math.isclose(inscribed_ball(small).radius, 0.25, rel_tol=1e-12)
        # two-center geometry: 1 - cos(alpha) = 0.25
        d = np.linalg.norm(small.centers[0] - small.centers[1])
        assert math.isclose(1.0 - d / 2.0, 0.25, rel_tol=1e-12)

    def test_shrink_area_monotone(self):
        body = make_body(seed=19, m=5, r0=0.5)
        areas = [bp3.surface_area(shrink_touching(body, s))
                 for s in (0.2, 0.3, 0.4, 0.5)]
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_shrink_requires_reduced_body(self):
        body = bp3.build(1.0, LENS + [[0.3, 0.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            shrink_touching(body, 0.3)
        with pytest.raises(InvalidParameterError):
            shrink_touching(bp3.build(1.0, LENS), 0.7)


class TestReverseInradius:
    def test_lens_at_equality(self):
        rep = verify_reverse_inradius(bp3.build(1.0, LENS))
        assert rep.passed and rep.is_lens
        assert abs(rep.margin) < 1e-10

    def test_ball_at_equality(self):
        rep = verify_reverse_inradius(bp3.build(1.0, [[0, 0, 0]]))
        assert rep.passed
        assert abs(rep.margin) < 1e-10

    def test_random_sweep_strict_with_vertices(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            seed = int(rng.integers(0, 2**31))
            m = int(rng.integers(3, 9))
            body = make_body(seed=seed, m=m, r0=float(rng.uniform(0.2, 0.7)))
            rep = verify_reverse_inradius(body)
            assert rep.passed
            if len(body.tables.positions):
                assert rep.margin > 1e-8
