"""Enclosing-ball duality, touching reductions, and the reverse inradius check."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from conftest import make_body
from lch import ball_polytope3 as bp3
from lch import inradius
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
        # no silent centroid-ball fallback when every circumball solve fails
        monkeypatch.setattr(inradius, "_circumball", lambda points: None)
        with pytest.raises(NumericError):
            minimal_enclosing_ball([[-0.5, 0, 0], [0.5, 0, 0], [0, 0.3, 0]])


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

    @staticmethod
    def _lp(dirs):
        """The Gordan LP: a convex combination of the unit directions is zero."""
        dirs = np.asarray(dirs, dtype=float)
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        n, d = dirs.shape
        res = linprog(np.zeros(n), A_eq=np.vstack([dirs.T, np.ones((1, n))]),
                      b_eq=np.r_[np.zeros(d), 1.0], bounds=[(0.0, None)] * n,
                      method="highs")
        return res.status == 0

    def test_planar_gap_test_agrees_with_lp(self):
        rng = np.random.default_rng(2000)
        answers = []
        for k in range(2000):
            m = 2 + k % 7
            o = rng.uniform(-1.0, 1.0, 2)
            ang = rng.uniform(0.0, 2.0 * math.pi, m)
            pts = o + rng.uniform(0.1, 2.0, (m, 1)) * np.column_stack([np.cos(ang), np.sin(ang)])
            answers.append(halfspace_condition(pts, o))
            assert answers[-1] == self._lp(pts - o), (m, ang)
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
            assert halfspace_condition(pair, [0.0, 0.0]) == (abs(delta) < 1e-9) == self._lp(pair)
            assert halfspace_condition(triple, [0.0, 0.0]) == (delta < 1e-9) == self._lp(triple)


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
            "redundant": (np.vstack([base, base.mean(axis=0)]), False),
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

    def test_one_lp_per_body_on_the_key_claim_path(self, monkeypatch):
        from lch import projection_ratio as pr

        calls = []
        original = inradius.halfspace_condition

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(inradius, "halfspace_condition", counted)
        body = bp3.build(1.0, make_body(seed=9, m=7, r0=0.35).centers)
        assert pr.key_claim_check(reduce_to_touching(body)).passed
        assert len(calls) == 1


class TestReductions:
    def test_reduce_lens_unchanged(self):
        body = bp3.build(1.0, LENS)
        reduced = reduce_to_touching(body)
        assert np.allclose(reduced.centers, body.centers)

    def test_reduce_drops_nontouching_ball(self):
        body = bp3.build(1.0, LENS + [[0.3, 0.0, 0.0]])
        assert len(body.facets) == 3  # the extra ball genuinely cuts
        reduced = reduce_to_touching(body)
        assert len(reduced.facets) == 2
        assert inscribed_ball(reduced).radius == inscribed_ball(body).radius
        assert bp3.surface_area(reduced) > bp3.surface_area(body) + 1e-9

    @staticmethod
    def _hex(body):
        return ([f.area.hex() for f in body.facets],
                [[x.hex() for x in v.position] for v in body.vertices])

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
            if body.vertices:
                assert rep.margin > 1e-8
