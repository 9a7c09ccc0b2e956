"""Inner parallel bodies, profiles, the coarea identity, and the derivative."""

import math

import numpy as np
import pytest

from conftest import make_body
from lch import ball_polytope3 as bp3
from lch import erosion
from lch.errors import EmptyBodyError, InvalidParameterError
from lch.inradius import inscribed_ball

FOUR_PI = 4.0 * math.pi
LENS = [[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]]
# lens plus a ball whose facet dies during erosion: the far equator point of
# the eroded lens enters B((0.3,0,0), 1-t) exactly when
# 0.3 + sqrt((1-t)^2 - 1/4) = 1 - t, i.e. at t = 13/30
EVENT_CENTERS = LENS + [[0.3, 0.0, 0.0]]
EVENT_TIME = 13.0 / 30.0


def lens_profile(t, alpha=math.pi / 3.0):
    return FOUR_PI * (1.0 - t) ** 2 - FOUR_PI * (1.0 - t) * math.cos(alpha)


class TestInnerParallel:
    def test_ball_shrinks_concentrically(self):
        ball = bp3.build(1.0, [[0.0, 0.2, 0.0]])
        eroded = erosion.inner_parallel(ball, 0.3)
        assert math.isclose(eroded.radius, 0.7, rel_tol=1e-14)
        assert math.isclose(bp3.surface_area(eroded), FOUR_PI * 0.49, rel_tol=1e-12)

    def test_lens_keeps_centers(self):
        body = bp3.build(1.0, LENS)
        eroded = erosion.inner_parallel(body, 0.25)
        assert np.allclose(eroded.centers, body.centers)
        # new half-angle satisfies 0.75 * cos(alpha_t) = 0.5
        alpha_t = math.acos(0.5 / 0.75)
        assert math.isclose(bp3.surface_area(eroded),
                            FOUR_PI * 0.75 ** 2 * (1.0 - math.cos(alpha_t)),
                            rel_tol=1e-12)

    def test_membership_characterization(self):
        # x in K_t  iff  the ball B(x, t) fits inside K; the witness
        # direction for failure is toward the deepest-violating center
        body = make_body(seed=6, m=5, r0=0.5)
        t = 0.2
        eroded = erosion.inner_parallel(body, t)
        rng = np.random.default_rng(1)
        dirs = rng.normal(size=(64, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = rng.uniform(-1.0, 1.0, size=(10_000, 3))
        for x in pts:
            inside = erosion.bp3.membership(eroded, x)
            if inside:
                assert all(bp3.membership(body, x + t * d) for d in dirs)
            else:
                dists = np.linalg.norm(body.centers - x, axis=1)
                k = int(np.argmax(dists))
                witness = (x - body.centers[k]) / dists[k]
                assert not bp3.membership(body, x + t * witness)

    def test_too_deep_erosion_fails(self):
        body = bp3.build(1.0, LENS)
        with pytest.raises(EmptyBodyError):
            erosion.inner_parallel(body, 0.5)
        with pytest.raises(InvalidParameterError):
            erosion.inner_parallel(body, -0.1)

    def test_semigroup(self):
        body = make_body(seed=9, m=4, r0=0.5)
        two_step = erosion.inner_parallel(erosion.inner_parallel(body, 0.1), 0.2)
        one_step = erosion.inner_parallel(body, 0.3)
        assert np.array_equal(two_step.centers, one_step.centers)
        assert math.isclose(two_step.radius, one_step.radius, rel_tol=1e-14)


class TestProfile:
    def test_ball_profile(self):
        ball = bp3.build(1.0, [[0, 0, 0]])
        prof = erosion.profile(ball, n_samples=16)
        assert np.allclose(prof.areas, FOUR_PI * (1.0 - prof.ts) ** 2, rtol=1e-12)

    def test_lens_profile_closed_form(self):
        body = bp3.build(1.0, LENS)
        prof = erosion.profile(body, n_samples=16)
        expected = [lens_profile(t) for t in prof.ts]
        assert np.allclose(prof.areas, expected, rtol=1e-10)
        assert prof.events == ()

    def test_strictly_decreasing_and_bounded_below(self):
        body = make_body(seed=13, m=6, r0=0.45)
        prof = erosion.profile(body, n_samples=24)
        assert np.all(np.diff(prof.areas) < 0.0)
        r = inscribed_ball(body).radius
        floor = FOUR_PI * (r - prof.ts) ** 2
        assert np.all(prof.areas >= floor - 1e-12)

    def test_event_detection_and_continuity(self):
        body = bp3.build(1.0, EVENT_CENTERS)
        events = erosion.detect_events(body)
        assert len(events) == 1
        assert abs(events[0] - EVENT_TIME) < 1e-6
        before = bp3.surface_area(erosion.inner_parallel(body, events[0] - 1e-8))
        after = bp3.surface_area(erosion.inner_parallel(body, events[0] + 1e-8))
        assert abs(before - after) < 1e-6
        # facet counts change across the event
        n_before = len(erosion.inner_parallel(body, events[0] - 1e-8).facets)
        n_after = len(erosion.inner_parallel(body, events[0] + 1e-8).facets)
        assert n_before == 3 and n_after == 2


class TestCoareaVolume:
    def test_ball(self):
        ball = bp3.build(1.0, [[0, 0, 0]])
        assert math.isclose(erosion.volume_via_profile(ball), FOUR_PI / 3.0,
                            rel_tol=1e-9)

    def test_lens(self):
        body = bp3.build(1.0, LENS)
        assert math.isclose(erosion.volume_via_profile(body),
                            5.0 * math.pi / 12.0, rel_tol=1e-9)

    def test_matches_divergence_volume(self):
        for seed in (3, 14):
            body = make_body(seed=seed, m=5, r0=0.4)
            v1 = erosion.volume_via_profile(body)
            v2 = bp3.volume(body)
            assert abs(v1 - v2) <= 1e-6 * v2

    def test_event_body_volume(self):
        body = bp3.build(1.0, EVENT_CENTERS)
        v1 = erosion.volume_via_profile(body)
        v2 = bp3.volume(body)
        assert abs(v1 - v2) <= 1e-6 * v2

    def test_vanishing_triangle_events(self):
        # Triangular facets shrink to points here, so four spheres meet at
        # each event and a rebuild exactly there is degenerate.
        rng = np.random.default_rng(5)
        m = rng.integers(3, 7)
        u = rng.normal(size=(m, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        body = bp3.build(1.0, u * rng.uniform(0.3, 0.65, size=(m, 1)))
        r = inscribed_ball(body).radius
        prof = erosion.profile(body, n_samples=64)
        assert prof.events
        assert all(0.0 < ev < r for ev in prof.events)
        assert np.all(np.diff(prof.areas) < 0.0)
        v = bp3.volume(body)
        assert abs(erosion.volume_via_profile(body) - v) <= 1e-6 * v


class TestInitialDerivative:
    def test_ball(self):
        ball = bp3.build(1.0, [[0, 0, 0]])
        assert math.isclose(erosion.initial_derivative(ball), -2.0 * FOUR_PI,
                            rel_tol=1e-14)

    def test_lens_closed_form(self):
        body = bp3.build(1.0, LENS)
        value = erosion.initial_derivative(body)
        assert math.isclose(value, -6.0 * math.pi, rel_tol=1e-10)
        # closed-form profile gives the same slope: -8 pi + 4 pi cos(alpha)
        assert math.isclose(value, -8.0 * math.pi + FOUR_PI * 0.5, rel_tol=1e-12)

    def test_lambda_scaling(self):
        body = make_body(seed=5, m=5, r0=0.4)
        scaled = bp3.build(2.0, body.centers / 2.0)
        # halving every length halves the profile slope:
        # f_scaled(t) = f(2t)/4, so the derivative at 0 picks up a factor 1/2
        assert math.isclose(erosion.initial_derivative(scaled),
                            0.5 * erosion.initial_derivative(body), rel_tol=1e-10)

    def test_forward_difference_convergence(self):
        for seed in (1, 8):
            body = make_body(seed=seed, m=6, r0=0.45)
            d = erosion.initial_derivative(body)
            f0 = bp3.surface_area(body)
            errs = []
            for t in (1e-2, 1e-3, 1e-4):
                slope = (bp3.surface_area(erosion.inner_parallel(body, t)) - f0) / t
                errs.append(abs(slope - d))
            assert 5.0 <= errs[0] / errs[1] <= 20.0
            assert 5.0 <= errs[1] / errs[2] <= 20.0


class TestProfileComparison:
    def test_lens_against_itself(self):
        body = bp3.build(1.0, LENS)
        rep = erosion.compare_profiles(body, body)
        assert rep.passed
        assert abs(rep.min_gap) < 1e-12

    def test_symmetric_triple_dominates_matched_lens(self):
        u = np.array([[1, 0, 0],
                      [-0.5, math.sqrt(3) / 2, 0],
                      [-0.5, -math.sqrt(3) / 2, 0]])
        body = bp3.build(1.0, -0.55 * u)
        from lch.reference_bodies import lens3_from_surface_area

        lens = lens3_from_surface_area(1.0, bp3.surface_area(body))
        half = lens.center_distance / 2.0
        lens_body = bp3.build(1.0, [[0, 0, -half], [0, 0, half]])
        rep = erosion.compare_profiles(body, lens_body)
        assert rep.passed
        assert rep.r_body > rep.r_reference
        gaps_beyond_origin = rep.ts > 1e-6
        assert rep.min_gap >= -1e-9

    def test_area_mismatch_rejected(self):
        body = bp3.build(1.0, LENS)
        other = bp3.build(1.0, [[0, 0, -0.4], [0, 0, 0.4]])
        with pytest.raises(InvalidParameterError):
            erosion.compare_profiles(body, other)


class TestExpansion:
    def test_lens_quadratic_coefficient(self):
        body = bp3.build(1.0, LENS)
        rep = erosion.expansion_check(body, t=1e-2)
        assert rep.passed
        # exact remainder 4 pi cos(alpha) t^2 with alpha = pi/3
        for c in rep.coefficients:
            assert math.isclose(c, 2.0 * math.pi, rel_tol=1e-6)

    def test_ball_exact(self):
        rep = erosion.expansion_check(bp3.build(1.0, [[0, 0, 0]]), t=1e-2)
        assert rep.passed
        assert all(abs(r) < 1e-10 for r in rep.remainders)

    def test_random_second_order(self):
        body = make_body(seed=23, m=6, r0=0.4)
        rep = erosion.expansion_check(body, t=1e-2)
        assert rep.passed

    def test_event_inside_window_rejected(self):
        body = bp3.build(1.0, EVENT_CENTERS)
        with pytest.raises(InvalidParameterError):
            erosion.expansion_check(body, t=0.45)
