"""Inner parallel bodies, profiles, the coarea identity, and the derivative."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_body
from lch import ball_polytope3 as bp3
from lch import erosion
from lch import inradius
from lch.errors import (
    DegenerateBodyError,
    EmptyBodyError,
    InvalidParameterError,
    NumericError,
)
from lch.inradius import inscribed_ball

FOUR_PI = 4.0 * math.pi
LENS = [[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]]
# lens plus a ball whose facet dies during erosion: the far equator point of
# the eroded lens enters B((0.3,0,0), 1-t) exactly when
# 0.3 + sqrt((1-t)^2 - 1/4) = 1 - t, i.e. at t = 13/30
EVENT_CENTERS = LENS + [[0.3, 0.0, 0.0]]
EVENT_TIME = 13.0 / 30.0


def random_centers(seed, m=None):
    """Random centers with triangular facets that shrink to points and
    edge flips; ``m`` defaults to 3..6 drawn from the seed."""
    rng = np.random.default_rng(seed)
    m = rng.integers(3, 7) if m is None else m
    u = rng.normal(size=(m, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u * rng.uniform(0.3, 0.65, size=(m, 1))


# Every event of the random_centers bodies, from a 6001-point signature
# scan of [0, r) with bisection of every change.
SCANNED_EVENTS = {
    0: (0.419176561, 0.462521183, 0.492585321, 0.492805591, 0.525190021),
    3: (0.406869281, 0.506178842, 0.522441521),
    4: (0.431968974, 0.440840594),
    5: (0.472427008, 0.472687817, 0.473032122, 0.485427222),
    7: (0.148342577, 0.192698403, 0.219510346, 0.260053144, 0.509469865),
}
# The erode benchmark's touching shape.
TOUCHING_M3 = dict(seed=31, m=3, r0=0.4)


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

    @pytest.mark.parametrize("t", [math.nan, -1.0])
    def test_nan_or_negative_distance_rejected(self, t):
        # NaN fails every comparison: checked as t < 0, it would build a body with lam = nan.
        with pytest.raises(InvalidParameterError):
            erosion.inner_parallel(bp3.build(1.0, LENS), t)

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
        assert abs(events[0] - EVENT_TIME) < 1e-12
        before = bp3.surface_area(erosion.inner_parallel(body, events[0] - 1e-8))
        after = bp3.surface_area(erosion.inner_parallel(body, events[0] + 1e-8))
        assert abs(before - after) < 1e-6
        # facet counts change across the event
        n_before = len(erosion.inner_parallel(body, events[0] - 1e-8).tables.chi)
        n_after = len(erosion.inner_parallel(body, events[0] + 1e-8).tables.chi)
        assert n_before == 3 and n_after == 2

    def test_edge_flip_is_an_event(self):
        # The counts and facets stay the same where edge (1, 4) becomes
        # edge (0, 3) at t ~ 0.40686928; only the edge pairs change.
        body = bp3.build(1.0, random_centers(3))
        events = erosion.detect_events(body)
        assert min(abs(ev - 0.4068693) for ev in events) < 1e-7

    @pytest.mark.parametrize("seed", sorted(SCANNED_EVENTS))
    def test_every_event_found(self, seed):
        # s = 5 has two pairs of events under 1e-3 apart
        events = erosion.detect_events(bp3.build(1.0, random_centers(seed)))
        expected = SCANNED_EVENTS[seed]
        assert len(events) == len(expected)
        assert all(abs(ev - x) <= 1e-8 for ev, x in zip(events, expected))


KINETIC_BODIES = {
    "event_body": lambda: bp3.build(1.0, EVENT_CENTERS),
    **{f"random_{s}": (lambda s=s: bp3.build(1.0, random_centers(s)))
       for s in sorted(SCANNED_EVENTS)},
    "three_ball": lambda: bp3.build(1.0, [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.3, 0.0, 0.0]]),
    "touching_m3": lambda: make_body(**TOUCHING_M3),
}


class TestKinetic:
    """The closed form between events against rebuilds of K_t."""

    @pytest.mark.parametrize("name", sorted(KINETIC_BODIES))
    def test_closed_form_equals_rebuild(self, name):
        body = KINETIC_BODIES[name]()
        er = erosion._Erosion(body)
        f0 = bp3.surface_area(body)
        for t in erosion.profile(body, 64).ts:
            assert abs(er.area(t) - bp3.surface_area(er.body(t))) <= 1e-12 * f0

    @pytest.mark.parametrize("name", sorted(KINETIC_BODIES))
    def test_events_bracketed_by_signature_changes(self, name):
        body = KINETIC_BODIES[name]()
        er = erosion._Erosion(body)
        flank = 1e-7 * er.inradius
        for ev in er.events:
            before = erosion._full_signature(er.body(ev - flank))
            assert before != erosion._full_signature(er.body(ev + flank))

    def test_missed_certificate_fails_loudly(self, monkeypatch):
        # without its one root the event body's piece runs past 13/30,
        # and the end rebuild has lost a ball
        monkeypatch.setattr(erosion._Piece, "next_event", lambda self, t0: math.inf)
        with pytest.raises(NumericError, match="piece 0"):
            erosion.detect_events(bp3.build(1.0, EVENT_CENTERS))

    def test_closed_form_mismatch_fails_loudly(self, monkeypatch):
        area = erosion._Piece.area
        monkeypatch.setattr(erosion._Piece, "area",
                            lambda self, t: area(self, t) * (1.0 + 1e-10))
        with pytest.raises(NumericError, match="closed-form area"):
            erosion.detect_events(bp3.build(1.0, EVENT_CENTERS))


# Bodies whose pieces the array closed form is checked on: one event, no
# event, and four events two pairs of which are under 1e-3 apart.
ARRAY_BODIES = {
    "event_body": lambda: bp3.build(1.0, EVENT_CENTERS),
    "make_body_13": lambda: make_body(seed=13, m=6, r0=0.45),
    "random_5": lambda: bp3.build(1.0, random_centers(5)),
}


def _piece_times(er, seed, n=20):
    """(piece, n random times inside it, a flank clear of its events) for
    every piece of the schedule."""
    rng = np.random.default_rng(seed)
    events, pieces, _ = er._schedule
    r = er.inradius
    flank = 2.0 * erosion._EVENT_FLANK * r
    starts = [0.0] + [ev + flank for ev in events]
    stops = [ev - flank for ev in events] + [r * (1.0 - erosion._END_MARGIN)]
    return [(piece, np.sort(rng.uniform(a, b, size=n)))
            for piece, a, b in zip(pieces, starts, stops)]


class TestArrayForm:
    """``_Piece.area`` on arrays of t."""

    @pytest.mark.parametrize("name", sorted(ARRAY_BODIES))
    def test_batch_equals_single_evaluations(self, name):
        er = erosion._Erosion(ARRAY_BODIES[name]())
        pieces = _piece_times(er, 1)
        for piece, ts in pieces:
            single = [piece.area(ts[k:k + 1])[0] for k in range(len(ts))]
            assert piece.area(ts).tolist() == single
        every = np.concatenate([ts for _, ts in pieces])
        assert er.area(every).tolist() == np.concatenate(
            [piece.area(ts) for piece, ts in pieces]).tolist()

    @pytest.mark.parametrize("name", sorted(ARRAY_BODIES))
    def test_matches_rebuild_inside_every_piece(self, name):
        body = ARRAY_BODIES[name]()
        er = erosion._Erosion(body)
        f0 = bp3.surface_area(body)
        for piece, ts in _piece_times(er, 2):
            rebuilt = [bp3.surface_area(er.body(t)) for t in ts.tolist()]
            assert np.max(np.abs(piece.area(ts) - rebuilt)) <= 1e-12 * f0


def _moved(centers, seed):
    """A rigid motion of the centers: a random rotation and translation."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return centers @ q.T + rng.uniform(-2.0, 2.0, size=3)


class TestErosionMetamorphic:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.floats(0.25, 4.0))
    def test_rigid_motion_and_scaling(self, seed, m, lam):
        centers = random_centers(seed, m)
        base = erosion._Erosion(bp3.build(1.0, centers))
        r, f0 = base.inradius, bp3.surface_area(base.polytope)
        ts = np.linspace(0.0, r * (1.0 - 1e-5), 17)
        moved = erosion._Erosion(bp3.build(1.0, _moved(centers, seed)))
        assert len(moved.events) == len(base.events)
        assert all(abs(a - b) <= 1e-10 * r for a, b in zip(moved.events, base.events))
        assert all(abs(moved.area(t) - base.area(t)) <= 1e-12 * f0 for t in ts)
        # build(lam, c) is build(1, lam c) shrunk by lam
        scaled = erosion._Erosion(bp3.build(lam, centers / lam))
        assert len(scaled.events) == len(base.events)
        assert all(abs(lam * a - b) <= 1e-10 * r for a, b in zip(scaled.events, base.events))
        assert all(abs(lam * lam * scaled.area(t / lam) - base.area(t)) <= 1e-12 * f0
                   for t in ts)


def _built_area(polytope, t):
    """f(t) through the public build, as the profile computed it before the
    rebuilds shared one enclosing ball."""
    if t == 0.0:
        return bp3.surface_area(polytope)
    return bp3.surface_area(bp3.build(1.0 / (polytope.radius - t), polytope.centers))


def _restart_scan_profile(polytope, n_samples):
    """The refinement loop that rescanned from k = 0 after every insertion,
    kept verbatim as the oracle of the one-pass refinement."""
    r = inscribed_ball(polytope).radius
    events = erosion.detect_events(polytope)
    ts = set(np.linspace(0.0, r * (1.0 - erosion._END_MARGIN), n_samples))
    for ev in events:
        for t in (ev - erosion._EVENT_FLANK * r, ev + erosion._EVENT_FLANK * r):
            if 0.0 <= t < r:
                ts.add(t)
    ts = sorted(ts)
    areas = {t: _built_area(polytope, t) for t in ts}
    min_dt = 1e-4 * r  # keeps the vanishing tail near the inradius finite
    pending = True
    while pending and len(ts) < 2048:
        pending = False
        for k in range(len(ts) - 1):
            t0, t1 = ts[k], ts[k + 1]
            a0, a1 = areas[t0], areas[t1]
            if t1 - t0 > min_dt and abs(a0 - a1) > erosion._REFINE_REL * max(a0, a1):
                mid = 0.5 * (t0 + t1)
                areas[mid] = _built_area(polytope, mid)
                ts.insert(k + 1, mid)
                pending = True
                break
    return ts, [areas[t] for t in ts]


class TestRefinement:
    @pytest.mark.parametrize("body, n_samples", [
        (lambda: bp3.build(1.0, EVENT_CENTERS), 64),
        (lambda: make_body(seed=13, m=6, r0=0.45), 24),
    ], ids=["event_body", "make_body_13"])
    def test_matches_restart_scan(self, body, n_samples):
        # The areas come from the closed form, the oracle's from rebuilds.
        body = body()
        prof = erosion.profile(body, n_samples=n_samples)
        ts, areas = _restart_scan_profile(body, n_samples)
        assert prof.ts.tolist() == ts
        assert np.max(np.abs(prof.areas - areas)) <= 1e-12 * areas[0]
        assert len(ts) < 2048
        # the stop rule holds on every adjacent pair
        r = inscribed_ball(body).radius
        for t0, t1, a0, a1 in zip(ts, ts[1:], areas, areas[1:]):
            assert t1 - t0 <= 1e-4 * r or abs(a0 - a1) <= 0.01 * max(a0, a1)

    def test_matches_restart_scan_at_the_cap(self):
        # 2000 initial samples leave more failing intervals near the
        # inradius than the 48 splits the 2048-sample cap allows
        body = bp3.build(1.0, EVENT_CENTERS)
        prof = erosion.profile(body, n_samples=2000)
        ts, areas = _restart_scan_profile(body, 2000)
        assert len(ts) == 2048
        assert prof.ts.tolist() == ts
        assert np.max(np.abs(prof.areas - areas)) <= 1e-12 * areas[0]


class TestSharedEnclosingBall:
    """Rebuilds that reuse one enclosing ball equal the public build."""

    @staticmethod
    def _same_body(a, b):
        assert a.combinatorial_signature() == b.combinatorial_signature()
        assert a.tables.area.tolist() == b.tables.area.tolist()
        assert bp3.volume(a) == bp3.volume(b)
        assert np.array_equal(a.tables.positions, b.tables.positions)
        assert np.array_equal(a.tables.triples, b.tables.triples)
        assert a.build_report.redundant_indices == b.build_report.redundant_indices
        assert np.array_equal(a.centers, b.centers)

    def test_event_body_across_the_event(self):
        body = bp3.build(1.0, EVENT_CENTERS)
        er = erosion._Erosion(body)
        times = np.linspace(0.025, 0.4875, 16)
        assert times[0] < EVENT_TIME < times[-1] < er.inradius
        dropped = 0
        for t in times:
            got = er.body(t)
            self._same_body(got, bp3.build(1.0 / (body.radius - t), body.centers))
            dropped += got.build_report.redundant_indices == (2,)
        assert dropped == int(np.sum(times > EVENT_TIME))

    @pytest.mark.parametrize("seed, m, r0", [(13, 6, 0.45), (3, 5, 0.4)])
    def test_touching_bodies(self, seed, m, r0):
        body = make_body(seed=seed, m=m, r0=r0)
        er = erosion._Erosion(body)
        assert er.inradius == inscribed_ball(body).radius
        for t in np.linspace(0.0, er.inradius * 0.99, 5)[1:]:
            self._same_body(er.body(t), bp3.build(1.0 / (body.radius - t), body.centers))

    def test_inner_parallel_equals_build(self):
        body = make_body(seed=13, m=6, r0=0.45)
        r = inscribed_ball(body).radius
        assert erosion.inner_parallel(body, 0.0) is body
        for t in (0.1 * r, 0.5 * r, 0.99 * r):
            self._same_body(erosion.inner_parallel(body, t),
                            bp3.build(1.0 / (body.radius - t), body.centers))
        with pytest.raises(EmptyBodyError):
            erosion.inner_parallel(body, r)

    def test_one_enclosing_ball_per_body(self, monkeypatch):
        centers = make_body(seed=31, m=5, r0=0.4).centers
        calls = []
        original = inradius.minimal_enclosing_ball

        def counted(points):
            calls.append(len(points))
            return original(points)

        monkeypatch.setattr(inradius, "minimal_enclosing_ball", counted)
        monkeypatch.setattr(erosion, "minimal_enclosing_ball", counted)
        body = bp3.build(1.0, centers)
        erosion.profile(body, 16)
        erosion.volume_via_profile(body)
        assert calls == [5]

    def test_one_schedule_per_body(self, monkeypatch):
        # one rebuild at the end of each piece and one just past each event
        body = bp3.build(1.0, EVENT_CENTERS)
        calls = []
        original = bp3._rebuild

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(bp3, "_rebuild", counted)
        prof = erosion.profile(body, 64)
        erosion.volume_via_profile(body)
        assert erosion.detect_events(body) == prof.events
        assert len(prof.events) == 1 and len(calls) == 3

    def test_emptiness_test_raises_like_build(self):
        body = bp3.build(1.0, EVENT_CENTERS)
        er = erosion._Erosion(body)
        for t, error in ((er.inradius, DegenerateBodyError), (0.6, EmptyBodyError)):
            with pytest.raises(error):
                bp3.build(1.0 / (body.radius - t), body.centers)
            with pytest.raises(error):
                er.body(t)
        centers = np.zeros((1, 3))
        with pytest.raises(DegenerateBodyError):
            bp3._rebuild(1.0, centers, 1.0)
        with pytest.raises(EmptyBodyError):
            bp3._rebuild(1.0, centers, 1.0 + 1e-9)
        bp3._rebuild(1.0, centers, 1.0 - 1e-9)


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

    def test_unconverged_piece_fails_loudly(self, monkeypatch):
        # volume_via_profile imports tanhsinh when it runs, so patching the
        # scipy attribute reaches it.
        import scipy.integrate

        tanhsinh = scipy.integrate.tanhsinh
        monkeypatch.setattr(scipy.integrate, "tanhsinh",
                            lambda *args, **kwargs: tanhsinh(*args, **kwargs, maxlevel=1))
        with pytest.raises(NumericError, match="erosion piece 0"):
            erosion.volume_via_profile(bp3.build(1.0, EVENT_CENTERS))

    def test_vanishing_triangle_events(self):
        # Triangular facets shrink to points here, so four spheres meet at
        # each event and a rebuild exactly there is degenerate.
        body = bp3.build(1.0, random_centers(5))
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

    @pytest.mark.parametrize("t", [math.nan, 0.0, -1.0])
    def test_step_must_be_positive(self, t):
        # The remainders are divided by t^2; NaN must not slip through as a report.
        with pytest.raises(InvalidParameterError, match="must be positive"):
            erosion.expansion_check(bp3.build(1.0, LENS), t)

    def test_event_inside_window_rejected(self):
        body = bp3.build(1.0, EVENT_CENTERS)
        with pytest.raises(InvalidParameterError):
            erosion.expansion_check(body, t=0.45)
