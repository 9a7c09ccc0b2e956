"""Generators, Monte Carlo oracles, and sweep determinism."""

import itertools
import math
import re

import numpy as np
import pytest

from lch import ball_polytope3 as bp3
from lch import harness
from lch.errors import (
    DegenerateBodyError,
    GenerationError,
    InvalidParameterError,
    NumericError,
)
from lch.inradius import inscribed_ball


class TestGenerator:
    def test_two_facets_forced_antipodal_lens(self):
        spec = harness.GenSpec(seed=1, m=2, inradius=0.4)
        body = harness.random_polytope(spec)
        assert len(body.tables.chi) == 2
        assert np.allclose(body.centers[0], -body.centers[1], atol=1e-14)
        assert abs(inscribed_ball(body).radius - 0.4) < 1e-12

    def test_deterministic_per_seed(self):
        spec = harness.GenSpec(seed=42, m=4, inradius=0.35)
        a = harness.random_polytope(spec)
        b = harness.random_polytope(spec)
        assert np.array_equal(a.centers, b.centers)

    def test_coplanar_triples(self):
        body = harness.random_polytope(harness.GenSpec(seed=3, m=3, inradius=0.5))
        assert len(body.tables.chi) == 3
        assert abs(inscribed_ball(body).radius - 0.5) < 1e-10

    def test_inradius_recovered_across_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            seed = int(rng.integers(0, 2**31))
            m = int(rng.integers(2, 10))
            r0 = float(rng.uniform(0.15, 0.8))
            body = harness.random_polytope(harness.GenSpec(seed=seed, m=m, inradius=r0))
            assert abs(inscribed_ball(body).radius - r0) < 1e-10

    def test_two_dimensional_bodies(self):
        from lch import arc_polygon2 as ap

        for c in (-1.0, 0.0, 1.0):
            spec = harness.GenSpec(seed=5, m=4, inradius=0.3, dim=2, curvature=c,
                                   lam=1.0 if c >= 0 else 0.5)
            body = harness.random_polytope(spec)
            assert abs(ap.inradius2(body).radius - 0.3) < 1e-7

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            harness.GenSpec(seed=0, m=1, inradius=0.3).validate()
        with pytest.raises(InvalidParameterError):
            harness.GenSpec(seed=0, m=4, inradius=1.5).validate()
        with pytest.raises(InvalidParameterError):
            harness.GenSpec(seed=0, m=4, inradius=0.3, dim=3, curvature=-1.0).validate()
        # Curved 2-D specs that supporting_disk would reject on every draw.
        for curvature, lam, r0, named in [
            (-1.0, 2.0, 0.6, "0.549306"),  # geodesic disks of radius atanh(1/2)
            (-1.0, 0.5, 0.6, "0.549306"),  # equidistants at their characteristic distance
            (1.0, 1.0, 0.8, "0.785398"),   # spherical disks of radius pi/4
            (0.5, 1.0, 0.3, "curvature in"),  # no metric layer
        ]:
            spec = harness.GenSpec(seed=1, m=5, inradius=r0, lam=lam, dim=2,
                                   curvature=curvature)
            with pytest.raises(InvalidParameterError, match=named):
                spec.validate()
        # Horodisks support an inscribed disk of any radius.
        harness.GenSpec(seed=1, m=5, inradius=5.0, lam=1.0, dim=2, curvature=-1.0).validate()

    def test_spent_budget_counts_rejections(self, monkeypatch):
        # Three coplanar directions surround the origin a quarter of the
        # time; every build that follows fails with the next error type.
        errors = itertools.cycle([DegenerateBodyError, NumericError])

        def failing_build(lam, centers):
            raise next(errors)("injected")

        monkeypatch.setattr(bp3, "build", failing_build)
        with pytest.raises(GenerationError) as info:
            harness.random_polytope(harness.GenSpec(seed=3, m=3, inradius=0.5), budget=12)
        counts = dict((reason, int(n)) for reason, n in re.findall(
            r"(half-space test|\w+Error) (\d+)", str(info.value).split("rejected draws:")[1]))
        assert sum(counts.values()) == 12
        assert counts["half-space test"] > 0
        assert counts["DegenerateBodyError"] >= counts["NumericError"] > 0


class TestMonteCarlo:
    def test_ball_volume(self):
        ball = bp3.build(1.0, [[0, 0, 0]])
        est, se = harness.mc_volume(ball, n_samples=1_000_000, seed=0)
        assert abs(est - 4.0 * math.pi / 3.0) <= 3.0 * se

    def test_lens_volume(self):
        lens = bp3.build(1.0, [[0, 0, -0.5], [0, 0, 0.5]])
        est, se = harness.mc_volume(lens, n_samples=1_000_000, seed=1)
        assert abs(est - 5.0 * math.pi / 12.0) <= 3.0 * se

    def test_random_body_matches_divergence(self):
        body = harness.random_polytope(harness.GenSpec(seed=9, m=6, inradius=0.4))
        est, se = harness.mc_volume(body, n_samples=1_000_000, seed=2)
        assert abs(est - bp3.volume(body)) <= 3.0 * se

    def test_deterministic(self):
        body = bp3.build(1.0, [[0, 0, -0.5], [0, 0, 0.5]])
        a = harness.mc_volume(body, n_samples=10_000, seed=3)
        b = harness.mc_volume(body, n_samples=10_000, seed=3)
        assert a == b

    def test_membership_filter_equals_every_center(self):
        # each center tests only the survivors; the mask is that of testing
        # all points against every center, retained and redundant alike
        body = bp3.build(1.0, list(harness.random_polytope(
            harness.GenSpec(seed=9, m=12, inradius=0.4)).centers) + [[0.0, 0.0, 0.0]])
        assert len(body.redundant_centers) == 1
        pts = np.random.default_rng(4).uniform(-1.5, 1.5, size=(100_000, 3))
        every = np.ones(len(pts), dtype=bool)
        for c in body.all_centers:
            every &= np.linalg.norm(pts - c, axis=1) <= body.radius
        got = harness._bp3_membership_batch(body, pts)
        assert got.any() and np.array_equal(got, every)

    def test_sample_floor(self):
        body = bp3.build(1.0, [[0, 0, 0]])
        with pytest.raises(InvalidParameterError):
            harness.mc_volume(body, n_samples=10)


class TestSurfaceOracle:
    def test_ball(self):
        ball = bp3.build(1.0, [[0, 0, 0]])
        est = harness.surface_oracle(ball, t=1e-4)
        assert abs(est - 4.0 * math.pi) <= 1e-3 * 4.0 * math.pi

    def test_lens(self):
        lens = bp3.build(1.0, [[0, 0, -0.5], [0, 0, 0.5]])
        est = harness.surface_oracle(lens, t=1e-4)
        assert abs(est - 2.0 * math.pi) <= 1e-3 * 2.0 * math.pi

    def test_richardson_tightens(self):
        body = harness.random_polytope(harness.GenSpec(seed=4, m=5, inradius=0.45))
        area = bp3.surface_area(body)
        est = harness.surface_oracle_richardson(body, t=1e-4)
        assert abs(est - area) <= 1e-5 * area

    def test_step_guard(self):
        lens = bp3.build(1.0, [[0, 0, -0.5], [0, 0, 0.5]])
        with pytest.raises(InvalidParameterError):
            harness.surface_oracle(lens, t=0.2)

    @pytest.mark.parametrize("oracle", [harness.surface_oracle, harness.surface_oracle_richardson])
    @pytest.mark.parametrize("t", [0.0, -1e-4, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, oracle, t):
        # The oracle divides by t; NaN must not slip through as a NaN area.
        lens = bp3.build(1.0, [[0, 0, -0.5], [0, 0, 0.5]])
        with pytest.raises(InvalidParameterError, match="must lie in"):
            oracle(lens, t)


class TestSweep:
    def test_no_violations_and_reconstructible(self):
        report = harness.sweep(trials=12, m_max=8, seed=7)
        assert report.passed
        assert len(report.records) == 12
        for rec in report.records:
            body = harness.random_polytope(
                harness.GenSpec(seed=rec.seed, m=rec.m, inradius=rec.inradius))
            assert math.isclose(bp3.surface_area(body), rec.surface_area,
                                rel_tol=1e-12)

    def test_sweep_is_deterministic(self):
        a = harness.sweep(trials=6, m_max=6, seed=11)
        b = harness.sweep(trials=6, m_max=6, seed=11)
        assert a.records == b.records

    @pytest.mark.parametrize("trials, m_max", [(0, 12), (-1, 12), (2, 1)])
    def test_bad_arguments_raise(self, trials, m_max):
        with pytest.raises(InvalidParameterError):
            harness.sweep(trials, m_max=m_max)

    def test_rng_streams_are_independent(self):
        a = harness.rng_stream(1, 0).normal(size=4)
        b = harness.rng_stream(1, 1).normal(size=4)
        c = harness.rng_stream(1, 0).normal(size=4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)
