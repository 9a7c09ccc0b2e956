"""Radial projection, facet ratio bounds, and conical sectors."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import SphericalVoronoi

from conftest import facet_loops, make_body, single_constraint_interval
from lch import ball_polytope3 as bp3
from lch import harness
from lch import projection_ratio as pr
from lch._circular import TWO_PI
from lch.errors import InvalidParameterError
from lch.inradius import inscribed_ball, reduce_to_touching

FOUR_PI = 4.0 * math.pi
LENS = [[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]]


def lens_chart():
    body = bp3.build(1.0, LENS)
    return body, pr.chart_for_facet(body, 0)


class TestRadialProject:
    def test_fixed_points_on_the_sphere(self):
        body, chart = lens_chart()
        q = chart.center + chart.inradius * np.array([0.3, 0.8, 0.52])
        q = chart.center + chart.inradius * (q - chart.center) / np.linalg.norm(q - chart.center)
        assert np.allclose(pr.radial_project(chart, q), q, atol=1e-14)

    def test_touch_point_fixed(self):
        _, chart = lens_chart()
        assert np.allclose(pr.radial_project(chart, chart.touch_point),
                           chart.touch_point, atol=1e-14)

    def test_colinear_point(self):
        _, chart = lens_chart()
        q = chart.center + 2.0 * chart.inradius * chart.axis
        assert np.allclose(pr.radial_project(chart, q), chart.touch_point, atol=1e-14)

    def test_center_rejected(self):
        _, chart = lens_chart()
        with pytest.raises(InvalidParameterError):
            pr.radial_project(chart, chart.center)


class TestProjectedAreas:
    def test_lens_facet_projects_to_half_sphere(self):
        body, chart = lens_chart()
        area = pr.projected_facet_area(body, chart)
        assert math.isclose(area, 0.5 * math.pi, rel_tol=1e-9)

    def test_ball_projects_to_full_sphere(self):
        body = bp3.build(1.0, [[0, 0, 0]])
        chart = pr.chart_for_facet(body, 0)
        assert math.isclose(pr.projected_facet_area(body, chart),
                            FOUR_PI, rel_tol=1e-12)

    def test_projection_against_polygon_excess(self):
        # edges of touching facets project to great circles, so the
        # projected region is a geodesic polygon measured by excess
        for seed, m, r0 in [(10, 5, 0.45), (2, 2, 0.3), (3, 3, 0.5), (4, 4, 0.35),
                            (6, 6, 0.45), (7, 7, 0.25), (8, 8, 0.55), (9, 9, 0.4),
                            (11, 10, 0.45), (13, 12, 0.3)]:
            body = make_body(seed=seed, m=m, r0=r0)
            ball = inscribed_ball(body)
            for k in range(len(body.centers)):
                chart = pr.chart_for_facet(body, k, ball)
                area = pr.projected_facet_area(body, chart)
                excess_area = _geodesic_polygon_area(body, chart)
                assert abs(area - excess_area) <= 1e-12 * excess_area

    @pytest.mark.parametrize("m", range(4, 13))
    def test_against_spherical_voronoi(self, m):
        # a projected facet is the spherical Voronoi cell of its touch
        # direction among all touch directions
        body = reduce_to_touching(make_body(seed=60 + m, m=m, r0=0.45))
        ball = inscribed_ball(body)
        directions = ball.center - body.centers
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        cells = SphericalVoronoi(directions).calculate_areas() * ball.radius ** 2
        for k, cell in enumerate(cells):
            area = pr.projected_facet_area(body, pr.chart_for_facet(body, k, ball))
            assert abs(area - cell) <= 1e-12 * cell

    def test_non_touching_neighbour_rejected(self):
        # facet 0 touches the inscribed ball, but the plane of its edge with
        # ball 2, which does not, misses the inscribed center
        body = bp3.build(1.0, LENS + [[0.3, 0.0, 0.0]])
        chart = pr.chart_for_facet(body, 0)
        with pytest.raises(InvalidParameterError, match="does not touch"):
            pr.projected_facet_area(body, chart)

    def test_non_touching_facet_rejected(self):
        body = bp3.build(1.0, LENS + [[0.3, 0.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            pr.chart_for_facet(body, 2)

    @pytest.mark.parametrize("seed, m, r0", [(71, 8, 0.45), (73, 10, 0.35), (74, 6, 0.5)])
    def test_touching_is_required_per_facet(self, seed, m, r0):
        # a ball that strictly holds the inscribed ball keeps it, and with
        # it every touch direction: the facets it does not border keep
        # their projected areas, and those it borders raise
        body = reduce_to_touching(make_body(seed=seed, m=m, r0=r0))
        ball = inscribed_ball(body)
        before = [pr.projected_facet_area(body, pr.chart_for_facet(body, k, ball))
                  for k in range(len(body.centers))]
        total = pr.key_claim_check(body).projected_total
        assert abs(sum(before) - total) <= 1e-13 * total

        far = max(body.tables.positions, key=lambda x: float(np.linalg.norm(x - ball.center)))
        u = (far - ball.center) / np.linalg.norm(far - ball.center)
        new = len(body.centers)
        cut = bp3.build(body.lam, np.vstack([body.centers,
                                             ball.center - 0.9 * (body.radius - ball.radius) * u]))
        assert cut.build_report.redundant_indices == ()
        cut_ball = inscribed_ball(cut)
        assert cut_ball.touching == ball.touching
        assert cut_ball.radius == pytest.approx(ball.radius, rel=1e-12)
        adjacent = {k for pair in cut.tables.pair.tolist() if new in pair for k in pair} - {new}
        assert adjacent and len(adjacent) < new
        for k in range(new):
            chart = pr.chart_for_facet(cut, k, cut_ball)
            if k in adjacent:
                with pytest.raises(InvalidParameterError, match="does not touch"):
                    pr.projected_facet_area(cut, chart)
            else:
                area = pr.projected_facet_area(cut, chart)
                assert abs(area - before[k]) <= 1e-12 * before[k]


class TestRadialExtent:
    # Along the meridian u(t) = cos(t) a + sin(t) w of the touch axis a,
    # the Voronoi cell {u : u . (o_j - o_i) >= 0} ends at the first t where
    # a constraint changes sign; these tests hold that extent against the
    # facet itself, the premise of ``projected_facet_area``.
    @pytest.mark.parametrize("m", range(2, 13))
    def test_extent_brackets_the_facet_boundary(self, m):
        # just inside t_max the supporting-sphere point is in every other
        # ball; just outside it leaves at least one
        body = reduce_to_touching(make_body(seed=40 + m, m=m, r0=0.4))
        ball = inscribed_ball(body)
        thetas = (np.arange(24) + 0.37) * (2.0 * math.pi / 24)
        for i in range(len(body.centers)):
            chart = pr.chart_for_facet(body, i, ball)
            e1, e2 = bp3.orthonormal_frame(chart.axis)
            others = np.delete(body.centers, i, axis=0)
            tmax = _cell_extents(body, chart, thetas)
            assert np.all((tmax > 0.0) & (tmax < math.pi))
            for t0, theta in zip(tmax, thetas):
                inside, outside = (_sphere_point(chart, e1, e2, t0 + dt, theta)
                                   for dt in (-1e-9, 1e-9))
                assert np.all(np.linalg.norm(others - inside, axis=1) <= body.radius)
                assert np.any(np.linalg.norm(others - outside, axis=1) > body.radius)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_kernel_matches_the_scalar_loop(self, m):
        # the cell's extent equals the facet's, found ball by ball on the
        # supporting sphere
        body = reduce_to_touching(make_body(seed=40 + m, m=m, r0=0.4))
        ball = inscribed_ball(body)
        thetas = np.linspace(0.0, 2.0 * math.pi, 97)
        for i in range(len(body.centers)):
            chart = pr.chart_for_facet(body, i, ball)
            reference = _scalar_radial_extents(body, chart, thetas)
            assert np.max(np.abs(_cell_extents(body, chart, thetas) - reference)) <= 1e-13


def _cell_extents(polytope, chart, thetas):
    """t_max(theta) of the Voronoi cell: cos(t) (a.v) + sin(t) (w.v) >= 0
    for every v = o_j - o_i holds up to t = atan2(a.v, -w.v)."""
    e1, e2 = bp3.orthonormal_frame(chart.axis)
    v = np.delete(polytope.centers, chart.facet_index, axis=0) - chart.sphere_center
    w = np.cos(thetas)[:, None] * e1 + np.sin(thetas)[:, None] * e2
    return np.min(np.arctan2(v @ chart.axis, -(w @ v.T)), axis=1)


def _scalar_radial_extents(polytope, chart, thetas):
    """t_max(theta), one ``single_constraint_interval`` per (azimuth, ball)."""
    big_r = chart.ball_radius
    e1, e2 = bp3.orthonormal_frame(chart.axis)
    v = np.delete(polytope.centers, chart.facet_index, axis=0) - chart.sphere_center
    cos_coef = (-2.0 * big_r * (v @ chart.axis)).tolist()
    e1_coef, e2_coef = -2.0 * big_r * (v @ e1), -2.0 * big_r * (v @ e2)
    bound = (-np.sum(v * v, axis=1)).tolist()
    phi_max = []
    for theta in thetas:
        sin_coef = (math.cos(theta) * e1_coef + math.sin(theta) * e2_coef).tolist()
        phi = math.pi
        for a, b, d in zip(cos_coef, sin_coef, bound):
            kind, center, half_width = single_constraint_interval(a, b, d)
            assert kind == "cut"
            phi = min(phi, (center - half_width) % TWO_PI)
        phi_max.append(phi)
    return np.arctan2(big_r * np.sin(phi_max), big_r * np.cos(phi_max) - chart.center_offset)


def _sphere_point(chart, e1, e2, t, theta):
    """Where the ray from o at polar angle t, azimuth theta meets the sphere."""
    e, big_r = chart.center_offset, chart.ball_radius
    c = math.cos(t)
    rho = -e * c + math.sqrt(e * e * c * c + big_r * big_r - e * e)
    omega = c * chart.axis + math.sin(t) * (math.cos(theta) * e1 + math.sin(theta) * e2)
    return chart.center + rho * omega


def _geodesic_polygon_area(body, chart):
    """Independent projected-area oracle via spherical polygon excess, one
    corner of the chart's facet's loops at a time, walked through the
    corner table."""
    r = chart.inradius
    t = body.tables
    cycles, full = facet_loops(t, chart.facet_index)
    if not cycles and not full:
        return FOUR_PI * r * r
    total_turn = 0.0  # a full circle has no corner
    _, in_arc, in_end, out_arc, out_end, _ = t.corners.tolist()
    for cycle in cycles:
        for c in cycle:
            eidx, forward = in_arc[c], in_end[c] == 1
            nxt_eidx, nxt_forward = out_arc[c], out_end[c] == 0
            v = t.positions[t.ends[eidx, 1 if forward else 0]]
            u_hat = (v - chart.center)
            u_hat /= np.linalg.norm(u_hat)
            t_in = _projected_tangent(t, eidx, forward, u_hat, outgoing=False)
            t_out = _projected_tangent(t, nxt_eidx, nxt_forward, u_hat, outgoing=True)
            total_turn += math.atan2(float(np.cross(t_in, t_out) @ u_hat),
                                     float(t_in @ t_out))
    chi = 2 - len(cycles) - len(full)
    return r * r * (2.0 * math.pi * chi - total_turn)


def _projected_tangent(tables, n, forward, u_hat, outgoing):
    """The projected tangent of edge row n at the corner ``u_hat``, the edge
    run forward (increasing phi) or not, leaving the corner or entering it."""
    phi_start, phi_end = tables.phi[n].tolist()
    phi = (phi_start if forward else phi_end) if outgoing else \
        (phi_end if forward else phi_start)
    t3 = math.cos(phi) * tables.e2[n] - math.sin(phi) * tables.e1[n]
    if not forward:
        t3 = -t3
    # the projected edge runs on the great circle with pole = edge axis
    cand = np.cross(tables.axes[n], u_hat)
    cand /= np.linalg.norm(cand)
    return cand if float(cand @ t3) >= 0.0 else -cand


class TestClaim3:
    def test_lens_tiles_inscribed_sphere(self):
        body = bp3.build(1.0, LENS)
        rep = pr.claim3_check(body)
        assert rep.passed
        assert math.isclose(rep.total, math.pi, rel_tol=1e-9)
        assert all(math.isclose(a, 0.5 * math.pi, rel_tol=1e-8)
                   for a in rep.projected_areas)

    def test_random_bodies(self):
        for seed in (1, 5, 9):
            body = make_body(seed=seed, m=6, r0=0.4)
            rep = pr.claim3_check(body)
            assert rep.passed
            assert rep.rel_defect < 1e-5

    def test_requires_touching(self):
        body = bp3.build(1.0, LENS + [[0.3, 0.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            pr.claim3_check(body)
        assert pr.claim3_check(reduce_to_touching(body)).passed


class TestRatioF:
    def test_reference_value(self):
        assert math.isclose(pr.ratio_F(1.0, 0.5), 2.0, rel_tol=1e-12)

    def test_ball_limit(self):
        assert math.isclose(pr.ratio_F(1.0, 1.0 - 1e-9), 1.0, rel_tol=1e-8)

    def test_scale_invariance(self):
        assert math.isclose(pr.ratio_F(2.0, 0.25), 2.0, rel_tol=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            pr.ratio_F(1.0, 1.5)
        with pytest.raises(InvalidParameterError):
            pr.ratio_F(1.0, 0.0)

    def test_matches_the_matched_lens(self):
        # half the boundary of the lens of inradius r over 2 pi r^2
        from lch.reference_bodies import lens3_from_inradius

        for lam in (0.25, 0.5, 1.0, 2.0, 3.7, 10.0):
            for t in np.linspace(0.02, 1.0, 50):
                r = t / lam
                lens = lens3_from_inradius(lam, r)
                reference = (lens.surface_area / 2.0) / (2.0 * math.pi * r * r)
                assert abs(pr.ratio_F(lam, r) - reference) <= 1e-14 * reference


class TestKeyClaim:
    def test_lens_facets_at_equality(self):
        body = bp3.build(1.0, LENS)
        rep = pr.key_claim_check(body)
        assert rep.passed
        assert all(rep.at_equality)
        for ratio in rep.ratios:
            assert math.isclose(ratio, rep.bound, rel_tol=1e-8)

    def test_random_strictly_below(self):
        for seed in (3, 12):
            body = make_body(seed=seed, m=5, r0=0.4)
            rep = pr.key_claim_check(body)
            assert rep.passed
            assert not any(rep.at_equality)
            assert rep.max_ratio < rep.bound - 1e-4

    def test_theorem_c_chain(self):
        # surface area <= F * (tiled inscribed sphere) = matched lens area
        from lch.reference_bodies import lens3_from_inradius

        for seed in (2, 8):
            body = make_body(seed=seed, m=6, r0=0.45)
            rep = pr.key_claim_check(body)
            ball = inscribed_ball(body)
            lens_area = lens3_from_inradius(body.lam, ball.radius).surface_area
            assert rep.surface_area <= rep.reconstructed_bound * (1.0 + 1e-6)
            assert math.isclose(rep.reconstructed_bound, lens_area, rel_tol=1e-5)

    def test_sliver_facet(self):
        # facet 6 is a sliver whose boundary passes ~2e-3 (in polar angle)
        # from its touch point
        body = harness.random_polytope(harness.GenSpec(seed=1168, m=9, inradius=0.6522))
        rep = pr.key_claim_check(body)
        assert rep.passed
        sphere = FOUR_PI * inscribed_ball(body).radius ** 2
        assert abs(rep.projected_total - sphere) <= 1e-12 * sphere


class TestSectors:
    def test_full_cone_equals_ratio_bound_any_wedge(self):
        body = make_body(seed=7, m=5, r0=0.5)
        chart = pr.chart_for_facet(body, 0)
        bound = pr.ratio_F(1.0, chart.inradius)
        wedges = [(0.0, 0.5), (0.3, 2.0), (1.0, 1.5), (0.0, 2.0 * math.pi),
                  (2.0, 2.0 + 1e-3)]
        for wedge in wedges:
            assert abs(pr.sector_ratio(chart, 1.0, wedge) - bound) < 1e-8

    def test_monotone_in_cone_angle(self):
        _, chart = lens_chart()
        xs = np.linspace(0.1, 1.0, 10)
        ratios = [pr.sector_ratio(chart, x) for x in xs]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] >= 1.0

    def test_half_cone_below_bound(self):
        _, chart = lens_chart()
        assert pr.sector_ratio(chart, 0.5) < 2.0

    def test_wedge_additivity(self):
        body = make_body(seed=4, m=4, r0=0.45)
        chart = pr.chart_for_facet(body, 1)
        a1, p1 = pr.sector_measures(chart, 0.7, (0.0, 0.9))
        a2, p2 = pr.sector_measures(chart, 0.7, (0.9, 2.4))
        a12, p12 = pr.sector_measures(chart, 0.7, (0.0, 2.4))
        assert math.isclose(a1 + a2, a12, rel_tol=1e-8)
        assert math.isclose(p1 + p2, p12, rel_tol=1e-12)

    def test_cumulative_excess_nonpositive_zero_at_one(self):
        body = make_body(seed=6, m=5, r0=0.4)
        chart = pr.chart_for_facet(body, 2)
        for x in np.linspace(0.1, 0.95, 9):
            assert pr.cumulative_sector_excess(chart, x, body.lam) < 0.0
        assert abs(pr.cumulative_sector_excess(chart, 1.0, body.lam)) < 1e-10

    @pytest.mark.parametrize("seed, m, r0", [(7, 5, 0.5), (4, 4, 0.45), (14, 9, 0.3)])
    def test_closed_forms_against_quadrature(self, seed, m, r0):
        body = make_body(seed=seed, m=m, r0=r0)
        chart = pr.chart_for_facet(body, 0)
        bound = pr.ratio_F(body.lam, chart.inradius)
        scale = 1.1 * chart.inradius ** 2  # the wedge's width times r^2
        for x in (0.05, 0.3, 0.7, 1.0):
            t_top = 0.5 * math.pi * x
            area, projected = pr.sector_measures(chart, x, (0.2, 1.3))
            assert abs(area - scale * _density_integral(chart, t_top)) <= 1e-11 * area
            assert abs(projected - scale * (1.0 - math.cos(t_top))) <= 1e-11 * projected
            assert abs(pr.cumulative_sector_excess(chart, x, body.lam)
                       - _density_integral(chart, t_top, bound)) <= 1e-11

    def test_empty_sector_rejected(self):
        _, chart = lens_chart()
        with pytest.raises(InvalidParameterError):
            pr.sector_ratio(chart, 0.0)
        with pytest.raises(InvalidParameterError):
            pr.sector_measures(chart, 0.5, (1.0, 1.0))


def _density_integral(chart, t_top, shift=0.0):
    """Reference quadrature of (g(t) - shift) sin(t) over [0, t_top], with
    the settings of the sector measures (shift 0) and the cumulative excess
    (shift F) before their closed forms."""
    tols = dict(epsabs=1e-13, epsrel=1e-11) if shift else dict(epsabs=0.0, epsrel=1e-12)
    value, _ = quad(lambda t: (chart.density(t) - shift) * math.sin(t), 0.0, t_top,
                    limit=200, **tols)
    return value


class TestDensity:
    def test_unit_on_axis_and_increasing(self):
        body = make_body(seed=14, m=6, r0=0.35)
        chart = pr.chart_for_facet(body, 0)
        assert math.isclose(chart.density(0.0), 1.0, rel_tol=1e-12)
        ts = np.linspace(0.0, 0.5 * math.pi, 200)
        g = chart.density(ts)
        assert np.all(np.diff(g) > 0.0)

    def test_finite_difference_monotonicity(self):
        _, chart = lens_chart()
        ts = np.linspace(1e-4, 0.5 * math.pi - 1e-4, 50)
        h = 1e-4
        slopes = (chart.density(ts + h) - chart.density(ts - h)) / (2.0 * h)
        assert np.all(slopes > 0.0)

    def test_facet_points_stay_in_upper_half(self):
        # every touching facet lies within its natural radial extension
        for seed in (0, 5, 11):
            body = make_body(seed=seed, m=6, r0=0.4)
            ball = inscribed_ball(body)
            t = body.tables
            for k in range(len(t.chi)):
                chart = pr.chart_for_facet(body, k, ball)
                cycles, full = facet_loops(t, k)
                for eidx in [t.corners[1, c] for cycle in cycles for c in cycle] + full:
                    for phi in np.linspace(*t.phi[eidx], 9):
                        x = t.z[eidx] + t.rho[eidx] * (math.cos(phi) * t.e1[eidx]
                                                       + math.sin(phi) * t.e2[eidx])
                        assert float((x - chart.center) @ chart.axis) >= -1e-9
