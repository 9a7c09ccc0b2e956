"""Arc polygons in the three constant-curvature planes."""

import math

import numpy as np
import pytest

from lch import arc_polygon2 as ap
from lch import model_space as ms
from lch.errors import (
    EmptyBodyError,
    InvalidParameterError,
    NonCompactError,
    NumericError,
)

HYP = ms.ModelSpace(2, -1.0)
FLAT = ms.ModelSpace(2, 0.0)
SPH = ms.ModelSpace(2, 1.0)


def flat_lens(half_distance=0.5):
    disks = [ap.euclidean_disk(FLAT, 1.0, (-half_distance, 0.0)),
             ap.euclidean_disk(FLAT, 1.0, (half_distance, 0.0))]
    return ap.build2(FLAT, 1.0, disks)


def mc_area_oracle(poly, n=300_000, seed=0):
    rng = np.random.default_rng(seed)
    pts = [np.asarray(v) for v in poly.vertices]
    for a in poly.boundary:
        pts.append(a.point_at(0.5 * (a.phi_start + a.phi_end)))
    pts = np.asarray(pts)
    lo, hi = pts.min(axis=0) - 0.05, pts.max(axis=0) + 0.05
    c = poly.space.curvature
    if c == -1.0:
        lo, hi = np.maximum(lo, -0.999), np.minimum(hi, 0.999)
    z = rng.uniform(lo, hi, size=(n, 2))
    member = poly.membership(z)
    assert all(poly.membership(p) == member[k] for k, p in enumerate(z[:200]))
    s = np.sum(z * z, axis=1)
    if c == 0.0:
        w = member.astype(float)
    elif c == -1.0:
        w = np.where(s < 1.0, (2.0 / (1.0 - s)) ** 2, 0.0) * member
    else:
        w = (2.0 / (1.0 + s)) ** 2 * member
    vals = w * float(np.prod(hi - lo))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def _assert_turning_area_matches_monte_carlo(space, lam, r0):
    # area2 is defined by the total-turning identity, so its defect is 0 by
    # construction; a Monte Carlo area checks the perimeter and angles it uses
    ang = np.array([0.3, 2.0, 4.4])
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    poly = ap.touching_polygon2(space, lam, r0, dirs)
    est, se = mc_area_oracle(poly)
    assert abs(ap.area2(poly) - est) <= 3.0 * se


NAN, INF = math.nan, math.inf


class TestDiskChecks:
    """Every kind of lambda-disk rejects a bad lam and a non-finite field."""

    # make(0.5) is a disk; the same field at NaN or infinity is not.
    @pytest.mark.parametrize("make,field", [
        (lambda x: ap.euclidean_disk(FLAT, 1.0, (x, 0.0)), "center"),
        (lambda x: ap.LambdaDisk2(space=FLAT, lam=1.0, kind="euclidean", center=(0.0, 0.0),
                                  radius=x), "radius"),
        (lambda x: ap.geodesic_disk(HYP, 2.0, (x, 0.0)), "center"),
        (lambda x: ap.geodesic_disk(SPH, 1.0, (0.0, x)), "center"),
        (lambda x: ap.LambdaDisk2(space=SPH, lam=1.0, kind="geodesic", center=(0.0, 0.0),
                                  radius=x), "radius"),
        (lambda x: ap.horodisk(HYP, 1.0, (x, math.sqrt(0.75))), "ideal"),
        (lambda x: ap.horodisk(HYP, 1.0, (1.0, 0.0), level=x), "level"),
        (lambda x: ap.equidistant_domain(HYP, 0.5, (x, 0.0), (0.0, 1.0)), "geodesic"),
        (lambda x: ap.equidistant_domain(HYP, 0.5, (0.0, 0.0), (0.0, x)), "geodesic"),
        (lambda x: ap.LambdaDisk2(space=HYP, lam=0.5, kind="equidistant",
                                  geodesic=((0.0, 0.0), (0.0, 1.0)), offset=x), "offset"),
    ])
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_field(self, make, field, bad):
        make(0.5)
        with pytest.raises(InvalidParameterError, match=field):
            make(bad)

    @pytest.mark.parametrize("make", [
        lambda lam: ap.euclidean_disk(FLAT, lam, (0.0, 0.0)),
        lambda lam: ap.geodesic_disk(SPH, lam, (0.0, 0.0)),
        lambda lam: ap.LambdaDisk2(space=HYP, lam=lam, kind="horo", ideal=(1.0, 0.0)),
        lambda lam: ap.LambdaDisk2(space=HYP, lam=lam, kind="equidistant",
                                   geodesic=((0.0, 0.0), (0.0, 1.0)), offset=1.0),
    ])
    @pytest.mark.parametrize("lam", [0.0, -1.0, NAN, INF])
    def test_bad_lam(self, make, lam):
        with pytest.raises(InvalidParameterError, match="lam must be positive"):
            make(lam)


class TestBuildFlat:
    def test_lens_vertices(self):
        poly = flat_lens()
        assert len(poly.boundary) == 2
        vs = sorted(v[1] for v in poly.vertices)
        assert math.isclose(vs[0], -math.sqrt(3.0) / 2.0, abs_tol=1e-12)
        assert math.isclose(vs[1], math.sqrt(3.0) / 2.0, abs_tol=1e-12)

    def test_single_disk(self):
        poly = ap.build2(FLAT, 2.0, [ap.euclidean_disk(FLAT, 2.0, (0.1, 0.3))])
        assert len(poly.boundary) == 1 and poly.boundary[0].full_circle
        assert math.isclose(ap.perimeter2(poly), math.pi, rel_tol=1e-12)
        assert math.isclose(ap.area2(poly), math.pi / 4.0, rel_tol=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyBodyError):
            ap.build2(FLAT, 1.0, [ap.euclidean_disk(FLAT, 1.0, (-2.0, 0.0)),
                                  ap.euclidean_disk(FLAT, 1.0, (2.0, 0.0))])

    def test_total_turning_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            poly = _random_flat_polygon(rng, m)
            assert abs(ap.total_turning_defect(poly)) < 1e-12


def _random_flat_polygon(rng, m, r0=None):
    from lch.inradius import halfspace_condition

    r0 = r0 or float(rng.uniform(0.2, 0.8))
    while True:
        ang = rng.uniform(0.0, 2.0 * math.pi, size=m)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        if m == 2:
            dirs[1] = -dirs[0]
        if halfspace_condition(dirs, np.zeros(2)):
            return ap.touching_polygon2(FLAT, 1.0, r0, dirs)


class TestMeasuresFlat:
    def test_lens_area_equals_closed_form(self):
        from lch.reference_bodies import lens2_measures

        poly = flat_lens(math.cos(math.pi / 4.0))  # perimeter pi
        perimeter = ap.perimeter2(poly)
        assert math.isclose(perimeter, math.pi, rel_tol=1e-12)
        assert math.isclose(ap.area2(poly), 0.5 * math.pi - 1.0, rel_tol=1e-12)
        assert math.isclose(ap.area2(poly), lens2_measures(1.0, perimeter),
                            rel_tol=1e-12)

    def test_area_against_monte_carlo(self):
        rng = np.random.default_rng(8)
        poly = _random_flat_polygon(rng, 5)
        est, se = mc_area_oracle(poly)
        assert abs(ap.area2(poly) - est) <= 3.0 * se

    def test_perimeter_monotone_under_adding_disks(self):
        rng = np.random.default_rng(5)
        poly = _random_flat_polygon(rng, 4, r0=0.5)
        disks = list(poly.disks)
        extra = ap.euclidean_disk(FLAT, 1.0, (0.25, 0.1))
        grown = ap.build2(FLAT, 1.0, disks + [extra])
        assert ap.perimeter2(grown) <= ap.perimeter2(poly) + 1e-12


class TestFlatChecks:
    def test_constraints_on_lens(self):
        poly = flat_lens(math.cos(math.pi / 4.0))
        rep = ap.constraints_check(poly)
        assert rep.passed
        assert math.isclose(rep.gamma_star, 0.5 * math.pi, rel_tol=1e-12)
        assert math.isclose(rep.max_angle, rep.gamma_star, rel_tol=1e-9)

    def test_constraints_on_symmetric_triple(self):
        dirs = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
        poly = ap.touching_polygon2(FLAT, 1.0, 0.4, dirs)
        rep = ap.constraints_check(poly)
        assert rep.passed
        gamma = poly.turning_angles
        assert all(math.isclose(g, 2.0 * rep.gamma_star / 3.0, rel_tol=1e-9)
                   for g in gamma)
        assert max(gamma) < rep.gamma_star

    def test_derivative_disk(self):
        poly = ap.build2(FLAT, 1.0, [ap.euclidean_disk(FLAT, 1.0, (0.0, 0.0))])
        assert math.isclose(ap.initial_derivative_2d(poly), -2.0 * math.pi,
                            rel_tol=1e-12)

    def test_derivative_lens_reference_value(self):
        poly = flat_lens(math.cos(math.pi / 4.0))  # perimeter pi, gamma* = pi/2
        value = ap.initial_derivative_2d(poly)
        assert math.isclose(value, -math.pi - 4.0, rel_tol=1e-12)

    def test_derivative_forward_difference(self):
        rng = np.random.default_rng(12)
        poly = _random_flat_polygon(rng, 5, r0=0.45)
        d = ap.initial_derivative_2d(poly)
        p0 = ap.perimeter2(poly)
        t = 1e-3
        shrunk_disks = [ap.LambdaDisk2(space=FLAT, lam=1.0 / (1.0 - t),
                                       kind="euclidean", center=dk.center,
                                       radius=1.0 - t) for dk in poly.disks]
        eroded = ap.build2(FLAT, 1.0 / (1.0 - t), shrunk_disks)
        slope = (ap.perimeter2(eroded) - p0) / t
        assert abs(slope - d) < 0.02 * abs(d)

    def test_goal_inequality(self):
        poly = flat_lens(math.cos(math.pi / 4.0))
        rep = ap.goal_inequality_check(poly)
        assert rep.passed and rep.at_equality
        dirs = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
        tri = ap.touching_polygon2(FLAT, 1.0, 1.0 - math.cos(math.pi / 4.0), dirs)
        rep = ap.goal_inequality_check(tri)
        assert rep.passed and not rep.at_equality

    def test_goal_analytic_example(self):
        # gamma* = pi/2 with three equal angles pi/3: sqrt(3) < 2
        lhs = 3.0 * math.tan(math.pi / 6.0)
        assert math.isclose(lhs, math.sqrt(3.0), rel_tol=1e-14)
        assert lhs < 2.0 * math.tan(math.pi / 4.0)

    def test_rip2d(self):
        poly = flat_lens(math.cos(math.pi / 4.0))
        rep = ap.rip2d_check(poly)
        assert rep.passed and abs(rep.margin) < 1e-12
        rng = np.random.default_rng(77)
        for _ in range(20):
            poly = _random_flat_polygon(rng, int(rng.integers(2, 7)))
            rep = ap.rip2d_check(poly)
            assert rep.passed
            if len(poly.boundary) > 2:
                assert rep.margin > 1e-8

    def test_checks_reject_curved_polygons(self):
        poly = ap.touching_polygon2(SPH, 1.0, 0.3, np.array([[1, 0], [-1, 0]]))
        with pytest.raises(InvalidParameterError):
            ap.constraints_check(poly)


class TestCurved:
    def test_hyperbolic_ball_lens_compact(self):
        poly = ap.touching_polygon2(HYP, 2.0, 0.3, np.array([[1, 0], [-1, 0]]))
        assert len(poly.boundary) == 2
        assert ap.area2(poly) > 0.0

    def test_spherical_cap_area(self):
        poly = ap.build2(SPH, 1.0, [ap.geodesic_disk(SPH, 1.0, (0.05, -0.1))])
        assert math.isclose(ap.area2(poly),
                            2.0 * math.pi * (1.0 - math.cos(math.pi / 4.0)),
                            rel_tol=1e-10)

    def test_geodesic_disk_radius_realized(self):
        disk = ap.geodesic_disk(HYP, 2.0, (0.2, 0.1))
        circle = ap.chart_circle(disk)
        for phi in np.linspace(0.0, 2.0 * math.pi, 7):
            z = circle.center + circle.radius * np.array([math.cos(phi), math.sin(phi)])
            d = ms.metric_distance(HYP, disk.center, z)
            assert abs(d - disk.radius) < 1e-12

    def test_boundary_through_the_projection_pole_raises(self):
        # to_sphere(p)_3 = -cos(pi/4): the cap's boundary holds the south pole
        disk = ap.geodesic_disk(SPH, 1.0, (1.0 + math.sqrt(2.0), 0.0))
        with pytest.raises(NumericError):
            ap.chart_circle(disk)

    @pytest.mark.parametrize("lam,r0", [(2.0, 0.3), (1.0, 0.4), (0.5, 0.35)])
    def test_hyperbolic_total_turning(self, lam, r0):
        _assert_turning_area_matches_monte_carlo(HYP, lam, r0)

    def test_spherical_total_turning(self):
        _assert_turning_area_matches_monte_carlo(SPH, 1.0, 0.5)

    def test_boundary_curvature_sampled(self):
        # three-point geodesic-triangle oracle: the exterior angle over the
        # mean arc length tends to the geodesic curvature, which must be lam
        cases = [(HYP, 2.0, 0.3), (HYP, 1.0, 0.4), (HYP, 0.5, 0.3), (SPH, 1.0, 0.35)]
        for space, lam, r0 in cases:
            poly = ap.touching_polygon2(space, lam, r0,
                                        np.array([[1.0, 0.0], [-1.0, 0.0]]))
            arc = poly.boundary[0]
            k_est = _sampled_geodesic_curvature(space, arc, prev_h=2e-3)
            k_est2 = _sampled_geodesic_curvature(space, arc, prev_h=1e-3)
            extrapolated = (4.0 * k_est2 - k_est) / 3.0
            assert abs(extrapolated - lam) < 1e-6

    def test_noncompact_two_equidistants_same_side(self):
        lam = 0.5
        q1 = ms.exp_map(HYP, np.zeros(2), (1.0, 0.0), -0.2)
        d1 = ap.equidistant_domain(HYP, lam, (q1[0], q1[1] - 0.3), (q1[0], q1[1] + 0.3))
        with pytest.raises(NonCompactError):
            ap.build2(HYP, lam, [d1])

    def test_compact_needs_antipodal_spread(self):
        # two equidistant domains with touch directions 90 degrees apart
        # keep a cone to infinity
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NonCompactError):
            ap.touching_polygon2(HYP, 0.5, 0.3, dirs)


def _geodesic_initial_direction(space, b, a):
    """Unit tangent (in an angle-faithful frame) of the geodesic b -> a."""
    c = space.curvature
    if c == 0.0:
        v = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return v / np.linalg.norm(v)
    if c == -1.0:
        v = ms.mobius_translate(-np.asarray(b), a)
        return v / np.linalg.norm(v)
    pb, pa = ms.to_sphere(b), ms.to_sphere(a)
    t = pa - float(pa @ pb) * pb
    return t / np.linalg.norm(t)


def _sampled_geodesic_curvature(space, arc, prev_h):
    """Exterior turning of the inscribed geodesic triangle over its arc.

    The angle comes from exact initial directions of the chart geodesics
    (conformal charts preserve angles), which avoids the catastrophic
    cancellation of a law-of-cosines evaluation at tiny separations.
    """
    mid = 0.5 * (arc.phi_start + arc.phi_end)
    factor = ms.conformal_factor(space.curvature, arc.point_at(mid))
    dphi = prev_h / (factor * arc.circle.radius)
    a = arc.point_at(mid - dphi)
    b = arc.point_at(mid)
    c = arc.point_at(mid + dphi)
    u = _geodesic_initial_direction(space, b, a)
    v = _geodesic_initial_direction(space, b, c)
    w = -v
    if len(u) == 2:
        cross = abs(u[0] * w[1] - u[1] * w[0])
    else:
        cross = float(np.linalg.norm(np.cross(u, w)))
    exterior = math.atan2(cross, float(u @ w))
    dab = ms.metric_distance(space, a, b)
    dbc = ms.metric_distance(space, b, c)
    return exterior / (0.5 * (dab + dbc))


_KINDS = [(FLAT, 1.0, "euclidean"), (SPH, 1.0, "geodesic"), (HYP, 2.0, "geodesic"),
          (HYP, 1.0, "horo"), (HYP, 0.5, "equidistant")]


def _reference_length(mp, space, arc):
    """40-digit quadrature of ``ms.conformal_factor`` along the chart arc."""
    c = space.curvature
    with mp.workdps(40):
        cx, cy = (mp.mpf(float(v)) for v in arc.circle.center)
        r = mp.mpf(float(arc.circle.radius))

        def element(phi):
            x, y = cx + r * mp.cos(phi), cy + r * mp.sin(phi)
            return 2 * r / (1 + c * (x * x + y * y)) if c else r

        return float(mp.quad(element, [mp.mpf(arc.phi_start), mp.mpf(arc.phi_end)]))


def _assert_arcs_match_reference(mp, poly):
    for arc in poly.boundary:
        ref = _reference_length(mp, poly.space, arc)
        assert abs(arc.length - ref) <= 1e-13 * ref


class TestArcLength:
    @pytest.mark.parametrize("space,lam,kind", _KINDS)
    def test_generator_arcs_match_reference(self, space, lam, kind):
        from lch import harness

        mp = pytest.importorskip("mpmath")
        size = ms.classify_umbilical(space, lam).size
        rng = np.random.default_rng(int(10 * lam) + int(space.curvature) + 11)
        for seed in range(14):
            r0 = float(rng.uniform(0.1, 0.9)) * (1.0 if size is None else min(size, 1.0))
            spec = harness.GenSpec(seed=seed, m=2 + seed % 7, inradius=r0, lam=lam, dim=2,
                                   curvature=space.curvature)
            poly = harness.random_polytope(spec)
            assert {d.kind for d in poly.disks} == {kind}
            _assert_arcs_match_reference(mp, poly)

    def test_arcs_about_a_center_outside_their_chart_circle(self):
        # the caps hold the south pole, so their chart circles bound their outsides
        mp = pytest.importorskip("mpmath")
        disks = [ap.geodesic_disk(SPH, 1.0, (3.0, 0.0)), ap.geodesic_disk(SPH, 1.0, (2.0, 1.5))]
        poly = ap.build2(SPH, 1.0, disks)
        assert [a.circle.side for a in poly.boundary] == [-1, -1]
        _assert_arcs_match_reference(mp, poly)

    @pytest.mark.parametrize("space,lam,center", [
        (FLAT, 0.7, (0.3, -0.2)), (SPH, 1.0, (0.05, -0.1)), (SPH, 2.5, (3.0, 0.0)),
        (SPH, 0.4, (-0.6, 0.9)), (HYP, 2.0, (0.2, 0.1)), (HYP, 1.2, (-0.7, 0.5))])
    def test_full_circle(self, space, lam, center):
        disk = (ap.euclidean_disk if space is FLAT else ap.geodesic_disk)(space, lam, center)
        sn = {0.0: float, 1.0: math.sin, -1.0: math.sinh}[space.curvature]
        poly = ap.build2(space, lam, [disk])
        assert poly.boundary[0].full_circle
        expected = 2.0 * math.pi * sn(disk.radius)
        assert abs(ap.perimeter2(poly) - expected) <= 1e-15 * expected

    @pytest.mark.parametrize("space,lam", [(SPH, 1.0), (HYP, 2.0), (SPH, 0.3), (HYP, 1.1)])
    def test_nearly_coincident_disks(self, space, lam):
        # two arcs, each just short of half a circle
        mp = pytest.importorskip("mpmath")
        first = np.array([0.1, 0.05])
        second = ms.exp_map(space, first, (0.6, 0.8), 1e-6)
        disks = [ap.geodesic_disk(space, lam, p) for p in (first, second)]
        poly = ap.build2(space, lam, disks)
        sn = math.sin if space.curvature > 0.0 else math.sinh
        half = math.pi * sn(disks[0].radius)
        assert len(poly.boundary) == 2
        for arc in poly.boundary:
            assert 0.0 < half - arc.length <= 1e-6 * half
        _assert_arcs_match_reference(mp, poly)


class TestInradius2:
    def test_flat_lens(self):
        poly = flat_lens(math.cos(math.pi / 4.0))
        disk = ap.inradius2(poly)
        assert math.isclose(disk.radius, 1.0 - math.sqrt(2.0) / 2.0, rel_tol=1e-10)
        assert disk.touching == (0, 1)

    def test_spherical_disk(self):
        poly = ap.build2(SPH, 1.0, [ap.geodesic_disk(SPH, 1.0, (0.0, 0.0))])
        disk = ap.inradius2(poly)
        assert abs(disk.radius - math.pi / 4.0) <= 1e-15

    @pytest.mark.parametrize("space,lam", [(HYP, 2.0), (HYP, 1.0), (HYP, 0.5),
                                           (SPH, 1.0), (FLAT, 1.0)])
    def test_generator_radius_recovered(self, space, lam):
        rng = np.random.default_rng(hash((space.curvature, lam)) % 2**31)
        from lch.inradius import halfspace_condition

        for _ in range(3):
            m = int(rng.integers(2, 6))
            while True:
                ang = rng.uniform(0.0, 2.0 * math.pi, size=m)
                dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
                if m == 2:
                    dirs[1] = -dirs[0]
                if halfspace_condition(dirs, np.zeros(2)):
                    break
            r0 = float(rng.uniform(0.15, 0.4))
            poly = ap.touching_polygon2(space, lam, r0, dirs)
            disk = ap.inradius2(poly)
            assert abs(disk.radius - r0) < 1e-7

    def test_disk_kept_per_polygon(self, monkeypatch):
        # the reverse inradius check reuses the disk instead of searching again
        dirs = [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]]
        first = ap.touching_polygon2(HYP, 1.0, 0.3, dirs)
        fresh = ap.touching_polygon2(HYP, 1.0, 0.3, dirs)
        searches = []
        search = ap._inradius2
        monkeypatch.setattr(ap, "_inradius2", lambda poly: searches.append(poly) or search(poly))
        disk = ap.inradius2(first)
        assert ap.inradius2(first) is disk
        rep = ap.theoremB_2d_check(first)
        assert searches == [first] and rep.r_body == disk.radius
        assert ap.theoremB_2d_check(fresh) == rep


def _lifted(poly):
    forms = [ms.lifted_form(d) for d in poly.disks]
    return np.array([f.a for f in forms]), np.array([f.b for f in forms])


def _criterion_04_bodies(curvature, lam, count):
    """Bodies of the criterion-04 recipe for one (curvature, lam)."""
    from lch import harness

    r_hi = 0.45 if curvature == -1.0 else 0.6
    for k in range(count):
        rng = harness.rng_stream(2104, k)
        r0 = float(rng.uniform(0.1, r_hi)) / max(lam, 1.0)
        spec = harness.GenSpec(seed=2104 + 104729 * k, m=int(rng.integers(2, 8)),
                               inradius=r0, dim=2, curvature=curvature, lam=lam)
        yield r0, harness.random_polytope(spec)


def _supporting_bodies(space, lam):
    """Regular and lopsided touching polygons from ``supporting_disk``."""
    for r0, m in ((0.12, 2), (0.2, 3), (0.3, 5), (0.38, 8)):
        ang = 2.0 * math.pi * np.arange(m) / m + 0.3
        yield r0, ap.touching_polygon2(space, lam, r0, np.column_stack([np.cos(ang), np.sin(ang)]))
    ang = np.array([0.1, 1.7, 3.2, 3.4])
    yield 0.25, ap.touching_polygon2(space, lam, 0.25, np.column_stack([np.cos(ang), np.sin(ang)]))


CURVED_KINDS = [(HYP, 2.0), (HYP, 1.0), (HYP, 0.5), (SPH, 1.0)]


class TestExactInradius:
    @pytest.mark.parametrize("space,lam", CURVED_KINDS)
    def test_radius_and_depth(self, space, lam):
        bodies = list(_criterion_04_bodies(space.curvature, lam, 40))
        bodies += list(_supporting_bodies(space, lam))
        for r0, poly in bodies:
            disk = ap.inradius2(poly)
            assert abs(disk.radius - r0) <= 1e-13
            depth = ms.lambda_disk_depth(space, poly.disks)(*disk.center)
            assert abs(depth - disk.radius) <= 1e-12
            assert disk.touching == tuple(range(len(poly.disks)))

    @pytest.mark.parametrize("space,lam", CURVED_KINDS)
    def test_kkt_multipliers(self, space, lam):
        # over the touching disks, some mu >= 0 (sum 1) and nu > 0 give
        # sum mu_k a_k + nu G X = 0: X is a minimum of the max on the quadric
        from scipy.optimize import nnls

        g = np.array([1.0, 1.0, space.curvature])
        for _, poly in _criterion_04_bodies(space.curvature, lam, 15):
            a, b = _lifted(poly)
            X, basis = ap._minimax_on_quadric(space.curvature, a, b, range(len(a)))
            assert set(basis) <= set(ap.inradius2(poly).touching)
            assert abs(X @ (g * X) - space.curvature) <= 1e-13
            active = list(ap.inradius2(poly).touching)
            system = np.vstack([np.column_stack([a[active].T, g * X]),
                                np.r_[np.ones(len(active)), 0.0]])
            coef, residual = nnls(system, np.r_[0.0, 0.0, 0.0, 1.0])
            assert residual <= 1e-12 and coef[-1] > 0.1

    def test_redundant_disk_is_not_a_basis(self):
        # a disk off the boundary changes neither the radius nor the touching set
        dirs = [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]]
        base = ap.touching_polygon2(HYP, 2.0, 0.2, dirs)
        extra = ap.geodesic_disk(HYP, 2.0, (0.02, 0.01))
        poly = ap.build2(HYP, 2.0, base.disks + (extra,))
        assert 3 not in {arc.disk_index for arc in poly.boundary}
        disk = ap.inradius2(poly)
        assert abs(disk.radius - 0.2) <= 1e-13 and disk.touching == (0, 1, 2)


class TestDegenerateBasis:
    @pytest.mark.parametrize("space,lam", CURVED_KINDS)
    def test_lens_has_two_active_disks(self, space, lam):
        poly = ap.touching_polygon2(space, lam, 0.2, [[0.6, 0.8], [-0.6, -0.8]])
        a, b = _lifted(poly)
        X, basis = ap._minimax_on_quadric(space.curvature, a, b, [0, 1])
        assert basis == (0, 1)
        assert abs(ap.inradius2(poly).radius - 0.2) <= 1e-13

    def test_homogeneous_pairs(self):
        # equal-radius disks: b = 0 on S^2 exactly and b = -1 on H^2, so e = 0
        sph = ap.touching_polygon2(SPH, 1.0, 0.3, [[1.0, 0.0], [-1.0, 0.0]])
        assert _lifted(sph)[1].tolist() == [0.0, 0.0]
        for space, r0, dirs in ((SPH, 0.3, [[1.0, 0.0], [-1.0, 0.0]]),
                                (HYP, 0.2, [[1.0, 0.0], [-1.0, 0.0]]),
                                (HYP, 0.2, [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]])):
            poly = ap.touching_polygon2(space, 2.0 if space is HYP else 1.0, r0, dirs)
            a, b = _lifted(poly)
            b = np.full_like(b, b[0] if space is SPH else -1.0)
            X, _ = ap._minimax_on_quadric(space.curvature, a, b, range(len(a)))
            center = ms.unlift(X)
            depth = ms.lambda_disk_depth(space, poly.disks)(*center)
            assert abs(depth - r0) <= 1e-13

    @pytest.mark.parametrize("disk", [
        ap.horodisk(HYP, 1.0, (0.6, 0.8), level=0.3),
        ap.equidistant_domain(HYP, 0.5, (-0.5, 0.0), (0.5, 0.0)),
    ])
    def test_unbounded_body_raises(self, disk):
        form = ms.lifted_form(disk)
        with pytest.raises(NumericError, match="unbounded"):
            ap._minimax_on_quadric(-1.0, np.array([form.a]), np.array([form.b]), [0])


class TestLens:
    # the five fingerprinted (curvature, lam) kinds and a narrow equidistant
    @pytest.mark.parametrize("space,lam", [(FLAT, 1.0), (SPH, 1.0), (HYP, 2.0), (HYP, 1.0),
                                           (HYP, 0.5), (HYP, 0.2)])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_closed_form_matches_built_lens(self, space, lam, fraction):
        size = ms.classify_umbilical(space, lam).size
        s = fraction * (1.0 if size is None else size)
        perimeter = ap.lens_perimeter_direct(space, lam, s)
        built = ap.perimeter2(ap.touching_polygon2(space, lam, s, [[1, 0], [-1, 0]]))
        assert abs(perimeter - built) <= 1e-13 * built
        assert abs(ap.matched_lens_inradius(space, lam, perimeter) - s) <= 1e-12 * s

    def test_perimeter_outside_the_lens_range(self):
        with pytest.raises(NumericError):
            ap.matched_lens_inradius(SPH, 1.0, 2.0 * math.pi * math.sin(math.pi / 4.0))
        with pytest.raises(NumericError):
            ap.matched_lens_inradius(HYP, 0.5, 0.0)


class TestTheoremB2D:
    def test_narrow_equidistant_body(self):
        from lch import harness
        spec = harness.GenSpec(seed=7, m=3, inradius=0.1, lam=0.2, dim=2, curvature=-1.0)
        rep = ap.theoremB_2d_check(harness.random_polytope(spec))
        assert rep.passed and abs(rep.r_body - 0.1) < 1e-7

    @pytest.mark.parametrize("space,lam", [(HYP, 2.0), (HYP, 1.0), (HYP, 0.5),
                                           (SPH, 1.0), (FLAT, 1.0)])
    def test_small_sweep(self, space, lam):
        from lch.inradius import halfspace_condition

        rng = np.random.default_rng(int(10 * lam) + int(space.curvature) + 3)
        for _ in range(4):
            m = int(rng.integers(2, 6))
            while True:
                ang = rng.uniform(0.0, 2.0 * math.pi, size=m)
                dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
                if m == 2:
                    dirs[1] = -dirs[0]
                if halfspace_condition(dirs, np.zeros(2)):
                    break
            poly = ap.touching_polygon2(space, lam, float(rng.uniform(0.15, 0.4)), dirs)
            rep = ap.theoremB_2d_check(poly)
            assert rep.passed
            if len(poly.boundary) > 2:
                assert rep.margin > 1e-6
