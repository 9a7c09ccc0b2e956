"""Umbilical classification, characteristic distance, and the chart metric."""

import math

import numpy as np
import pytest

from lch import model_space as ms
from lch.errors import InvalidParameterError

HYP = ms.ModelSpace(2, -1.0)
FLAT = ms.ModelSpace(2, 0.0)
SPH = ms.ModelSpace(2, 1.0)


class TestClassification:
    def test_flat_gives_spheres(self):
        cls = ms.classify_umbilical(ms.ModelSpace(3, 0.0), 2.0)
        assert cls.kind == ms.EUCLIDEAN_SPHERE
        assert math.isclose(cls.size, 0.5, rel_tol=1e-15)

    def test_horosphere_at_the_threshold(self):
        cls = ms.classify_umbilical(HYP, 1.0)
        assert cls.kind == ms.HOROSPHERE
        assert cls.size is None

    def test_spherical_radius(self):
        cls = ms.classify_umbilical(ms.ModelSpace(2, 1.0), 1.0)
        assert cls.kind == ms.GEODESIC_SPHERE_SPHERICAL
        assert math.isclose(cls.size, math.pi / 4.0, rel_tol=1e-12)

    def test_hyperbolic_ball_and_equidistant(self):
        ball = ms.classify_umbilical(HYP, 2.0)
        assert ball.kind == ms.GEODESIC_SPHERE_HYPERBOLIC
        assert math.isclose(ball.size, math.atanh(0.5), rel_tol=1e-12)
        eq = ms.classify_umbilical(HYP, 0.5)
        assert eq.kind == ms.EQUIDISTANT
        assert math.isclose(eq.size, 0.5 * math.log(3.0), rel_tol=1e-12)

    def test_regime_boundary_blowup(self):
        # both radii exceed 6 just off the horospherical threshold
        eps = 1e-6
        ball = ms.classify_umbilical(HYP, 1.0 + eps)
        eq = ms.classify_umbilical(HYP, 1.0 - eps)
        assert ball.size > 6.0
        assert eq.size > 6.0

    def test_negative_lam_rejected(self):
        with pytest.raises(InvalidParameterError):
            ms.classify_umbilical(FLAT, -1.0)


class TestCharacteristicDistance:
    def test_closed_form_values(self):
        assert math.isclose(ms.characteristic_distance(-1.0, 0.5),
                            0.5 * math.log(3.0), rel_tol=1e-14)
        assert math.isclose(ms.characteristic_distance(-4.0, 1.0),
                            0.25 * math.log(3.0), rel_tol=1e-14)

    def test_vanishes_at_zero(self):
        assert ms.characteristic_distance(-1.0, 1e-12) < 1e-11

    def test_monotone_in_lam(self):
        lams = np.linspace(0.05, 0.95, 19)
        vals = [ms.characteristic_distance(-1.0, l) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(InvalidParameterError):
            ms.characteristic_distance(1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            ms.characteristic_distance(-1.0, 1.5)


class TestMetricDistance:
    def test_flat_is_euclidean(self):
        assert ms.metric_distance(FLAT, (0, 0), (3, 4)) == 5.0

    def test_poincare_axis_distance(self):
        d = ms.metric_distance(HYP, (0, 0), (0.5, 0))
        assert math.isclose(d, math.log(3.0), rel_tol=1e-14)

    def test_identity(self):
        p = (0.3, -0.2)
        assert ms.metric_distance(HYP, p, p) == 0.0

    def test_rotation_invariance_hyperbolic(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.uniform(-0.6, 0.6, size=2)
            q = rng.uniform(-0.6, 0.6, size=2)
            a = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(a), -math.sin(a)],
                            [math.sin(a), math.cos(a)]])
            d1 = ms.metric_distance(HYP, p, q)
            d2 = ms.metric_distance(HYP, rot @ p, rot @ q)
            assert abs(d1 - d2) <= 1e-12 * max(1.0, d1)

    @pytest.mark.parametrize("space", [HYP, FLAT, SPH])
    def test_triangle_inequality(self, space):
        rng = np.random.default_rng(9)
        for _ in range(200):
            pts = rng.uniform(-0.55, 0.55, size=(3, 2))
            d01 = ms.metric_distance(space, pts[0], pts[1])
            d12 = ms.metric_distance(space, pts[1], pts[2])
            d02 = ms.metric_distance(space, pts[0], pts[2])
            assert d02 <= d01 + d12 + 1e-12

    def test_outside_domain_rejected(self):
        with pytest.raises(InvalidParameterError):
            ms.metric_distance(HYP, (0, 0), (1.2, 0))

    def test_sphere_round_trip(self):
        p = np.array([0.2, -0.4])
        assert np.allclose(ms.from_sphere(ms.to_sphere(p)), p, atol=1e-15)


class TestExpMap:
    @pytest.mark.parametrize("space", [HYP, FLAT, SPH])
    def test_distance_realized(self, space):
        rng = np.random.default_rng(7)
        for _ in range(25):
            base = rng.uniform(-0.4, 0.4, size=2)
            ang = rng.uniform(0, 2 * math.pi)
            direction = np.array([math.cos(ang), math.sin(ang)])
            s = rng.uniform(0.05, 0.8)
            q = ms.exp_map(space, base, direction, s)
            assert abs(ms.metric_distance(space, base, q) - s) < 1e-12


class TestSignedDistanceToGeodesic:
    def test_axis_case(self):
        # geodesic = real axis, oriented +x; left = upper half disk
        d = ms.signed_distance_to_geodesic((-0.5, 0.0), (0.5, 0.0), (0.0, 0.3))
        assert math.isclose(d, 2.0 * math.atanh(0.3), rel_tol=1e-12)
        d = ms.signed_distance_to_geodesic((-0.5, 0.0), (0.5, 0.0), (0.0, -0.3))
        assert math.isclose(d, -2.0 * math.atanh(0.3), rel_tol=1e-12)

    def test_orientation_flip(self):
        p = (0.1, 0.25)
        d1 = ms.signed_distance_to_geodesic((-0.5, 0.0), (0.5, 0.0), p)
        d2 = ms.signed_distance_to_geodesic((0.5, 0.0), (-0.5, 0.0), p)
        assert math.isclose(d1, -d2, rel_tol=1e-12)

    def test_circle_form_matches_exp_map(self):
        g1 = np.array([0.3, 0.1])
        g2 = np.array([0.1, 0.45])
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.uniform(-0.5, 0.5, size=2)
            d = ms.signed_distance_to_geodesic(g1, g2, w)
            # the point pushed back by -d along the gradient lands on the geodesic
            h = 1e-6
            gx = (ms.signed_distance_to_geodesic(g1, g2, w + [h, 0])
                  - ms.signed_distance_to_geodesic(g1, g2, w - [h, 0])) / (2 * h)
            gy = (ms.signed_distance_to_geodesic(g1, g2, w + [0, h])
                  - ms.signed_distance_to_geodesic(g1, g2, w - [0, h])) / (2 * h)
            g = np.array([gx, gy])
            foot = ms.exp_map(HYP, w, -g, abs(d)) if d > 0 else ms.exp_map(HYP, w, g, abs(d))
            assert abs(ms.signed_distance_to_geodesic(g1, g2, foot)) < 1e-7

    def test_matches_translated_axis(self):
        # The isometry z -> (z - g1) / (1 - conj(g1) z) sends the geodesic to
        # a diameter through 0, where the left distance is asinh(2 y / (1 - |z|^2)).
        rng = np.random.default_rng(11)
        for _ in range(40):
            g1, g2, z = rng.uniform(-0.6, 0.6, size=(3, 2))
            e = ms.mobius_translate(-g1, g2)
            left = np.array([-e[1], e[0]]) / np.linalg.norm(e)
            w = ms.mobius_translate(-g1, z)
            ref = math.asinh(2.0 * float(w @ left) / (1.0 - float(w @ w)))
            assert abs(ms.signed_distance_to_geodesic(g1, g2, z) - ref) < 1e-12


def _disk_cases():
    from lch import arc_polygon2 as ap
    return [
        ap.euclidean_disk(FLAT, 1.0, (0.2, -0.1)),
        ap.geodesic_disk(HYP, 2.0, (0.1, 0.2)),
        ap.geodesic_disk(SPH, 1.0, (0.3, -0.2)),
        ap.geodesic_disk(SPH, 1.0, (3.0, 1.0)),  # the cap holds the projection pole
        ap.horodisk(HYP, 1.0, (0.6, 0.8), level=0.3),
        ap.equidistant_domain(HYP, 0.5, (0.3, 0.1), (0.1, 0.45)),
        ap.equidistant_domain(HYP, 0.5, (-0.5, 0.0), (0.5, 0.0)),  # base is a diameter
    ]


def _reference_depth(disk, z):
    if disk.kind in ("euclidean", "geodesic"):
        return disk.radius - ms.metric_distance(disk.space, disk.center, z)
    if disk.kind == "horo":
        return disk.level - ms.busemann(disk.ideal, z)
    return disk.offset - ms.signed_distance_to_geodesic(*disk.geodesic, z)


class TestSignedDistanceToDisk:
    @pytest.mark.parametrize("k", range(7))
    def test_form_matches_reference_distances(self, k):
        from lch.arc_polygon2 import chart_circle
        disk = _disk_cases()[k]
        rng = np.random.default_rng(k)
        z = rng.uniform(-0.9, 0.9, size=(200, 2))
        for p in z[np.sum(z * z, axis=1) < 0.9]:
            assert abs(ms.signed_distance_to_lambda_disk(disk.space, disk, p)
                       - _reference_depth(disk, p)) <= 1e-12
        circle = chart_circle(disk)
        for phi in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
            p = circle.center + circle.radius * np.array([math.cos(phi), math.sin(phi)])
            if disk.space.curvature != -1.0 or p @ p < 1.0 - 1e-6:
                assert abs(ms.signed_distance_to_lambda_disk(disk.space, disk, p)) <= 1e-12

    def test_flat_disk_center_depth(self):
        from lch.arc_polygon2 import euclidean_disk
        disk = euclidean_disk(FLAT, 1.0, (0.2, -0.1))
        assert math.isclose(
            ms.signed_distance_to_lambda_disk(FLAT, disk, (0.2, -0.1)), 1.0,
            rel_tol=1e-14)

    def test_hyperbolic_ball_boundary_is_zero(self):
        from lch.arc_polygon2 import chart_circle, geodesic_disk
        disk = geodesic_disk(HYP, 2.0, (0.1, 0.2))
        circle = chart_circle(disk)
        z = circle.center + circle.radius * np.array([0.6, 0.8])
        assert abs(ms.signed_distance_to_lambda_disk(HYP, disk, z)) < 1e-12

    def test_equidistant_base_geodesic_depth(self):
        from lch.arc_polygon2 import equidistant_domain
        disk = equidistant_domain(HYP, 0.5, (-0.3, 0.05), (0.3, 0.05))
        p_on_base = (0.0, 0.05 * 0.99)  # not exactly on it; use a real base point
        # evaluate at an exact base point instead: any of the defining points
        val = ms.signed_distance_to_lambda_disk(HYP, disk, (-0.3, 0.05))
        assert math.isclose(val, 0.5 * math.log(3.0), rel_tol=1e-12)


class TestLift:
    @pytest.mark.parametrize("c", [-1.0, 1.0])
    def test_quadric_and_inverse(self, c):
        z = np.random.default_rng(3).uniform(-0.7, 0.7, size=(50, 2))
        X = ms.lift(c, z)
        assert np.allclose(X[:, 0] ** 2 + X[:, 1] ** 2 + c * X[:, 2] ** 2, c,
                           rtol=0.0, atol=1e-14)
        assert np.all(X[:, 2] > (-1.0 if c > 0.0 else 0.0))
        assert np.allclose(ms.unlift(X), z, rtol=0.0, atol=1e-15)
        assert np.allclose(ms.lift(c, z[0]), X[0], rtol=0.0, atol=0.0)

    def test_sphere_lift_is_to_sphere(self):
        z = (0.3, -1.7)
        assert np.allclose(ms.lift(1.0, z), ms.to_sphere(z), rtol=0.0, atol=1e-16)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_form_is_affine_in_the_lift(self, k):
        # rho - F(a . X + b) is the chart depth, horodisks scaled to rho = 0
        disk = _disk_cases()[k]
        c = disk.space.curvature
        form = ms.lifted_form(disk)
        z = np.random.default_rng(k).uniform(-0.9, 0.9, size=(200, 2))
        z = z[np.sum(z * z, axis=1) < 0.9]
        values = ms.lift(c, z) @ np.asarray(form.a) + form.b
        for p, v in zip(z, values):
            assert abs(form.rho - form.F(v)
                       - ms.signed_distance_to_lambda_disk(disk.space, disk, p)) <= 1e-12
        if disk.kind == "horo":
            assert form.rho == 0.0

    def test_disk_forms(self):
        # a = -P, b = 0 on S^2 and a = -G P, b = -1 on H^2
        sph = ms.lifted_form(_disk_cases()[2])
        assert np.allclose(sph.a, -ms.lift(1.0, (0.3, -0.2)), rtol=0.0, atol=1e-15)
        assert sph.b == 0.0
        hyp = ms.lifted_form(_disk_cases()[1])
        P = ms.lift(-1.0, (0.1, 0.2))
        assert np.allclose(hyp.a, -P * [1.0, 1.0, -1.0], rtol=0.0, atol=1e-15)
        assert abs(hyp.b + 1.0) <= 1e-15

    def test_flat_disk_has_no_lift(self):
        with pytest.raises(InvalidParameterError):
            ms.lifted_form(_disk_cases()[0])
