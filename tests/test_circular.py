"""The arrangement kernel: circular intervals against a brute-force
membership oracle, endpoint clustering and loop chaining."""

import math

import numpy as np
import pytest

from lch._circular import (
    TWO_PI,
    chain_loops,
    cluster_points,
    complement_of_forbidden,
    feasible_arcs,
    single_constraint_interval,
)
from lch.errors import TopologyError


def brute_force_feasible(forbidden, phi):
    for center, half, _ in forbidden:
        d = (phi - center) % TWO_PI
        if d > math.pi:
            d -= TWO_PI
        if abs(d) < half:
            return False
    return True


def test_empty_forbidden_is_full_circle():
    arcs, full = complement_of_forbidden([])
    assert full and arcs == []


def test_single_wrapping_arc_has_correct_length():
    # forbidden arc centered near 0 wraps through 2*pi
    arcs, full = complement_of_forbidden([(0.1, 1.0, "a")])
    assert not full
    assert len(arcs) == 1
    start, end, lab_s, lab_e = arcs[0]
    assert lab_s == "a" and lab_e == "a"
    assert math.isclose(end - start, TWO_PI - 2.0, rel_tol=1e-12)


def test_whole_circle_forbidden():
    arcs, full = complement_of_forbidden([(0.0, 2.0, 0), (math.pi, 2.0, 1)])
    assert not full and arcs == []


def random_forbidden(rng):
    k = rng.integers(1, 6)
    return [(float(rng.uniform(0, TWO_PI)), float(rng.uniform(0.05, 1.2)), i)
            for i in range(k)]


def test_random_unions_match_membership_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        forbidden = random_forbidden(rng)
        arcs, full = complement_of_forbidden(forbidden)
        assert not full
        total = sum(e - s for s, e, _, _ in arcs)
        grid = np.linspace(0.0, TWO_PI, 20_000, endpoint=False)
        frac = np.mean([brute_force_feasible(forbidden, p) for p in grid])
        assert abs(total / TWO_PI - frac) < 0.01
        for s, e, _, _ in arcs:
            mid = 0.5 * (s + e)
            assert brute_force_feasible(forbidden, mid)
            assert not brute_force_feasible(forbidden, s - 1e-6)
            assert not brute_force_feasible(forbidden, e + 1e-6)


def test_single_constraint_interval_cases():
    kind, _, _ = single_constraint_interval(0.0, 0.0, 1.0)
    assert kind == "full"
    kind, _, _ = single_constraint_interval(0.0, 0.0, -1.0)
    assert kind == "empty"
    kind, phi0, psi = single_constraint_interval(1.0, 0.0, 0.0)
    # cos(phi) <= 0 forbids the open arc around phi = 0 of half-width pi/2
    assert kind == "cut"
    assert math.isclose(phi0, 0.0, abs_tol=1e-15)
    assert math.isclose(psi, math.pi / 2.0, rel_tol=1e-12)


def test_feasible_arcs_empty_constraint_kills_the_circle():
    # cos(phi) <= -2 holds nowhere; the second constraint is never read
    def constraints():
        yield 1.0, 0.0, -2.0, "dead"
        raise AssertionError("constraints after an emptying one are not consumed")

    assert feasible_arcs(constraints()) is None


def test_feasible_arcs_without_constraints_is_full_circle():
    assert feasible_arcs([]) == ([], True)
    assert feasible_arcs([(0.0, 0.0, 1.0, "slack"), (1.0, 0.0, 2.0, "far")]) == ([], True)


def test_feasible_arcs_match_complement_of_forbidden():
    # a cos(phi) + b sin(phi) <= hypot(a, b) cos(psi) forbids (phi0 - psi, phi0 + psi)
    rng = np.random.default_rng(11)
    for _ in range(300):
        forbidden = random_forbidden(rng)
        constraints = []
        for center, half, label in forbidden:
            scale = float(rng.uniform(0.5, 2.0))
            constraints.append((scale * math.cos(center), scale * math.sin(center),
                                scale * math.cos(half), label))
        result = feasible_arcs(constraints)
        assert result == complement_of_forbidden(
            [single_constraint_interval(a, b, d)[1:] + (label,)
             for a, b, d, label in constraints])
        got, full = result
        ref, _ = complement_of_forbidden(forbidden)
        assert not full and len(got) == len(ref)
        for (s, e, ls, le), (rs, re, rls, rle) in zip(got, ref):
            assert (ls, le) == (rls, rle)
            assert math.isclose(s, rs, abs_tol=1e-9) and math.isclose(e, re, abs_tol=1e-9)


def test_cluster_points_joins_at_exactly_tol():
    pts = [np.array([0.0, 0.0]), np.array([0.5, 0.0]), np.array([2.0, 0.0])]
    reps, index = cluster_points(pts, 0.5)
    assert index == [0, 0, 1]
    assert len(reps) == 2 and reps[1] is pts[2]


def test_cluster_points_prefers_the_first_representative():
    # the last point lies within tol of both representatives
    pts = [np.array([0.0, 0.0]), np.array([1.5, 0.0]), np.array([0.75, 0.0])]
    reps, index = cluster_points(pts, 1.0)
    assert index == [0, 1, 0]
    assert [r.tolist() for r in reps] == [[0.0, 0.0], [1.5, 0.0]]


def test_cluster_points_matches_one_point_at_a_time():
    # grid points at distances near tol from each other, in 2-D and 3-D
    rng = np.random.default_rng(4)
    for dim in (2, 3):
        pts = list(0.25 * rng.integers(0, 6, size=(60, dim)) + 1e-17 * rng.normal(size=(60, dim)))
        reps, index = [], []
        for p in pts:
            hit = next((k for k, q in enumerate(reps) if np.linalg.norm(p - q) <= 0.25), None)
            if hit is None:
                hit = len(reps)
                reps.append(p)
            index.append(hit)
        got_reps, got_index = cluster_points(pts, 0.25)
        assert got_index == index
        assert all(a is b for a, b in zip(got_reps, reps)) and len(got_reps) == len(reps)
    assert cluster_points([], 1.0) == ([], [])


def test_chain_loops_returns_loops_in_first_index_order():
    # arcs 1 -> 3 -> 4 form a triangle on vertices 10, 11, 12; arcs 0 -> 2 a digon
    ends = [(20, 21), (10, 11), (21, 20), (11, 12), (12, 10)]
    assert chain_loops(ends) == [[0, 2], [1, 3, 4]]


def test_chain_loops_open_chain_raises():
    with pytest.raises(TopologyError):
        chain_loops([(0, 1), (1, 2)])
    with pytest.raises(TopologyError):
        chain_loops([(0, 1), (1, 0), (2, 3)])
