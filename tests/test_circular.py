"""The arrangement kernel: circular intervals against a brute-force
membership oracle, endpoint clustering and boundary successors."""

import math

import numpy as np
import pytest

from conftest import single_constraint_interval
from lch._circular import (
    TWO_PI,
    cluster_points,
    complement_of_forbidden,
    cross_rows,
    feasible_arcs,
    successors,
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
    # the scalar reference the array kernel is tested against
    kind, _, _ = single_constraint_interval(0.0, 0.0, 1.0)
    assert kind == "full"
    kind, _, _ = single_constraint_interval(0.0, 0.0, -1.0)
    assert kind == "empty"
    kind, phi0, psi = single_constraint_interval(1.0, 0.0, 0.0)
    # cos(phi) <= 0 forbids the open arc around phi = 0 of half-width pi/2
    assert kind == "cut"
    assert math.isclose(phi0, 0.0, abs_tol=1e-15)
    assert math.isclose(psi, math.pi / 2.0, rel_tol=1e-12)


def random_entry(rng):
    """One constraint ``(a, b, d)`` of a kind drawn to cover every branch."""
    a, b = rng.uniform(-2.0, 2.0, size=2)
    m = math.hypot(a, b)
    u = rng.random()
    if u < 0.55:  # a cut
        return a, b, m * math.cos(rng.uniform(0.01, math.pi - 0.01))
    if u < 0.65:  # slack
        return a, b, m * rng.uniform(1.0, 2.0)
    if u < 0.70:  # a = b = 0, d >= 0
        return 0.0, 0.0, float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
    if u < 0.72:  # a = b = 0, d < 0
        return 0.0, 0.0, -rng.uniform(1e-12, 1.0)
    if u < 0.80:  # |d / m| = 1 exactly: +1 holds, -1 empties
        # hypot is exact on a scaled (3, 4, 5) triangle, whichever hypot
        scale = 2.0 ** int(rng.integers(-3, 4)) * rng.choice([-1.0, 1.0], size=2)
        a, b = (3.0, 4.0) if rng.random() < 0.5 else (4.0, 3.0)
        return a * scale[0], b * scale[1], float(rng.choice([5.0, -5.0]) * abs(scale[0]))
    if u < 0.95:  # masked
        return a, b, math.inf
    return a, b, -m * rng.uniform(1.0, 2.0)  # empties


def random_rows(rng, n, width):
    """``n`` rows of 1..width entries, padded to ``width`` with masked ones."""
    abd = np.zeros((3, n, width))
    abd[2] = math.inf
    for row in range(n):
        k = int(rng.integers(1, width + 1))
        cols = rng.choice(width, size=k, replace=False)
        abd[:, row, cols] = np.array([random_entry(rng) for _ in range(k)]).T
    return abd


def reference_row(a, b, d):
    """The scalar reference for one row: None if an entry empties the
    circle, else the complement of its cut arcs, labelled by column."""
    forbidden = []
    for col, entry in enumerate(zip(a, b, d)):
        kind, center, half = single_constraint_interval(*entry)
        if kind == "empty":
            return None
        if kind == "cut":
            forbidden.append((center, half, col))
    return complement_of_forbidden(forbidden)


def test_feasible_arcs_match_the_scalar_reference():
    rng = np.random.default_rng(25)
    a, b, d = random_rows(rng, 2000, 6)
    results = feasible_arcs(a, b, d)
    assert len(results) == 2000
    dead = live = 0
    for row, got in enumerate(results):
        ref = reference_row(a[row].tolist(), b[row].tolist(), d[row].tolist())
        if ref is None:
            assert got is None
            dead += 1
            continue
        live += 1
        (arcs, full), (ref_arcs, ref_full) = got, ref
        assert full == ref_full and len(arcs) == len(ref_arcs)
        for (s, e, ls, le), (rs, re, rls, rle) in zip(arcs, ref_arcs):
            assert (ls, le) == (rls, rle)
            assert abs(s - rs) <= 1e-14 and abs(e - re) <= 1e-14
    assert dead > 100 and live > 100


def test_feasible_arcs_classify_each_entry_like_the_reference():
    # one entry per row: the row's result names the entry's kind
    rng = np.random.default_rng(26)
    entries = [random_entry(rng) for _ in range(2000)]
    entries += [(0.0, 0.0, 0.0), (0.0, 0.0, -1e-15), (0.0, 0.0, -1e-13),
                (3.0, 4.0, 5.0), (3.0, 4.0, -5.0), (1e-15, 0.0, 1e-15)]
    a, b, d = (np.array(x).reshape(-1, 1) for x in zip(*entries))
    kinds = set()
    for entry, got in zip(entries, feasible_arcs(a, b, d)):
        kind, center, half = single_constraint_interval(*entry)
        kinds.add(kind)
        if kind == "empty":
            assert got is None
        elif kind == "full":
            assert got == ([], True)
        else:
            (arcs, full), (ref, _) = got, complement_of_forbidden([(center, half, 0)])
            assert not full and len(arcs) == len(ref) == 1
            (s, e, ls, le), (rs, re, _, _) = arcs[0], ref[0]
            assert (ls, le) == (0, 0)
            assert abs(s - rs) <= 1e-14 and abs(e - re) <= 1e-14
    assert kinds == {"full", "empty", "cut"}


def test_feasible_arcs_empty_constraint_kills_the_circle():
    # whatever else the row holds: cuts, slack, masked or other emptying entries
    a = np.array([[1.0, 1.0, 0.0, 0.3, 1.0], [0.2, 1.0, 0.0, 0.0, 0.5]])
    b = np.array([[0.0, 0.5, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0, 0.5]])
    d = np.array([[-2.0, 0.1, 1.0, math.inf, 5.0], [0.0, 0.0, 0.0, math.inf, -1.0]])
    assert feasible_arcs(a, b, d) == [None, None]
    d[0, 0] = 2.0
    first, second = feasible_arcs(a, b, d)
    assert first is not None and second is None


def test_feasible_arcs_without_constraints_is_full_circle():
    empty = np.zeros((2, 0))
    assert feasible_arcs(empty, empty, empty) == [([], True), ([], True)]
    a, b, d = np.array([[0.0, 1.0, 0.7]]), np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 2.0, math.inf]])
    assert feasible_arcs(a, b, d) == [([], True)]


def test_feasible_arcs_match_complement_of_forbidden():
    # a cos(phi) + b sin(phi) <= hypot(a, b) cos(psi) forbids (phi0 - psi, phi0 + psi)
    rng = np.random.default_rng(11)
    for _ in range(300):
        forbidden = random_forbidden(rng)
        scale = rng.uniform(0.5, 2.0, size=len(forbidden))
        center, half = (np.array(x) for x in list(zip(*forbidden))[:2])
        [(got, full)] = feasible_arcs((scale * np.cos(center))[None], (scale * np.sin(center))[None],
                                      (scale * np.cos(half))[None])
        ref, _ = complement_of_forbidden(forbidden)
        assert not full and len(got) == len(ref)
        for (s, e, ls, le), (rs, re, rls, rle) in zip(got, ref):
            assert (ls, le) == (rls, rle)
            assert math.isclose(s, rs, abs_tol=1e-9) and math.isclose(e, re, abs_tol=1e-9)


def test_cross_rows_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (0, 1, 3, 200):
        u, v = rng.normal(size=(2, n, 3)) * 10.0 ** rng.integers(-8, 8, size=(2, n, 1))
        assert np.array_equal(cross_rows(u, v), np.cross(u, v).reshape(n, 3))


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


def test_successors_match_each_head_to_the_next_tail_of_its_region():
    # arcs 1 -> 3 -> 4 form a triangle on vertices 10, 11, 12; arcs 0 -> 2 a digon
    tail, head = zip(*[(20, 21), (10, 11), (21, 20), (11, 12), (12, 10)])
    assert successors([0] * 5, tail, head).tolist() == [2, 3, 0, 4, 1]
    # Two regions on the same two vertices: each side continues in its own.
    assert successors([0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 0, 0]).tolist() == [2, 3, 0, 1]
    assert successors([], [], []).tolist() == []


def test_successors_are_a_permutation_of_shuffled_cycles():
    rng = np.random.default_rng(3)
    for trial in range(50):
        # Regions with random cycles over a shared pool of vertices, each
        # vertex used at most once per region, the sides shuffled.
        region, tail, head = [], [], []
        for r in range(rng.integers(1, 5)):
            pool = rng.permutation(12)
            cut = np.sort(rng.choice(np.arange(1, 12), rng.integers(0, 3), replace=False))
            for cycle in np.split(pool[:rng.integers(2, 13)], cut):
                if len(cycle) == 0:
                    continue
                region += [r] * len(cycle)
                tail += cycle.tolist()
                head += np.roll(cycle, -1).tolist()
        perm = rng.permutation(len(region))
        region, tail, head = (np.array(x)[perm] for x in (region, tail, head))
        succ = successors(region, tail, head)
        assert sorted(succ.tolist()) == list(range(len(region)))
        assert np.array_equal(region[succ], region)
        assert np.array_equal(tail[succ], head)


def test_successors_reject_an_open_chain():
    with pytest.raises(TopologyError, match="no arc continues from vertex 2"):
        successors([0, 0], [0, 1], [1, 2])
    with pytest.raises(TopologyError, match="no arc continues from vertex 3"):
        successors([0, 0, 0], [0, 1, 2], [1, 0, 3])  # a closed digon and a dangling arc
    # The sides of another region do not continue a chain.
    with pytest.raises(TopologyError, match="no arc continues from vertex 1"):
        successors([0, 1, 1], [0, 1, 0], [1, 0, 1])


def test_successors_reject_two_sides_leaving_one_vertex():
    # A figure eight through vertex 0: no permutation of the sides.
    with pytest.raises(TopologyError, match="two arcs leave vertex 0"):
        successors([0] * 4, [0, 1, 0, 2], [1, 0, 2, 0])


def test_successors_reject_two_sides_entering_one_vertex():
    # A chain 5 -> 1 running into the cycle 1 -> 2 -> 3 -> 2 (a lollipop):
    # every head continues and no vertex is left twice, yet two sides share
    # a successor, so the sides have no permutation of boundary cycles.
    with pytest.raises(TopologyError, match="two arcs enter vertex 2"):
        successors([0] * 4, [5, 1, 2, 3], [1, 2, 3, 2])
    with pytest.raises(TopologyError, match="two arcs enter vertex 0"):
        successors([1, 1, 1], [0, 1, 2], [1, 0, 0])
