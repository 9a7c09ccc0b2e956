"""Acceptance criteria: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All randomness is seeded; every generated instance is
reconstructible from the printed seeds.
"""

import math

import numpy as np
import pytest

from lch import arc_polygon2 as ap
from lch import ball_polytope3 as bp3
from lch import erosion
from lch import gauss_bonnet as gb
from lch import harness
from lch import projection_ratio as pr
from lch import reference_bodies as ref
from lch.inradius import inscribed_ball, verify_reverse_inradius

FOUR_PI = 4.0 * math.pi


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def _random_bodies(base_seed, count, m_max=12, r_lo=0.15, r_hi=0.85):
    for k in range(count):
        rng = harness.rng_stream(base_seed, k)
        m = int(rng.integers(2, m_max + 1))
        r0 = float(rng.uniform(r_lo, r_hi))
        spec = harness.GenSpec(seed=base_seed + 7919 * k, m=m, inradius=r0)
        yield spec, harness.random_polytope(spec)


def test_criterion_01_gauss_bonnet_totality():
    worst = 0.0
    for spec, body in _random_bodies(101, 200):
        worst = max(worst, abs(gb.gb_total(body).defect))
    lens_worst = 0.0
    rng = harness.rng_stream(102, 0)
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 0.5 * math.pi))
        c = math.cos(alpha)
        body = bp3.build(1.0, [[0, 0, -c], [0, 0, c]])
        rep = gb.gb_total(body)
        lens_worst = max(lens_worst,
                         abs(rep.facet_total - FOUR_PI * (1.0 - c)),
                         abs(rep.edge_total - FOUR_PI * c),
                         abs(rep.vertex_total))
    ok = worst < 1e-9 and lens_worst < 1e-10
    _report(1, ok, f"max |gb - 4pi| = {worst:.3e} over 200 bodies; "
                   f"lens decomposition defect = {lens_worst:.3e}")


def test_criterion_02_lens_closed_form_anchors():
    rng = harness.rng_stream(201, 0)
    worst = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 0.5 * math.pi))
        c = math.cos(alpha)
        h = 1.0 - c
        body = bp3.build(1.0, [[0, 0, -c], [0, 0, c]])
        worst = max(
            worst,
            abs(bp3.surface_area(body) / (FOUR_PI * h) - 1.0),
            abs(bp3.volume(body) / ((2.0 * math.pi / 3.0) * h * h * (3.0 - h)) - 1.0),
            abs(inscribed_ball(body).radius / h - 1.0),
        )
    corollary = max(
        abs(ref.lens2_measures(1.0, math.pi) - (0.5 * math.pi - 1.0)),
        abs(ref.lens3_volume_from_area(1.0, 2.0 * math.pi) - 5.0 * math.pi / 12.0),
    )
    ok = worst < 1e-10 and corollary < 1e-12
    _report(2, ok, f"50 lens build/closed-form relative defects <= {worst:.3e}; "
                   f"corollary values defect = {corollary:.3e}")


def test_criterion_03_reverse_isoperimetric_sweep():
    violations = 0
    min_margin = math.inf
    min_vertexed = math.inf
    for spec, body in _random_bodies(301, 1000):
        margin = bp3.volume(body) - ref.lens3_volume_from_area(1.0, bp3.surface_area(body))
        if margin < -1e-9:
            violations += 1
        min_margin = min(min_margin, margin)
        if len(body.tables.positions):
            min_vertexed = min(min_vertexed, margin)
    ok = violations == 0 and min_vertexed > 1e-8
    _report(3, ok, f"1000 bodies: {violations} violations, min margin {min_margin:.3e}, "
                   f"min vertexed margin {min_vertexed:.3e}")


def test_criterion_04_reverse_inradius():
    violations_3d = 0
    for spec, body in _random_bodies(401, 1000):
        if not verify_reverse_inradius(body).passed:
            violations_3d += 1

    def sweep_2d(curvature, count, base_seed):
        bad = 0
        for k in range(count):
            rng = harness.rng_stream(base_seed, k)
            m = int(rng.integers(2, 8))
            if curvature == -1.0:
                lam = (2.0, 1.0, 0.5)[k % 3]
                r_hi = 0.45
            elif curvature == 1.0:
                lam, r_hi = 1.0, 0.6
            else:
                lam, r_hi = 1.0, 0.85
            r0 = float(rng.uniform(0.1, r_hi)) / max(lam, 1.0)
            spec = harness.GenSpec(seed=base_seed + 104729 * k, m=m, inradius=r0,
                                   dim=2, curvature=curvature, lam=lam)
            body = harness.random_polytope(spec)
            if not ap.theoremB_2d_check(body).passed:
                bad += 1
        return bad

    violations_2d = {c: sweep_2d(c, 1000, 402 + int(10 * c)) for c in (-1.0, 0.0, 1.0)}
    ok = violations_3d == 0 and all(v == 0 for v in violations_2d.values())
    _report(4, ok, f"3-D violations: {violations_3d}/1000; 2-D violations per curvature: "
                   f"{violations_2d}")


def test_criterion_05_derivative_formula():
    lens = bp3.build(1.0, [[0, 0, -0.5], [0, 0, 0.5]])
    lens_defect = abs(erosion.initial_derivative(lens) + 6.0 * math.pi)
    bad = []
    for spec, body in _random_bodies(501, 100, r_lo=0.2, r_hi=0.7):
        d = erosion.initial_derivative(body)
        f0 = bp3.surface_area(body)
        errs = [abs((bp3.surface_area(erosion.inner_parallel(body, t)) - f0) / t - d)
                for t in (1e-2, 1e-3, 1e-4)]
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        if not (5.0 <= r1 <= 20.0 and 5.0 <= r2 <= 20.0):
            bad.append((spec.seed, r1, r2))
    ok = lens_defect < 1e-10 and not bad
    _report(5, ok, f"lens slope defect {lens_defect:.3e}; decade ratios out of "
                   f"[5, 20] for {len(bad)}/100 bodies {bad[:3]}")


def test_criterion_06_profile_dominance():
    violations = 0
    min_gap = math.inf
    for spec, body in _random_bodies(601, 500, r_lo=0.2, r_hi=0.8):
        lens = ref.lens3_from_surface_area(1.0, bp3.surface_area(body))
        half = lens.center_distance / 2.0
        lens_body = bp3.build(1.0, [[0, 0, -half], [0, 0, half]])
        rep = erosion.compare_profiles(body, lens_body, n_samples=24)
        min_gap = min(min_gap, rep.min_gap)
        if not rep.passed:
            violations += 1
    ok = violations == 0
    _report(6, ok, f"500 matched pairs: {violations} violations, "
                   f"min pointwise gap {min_gap:.3e}")


def test_criterion_07_key_claim_and_claim3():
    worst_ratio_excess = -math.inf
    worst_claim3 = 0.0
    for spec, body in _random_bodies(701, 200):
        rep = pr.key_claim_check(body)
        worst_ratio_excess = max(worst_ratio_excess, rep.max_ratio - rep.bound)
        ball = inscribed_ball(body)
        sphere = FOUR_PI * ball.radius ** 2
        worst_claim3 = max(worst_claim3, abs(rep.projected_total - sphere) / sphere)
    body = harness.random_polytope(harness.GenSpec(seed=777, m=5, inradius=0.45))
    chart = pr.chart_for_facet(body, 0)
    wedges = [(0.0, 0.4), (0.2, 1.7), (1.0, 4.0), (0.0, 2.0 * math.pi), (3.0, 3.5)]
    ratios = [pr.sector_ratio(chart, 1.0, w) for w in wedges]
    wedge_spread = max(ratios) - min(ratios)
    ok = worst_ratio_excess <= 1e-5 and worst_claim3 <= 1e-5 and wedge_spread < 1e-8
    _report(7, ok, f"200 bodies: max facet-ratio excess {worst_ratio_excess:.3e}, "
                   f"max claim-3 defect {worst_claim3:.3e}, "
                   f"wedge spread at x=1: {wedge_spread:.3e}")


def test_criterion_08_oracle_agreement():
    mc_bad = 0
    coarea_worst = 0.0
    fd_worst = 0.0
    for k, (spec, body) in enumerate(_random_bodies(801, 50, r_lo=0.25, r_hi=0.75)):
        vol = bp3.volume(body)
        est, se = harness.mc_volume(body, n_samples=1_000_000, seed=8000 + k)
        if abs(est - vol) > 3.0 * se:
            mc_bad += 1
        coarea_worst = max(coarea_worst,
                           abs(erosion.volume_via_profile(body) - vol) / vol)
        area = bp3.surface_area(body)
        fd = harness.surface_oracle_richardson(body, t=1e-4)
        fd_worst = max(fd_worst, abs(fd - area) / area)
    # a handful of 3-sigma misses in 50 trials would be chance; demand few
    ok = mc_bad <= 2 and coarea_worst <= 1e-6 and fd_worst <= 1e-5
    _report(8, ok, f"50 bodies: {mc_bad} MC misses beyond 3 sigma, "
                   f"max coarea defect {coarea_worst:.3e}, "
                   f"max Richardson surface defect {fd_worst:.3e}")


def test_criterion_09_lens_spindle_matching():
    failures = []
    laplace_worst = 0.0
    for n in range(4, 61, 2):
        for h1 in (0.2, 0.3, 0.5):
            rep = ref.match_and_compare(n, 1.0, h1)
            if not rep.lens_wins:
                failures.append((n, h1))
            if n >= 30:
                asym = ref.laplace_asymptotics(n, h1=h1)
                quad = ref.laplace_reference_quadrature(n, h1=h1)
                rel = max(abs(asym.area / quad.area - 1.0),
                          abs(asym.volume / quad.volume - 1.0)) * n / 5.0
                asym2 = ref.laplace_asymptotics(n, h2=rep.h2)
                quad2 = ref.laplace_reference_quadrature(n, h2=rep.h2)
                rel = max(rel, abs(asym2.area / quad2.area - 1.0) * n / 5.0,
                          abs(asym2.volume / quad2.volume - 1.0) * n / 5.0)
                laplace_worst = max(laplace_worst, rel)
    ok = not failures and laplace_worst <= 1.0
    _report(9, ok, f"matched comparison: lens wins everywhere "
                   f"({len(failures)} failures); Laplace error within "
                   f"{laplace_worst:.2f} of the 5/n budget")


def test_criterion_09_parameter_gap():
    """The matched parameter gap (1 - h1) - h2 follows its derived O(log n / n) law.

    Laplace's method on both area integrals (an interior peak at u = 0 for
    the spindle, an endpoint peak at the rim for the lens) gives, to
    leading order,

        g*(n, h1) = -(1 - h1) ln(pi n h1 (2 - h1) / (2 (1 - h1))) / (2 (n - 1)),

    so h2 > 1 - h1 and the gap decays like ln n / n.  At n = 60 that is
    0.025 in magnitude for h1 = 0.2 and 0.3 and 0.021 for h1 = 0.5; the gap
    first drops below 0.02 only at n = 84 / 82 / 66, so a fixed "< 0.02 at
    n = 60" bound cannot hold.  Asserted instead: |gap| strictly decreases
    over n = 4..60, and for even n in [30, 60] the gap is negative and
    within a relative ln(n)/n of g*.
    """

    def g_star(n, h1):
        return (-(1.0 - h1) * math.log(math.pi * n * h1 * (2.0 - h1) / (2.0 * (1.0 - h1)))
                / (2.0 * (n - 1)))

    gaps_at_60 = {}
    decreasing = negative = True
    law_worst = 0.0
    dims = range(4, 61, 2)
    for h1 in (0.2, 0.3, 0.5):
        signed = [ref.match_and_compare(n, 1.0, h1).parameter_gap for n in dims]
        gaps = [abs(g) for g in signed]
        decreasing &= all(b < a for a, b in zip(gaps, gaps[1:]))
        gaps_at_60[h1] = signed[-1]
        for n, g in zip(dims, signed):
            if n >= 30:
                negative &= g < 0.0
                law_worst = max(law_worst, abs(g / g_star(n, h1) - 1.0) * n / math.log(n))
    ok = decreasing and negative and law_worst <= 1.0
    _report(9, ok, f"parameter gap decreasing: {decreasing}; negative: {negative}; "
                   f"within {law_worst:.2f} of the ln(n)/n budget around g*; at n=60: "
                   + ", ".join(f"h1={h}: {g:.4f}" for h, g in gaps_at_60.items()))


def test_criterion_10_appendix_a():
    rng = harness.rng_stream(1001, 0)
    goal_violations = 0
    false_equalities = 0
    trials = 0
    while trials < 10_000:
        m = int(rng.integers(2, 9))
        gamma_star = float(rng.uniform(0.1, 0.5 * math.pi))
        weights = rng.dirichlet(np.ones(m))
        gammas = 2.0 * gamma_star * weights
        if np.max(gammas) > gamma_star:
            continue
        trials += 1
        lhs = float(np.sum(np.tan(0.5 * gammas)))
        rhs = 2.0 * math.tan(0.5 * gamma_star)
        if lhs > rhs + 1e-12:
            goal_violations += 1
        if abs(lhs - rhs) <= 1e-12 and m != 2:
            false_equalities += 1

    rip_violations = 0
    from lch.inradius import halfspace_condition

    flat = ap.ms.ModelSpace(2, 0.0)
    for k in range(1000):
        rng_k = harness.rng_stream(1002, k)
        m = int(rng_k.integers(2, 8))
        while True:
            ang = rng_k.uniform(0.0, 2.0 * math.pi, size=m)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            if m == 2:
                dirs[1] = -dirs[0]
            if halfspace_condition(dirs, np.zeros(2)):
                break
        poly = ap.touching_polygon2(flat, 1.0, float(rng_k.uniform(0.15, 0.8)), dirs)
        if not ap.rip2d_check(poly).passed:
            rip_violations += 1
    ok = goal_violations == 0 and false_equalities == 0 and rip_violations == 0
    _report(10, ok, f"10^4 angle sets: {goal_violations} goal violations, "
                    f"{false_equalities} false equalities; "
                    f"1000 flat polygons: {rip_violations} RIP violations")
