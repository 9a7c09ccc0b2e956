"""Inner parallel bodies and erosion profiles of ball polytopes.

Erosion distributes over intersections of balls, so the inner parallel
body at distance t keeps the centers and shrinks every radius to
``1/lam - t``.  The profile ``f(t) = |boundary of K_t|`` is strictly
decreasing and piecewise smooth, with kinks exactly where the boundary
combinatorics changes (a facet or vertex dies); those event times are
located by bisection on the combinatorial signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import ball_polytope3 as bp3
from .errors import DegenerateBodyError, EmptyBodyError, InvalidParameterError
from .inradius import inscribed_ball

_EVENT_BISECT_TOL = 1e-10
# Profile samples flanking an event, relative to the inradius: far enough
# out that the four spheres meeting at a vanishing facet stay distinct
# vertices (a probe within ~1e-9 of the event merges them).
_EVENT_FLANK = 1e-7
_REFINE_REL = 0.01
# Samples stop shy of the inradius: all triple points collapse linearly onto
# the inscribed center there, and within ~1e-9 of it they merge inside the
# vertex-deduplication tolerance.
_END_MARGIN = 1e-5


@dataclass(frozen=True)
class ErosionProfile:
    ts: np.ndarray
    areas: np.ndarray
    events: tuple


def inner_parallel(polytope, t):
    """The inner parallel body at distance t (same centers, smaller radius)."""
    if t < 0.0:
        raise InvalidParameterError(f"erosion distance must be nonnegative, got {t}")
    if t > 0.0:
        r = inscribed_ball(polytope).radius
        if t >= r:
            raise EmptyBodyError(f"erosion distance {t} reaches the inradius {r}")
    return _eroded(polytope, t)


def _eroded(polytope, t):
    """``inner_parallel`` for a t already known to lie in [0, r(K))."""
    if t == 0.0:
        return polytope
    return bp3.build(1.0 / (polytope.radius - t), polytope.centers)


def _area_at(polytope, t):
    return bp3.surface_area(_eroded(polytope, t))


def _signature_at(polytope, t):
    return _eroded(polytope, t).combinatorial_signature()


def _bisect_event(polytope, lo, hi, sig_lo):
    """Bisect to the signature change; a probe that lands on the degenerate
    event configuration itself (four spheres through one vertex) is the event."""
    while hi - lo > _EVENT_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        try:
            sig_mid = _signature_at(polytope, mid)
        except DegenerateBodyError:
            return mid
        if sig_mid == sig_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def detect_events(polytope, n_scan=64):
    """Times in (0, r(K)) where the boundary combinatorics changes."""
    r = inscribed_ball(polytope).radius
    ts = np.linspace(0.0, r * (1.0 - _END_MARGIN), n_scan)
    sigs = [_signature_at(polytope, t) for t in ts]
    events = []
    for k in range(len(ts) - 1):
        if sigs[k] != sigs[k + 1]:
            events.append(_bisect_event(polytope, ts[k], ts[k + 1], sigs[k]))
    return tuple(events)


def profile(polytope, n_samples=64):
    """Sampled erosion profile with event refinement.

    The grid is refined until adjacent samples differ by less than 1%
    relative (with a floor on the step so the vanishing tail near the
    inradius stays finite), and samples just either side of every event are
    inserted explicitly.
    """
    if n_samples < 2:
        raise InvalidParameterError(f"n_samples must be >= 2, got {n_samples}")
    r = inscribed_ball(polytope).radius
    events = detect_events(polytope)
    ts = set(np.linspace(0.0, r * (1.0 - _END_MARGIN), n_samples))
    for ev in events:
        for t in (ev - _EVENT_FLANK * r, ev + _EVENT_FLANK * r):
            if 0.0 <= t < r:
                ts.add(t)
    ts = sorted(ts)
    areas = {t: _area_at(polytope, t) for t in ts}
    min_dt = 1e-4 * r  # keeps the vanishing tail near the inradius finite
    pending = True
    while pending and len(ts) < 2048:
        pending = False
        for k in range(len(ts) - 1):
            t0, t1 = ts[k], ts[k + 1]
            a0, a1 = areas[t0], areas[t1]
            if t1 - t0 > min_dt and abs(a0 - a1) > _REFINE_REL * max(a0, a1):
                mid = 0.5 * (t0 + t1)
                areas[mid] = _area_at(polytope, mid)
                ts.insert(k + 1, mid)
                pending = True
                break
    ts = np.asarray(ts)
    return ErosionProfile(ts=ts, areas=np.asarray([areas[t] for t in ts]),
                          events=events)


def volume_via_profile(polytope):
    """Coarea volume: the integral of the erosion profile up to the inradius.

    Within 1e-7 of the inradius the eroded body collapses toward the
    inscribed center and rebuilds become degenerate; there the profile is
    replaced by the inscribed-sphere floor ``4 pi (r - t)^2``, whose
    integral error is far below the 1e-6 relative target.
    """
    r = inscribed_ball(polytope).radius
    events = [ev for ev in detect_events(polytope) if 0.0 < ev < r]
    tail = 1e-7 * r

    def integrand(t):
        if r - t <= tail:
            return 4.0 * math.pi * (r - t) ** 2
        return _area_at(polytope, t)

    value, _ = quad(integrand, 0.0, r, points=sorted(events), limit=200,
                    epsabs=1e-12, epsrel=1e-10)
    return float(value)


def initial_derivative(polytope):
    """Right derivative of the erosion profile at t = 0.

    Evaluated on the curvature-normalized body (lengths scaled by lam) as
    ``-2 f(0) - 2 * sum over edges of length * tan(dihedral / 2)``, then
    scaled back.
    """
    lam = polytope.lam
    f0_unit = lam * lam * bp3.surface_area(polytope)
    edge_term = sum(lam * e.length * math.tan(0.5 * e.dihedral) for e in polytope.edges)
    return (-2.0 * f0_unit - 2.0 * edge_term) / lam


@dataclass(frozen=True)
class ProfileComparison:
    ts: np.ndarray
    min_gap: float
    r_body: float
    r_reference: float
    passed: bool


def compare_profiles(polytope, lens_polytope, n_samples=48, tol=1e-9):
    """Check pointwise dominance of the body's profile over a matched lens.

    Requires equal surface areas at t = 0 (relative 1e-9); asserts
    ``f_K(t) >= f_L(t) - tol`` on the common domain and ``r(K) >= r(L)``.
    """
    a_body = bp3.surface_area(polytope)
    a_lens = bp3.surface_area(lens_polytope)
    if abs(a_body - a_lens) > 1e-9 * max(a_body, a_lens):
        raise InvalidParameterError(
            f"surface areas differ: {a_body!r} vs {a_lens!r}"
        )
    r_body = inscribed_ball(polytope).radius
    r_lens = inscribed_ball(lens_polytope).radius
    upper = min(r_body, r_lens) * (1.0 - _END_MARGIN)
    ts = np.linspace(0.0, upper, n_samples)
    gaps = np.array([_area_at(polytope, t) - _area_at(lens_polytope, t) for t in ts])
    min_gap = float(np.min(gaps))
    return ProfileComparison(ts=ts, min_gap=min_gap, r_body=r_body,
                             r_reference=r_lens,
                             passed=min_gap >= -tol and r_body >= r_lens - tol)


@dataclass(frozen=True)
class ExpansionReport:
    ts: tuple
    remainders: tuple
    coefficients: tuple
    passed: bool


def expansion_check(polytope, t=1e-2):
    """Order-t^2 validation of the small-t area expansion.

    Compares ``f(t)`` with ``(1-t)^2 * sum(areas) - 2 t * sum(l tan(g/2))``
    on the curvature-normalized body at ``t``, ``t/2`` and ``t/4``; the
    remainder over ``t^2`` must be stable across the halvings.  Requires
    that no combinatorial event occurs in ``[0, t]``.
    """
    lam = polytope.lam
    unit = bp3.build(1.0, np.asarray(polytope.centers) * lam)
    # the checked path (EmptyBodyError for t >= r); later samples are below t
    if inner_parallel(unit, t).combinatorial_signature() != unit.combinatorial_signature():
        raise InvalidParameterError(f"a combinatorial event occurs before t = {t}")
    beta_sum = bp3.surface_area(unit)
    edge_term = sum(e.length * math.tan(0.5 * e.dihedral) for e in unit.edges)
    ts = (t, 0.5 * t, 0.25 * t)
    remainders = tuple(
        _area_at(unit, tk) - ((1.0 - tk) ** 2 * beta_sum - 2.0 * tk * edge_term)
        for tk in ts
    )
    coefficients = tuple(rem / tk ** 2 for rem, tk in zip(remainders, ts))
    if all(abs(rem) <= 1e-11 * beta_sum for rem in remainders):
        passed = True  # remainder identically zero (the ball)
    else:
        ratios_ok = []
        for c_prev, c_next in zip(coefficients, coefficients[1:]):
            if abs(c_next) < 1e-14:
                ratios_ok.append(False)
            else:
                ratios_ok.append(abs(c_prev / c_next - 1.0) <= 0.25)
        passed = all(ratios_ok)
    return ExpansionReport(ts=ts, remainders=remainders,
                           coefficients=coefficients, passed=passed)
