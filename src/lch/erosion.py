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
from .inradius import minimal_enclosing_ball

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
    return _Erosion(polytope).checked_body(t)


class _Erosion:
    """The bodies K_t of one body K for t in [0, r(K)).

    K_t keeps the centers, so every rebuild shares one minimal enclosing
    ball: r(K) = R - rho, and each rebuild is ``bp3._rebuild`` on rho,
    emptiness test included, without recomputing the ball.
    """

    def __init__(self, polytope):
        self.polytope = polytope
        self.meb_radius = minimal_enclosing_ball(polytope.centers).radius
        self.inradius = polytope.radius - self.meb_radius

    def checked_body(self, t):
        """K_t for any t: ``InvalidParameterError`` for t < 0 and
        ``EmptyBodyError`` for t >= r(K)."""
        if t < 0.0:
            raise InvalidParameterError(f"erosion distance must be nonnegative, got {t}")
        if t >= self.inradius:
            raise EmptyBodyError(f"erosion distance {t} reaches the inradius {self.inradius}")
        return self.body(t)

    def body(self, t):
        if t == 0.0:
            return self.polytope
        return bp3._rebuild(1.0 / (self.polytope.radius - t), self.polytope.centers,
                            self.meb_radius)

    def area(self, t):
        return bp3.surface_area(self.body(t))

    def signature(self, t):
        return self.body(t).combinatorial_signature()


def _bisect_event(er, lo, hi, sig_lo):
    """Bisect to the signature change; a probe that lands on the degenerate
    event configuration itself (four spheres through one vertex) is the event."""
    while hi - lo > _EVENT_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        try:
            sig_mid = er.signature(mid)
        except DegenerateBodyError:
            return mid
        if sig_mid == sig_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _events(er, n_scan=64):
    ts = np.linspace(0.0, er.inradius * (1.0 - _END_MARGIN), n_scan)
    sigs = [er.signature(t) for t in ts]
    events = []
    for k in range(len(ts) - 1):
        if sigs[k] != sigs[k + 1]:
            events.append(_bisect_event(er, ts[k], ts[k + 1], sigs[k]))
    return tuple(events)


def detect_events(polytope, n_scan=64):
    """Times in (0, r(K)) where the boundary combinatorics changes."""
    return _events(_Erosion(polytope), n_scan)


def profile(polytope, n_samples=64):
    """Sampled erosion profile with event refinement.

    Starts from ``n_samples`` equally spaced times in [0, r(K)) plus a
    sample just either side of every event, then bisects, in one pass from
    left to right, every interval whose end areas differ by more than 1%
    relative and that is longer than 1e-4 r(K) (the floor keeps the
    vanishing tail near the inradius finite).  Each interval is split
    until both halves pass, so the splits are made in the order of always
    splitting the leftmost failing interval; they stop once 2048 samples
    are reached.
    """
    if n_samples < 2:
        raise InvalidParameterError(f"n_samples must be >= 2, got {n_samples}")
    er = _Erosion(polytope)
    r = er.inradius
    events = _events(er)
    ts = set(np.linspace(0.0, r * (1.0 - _END_MARGIN), n_samples))
    for ev in events:
        for t in (ev - _EVENT_FLANK * r, ev + _EVENT_FLANK * r):
            if 0.0 <= t < r:
                ts.add(t)
    ts = sorted(ts)
    areas = {t: er.area(t) for t in ts}
    min_dt = 1e-4 * r
    done, todo = ts[:1], ts[:0:-1]  # passed samples; the rest, next one last
    while todo:
        t0, t1 = done[-1], todo[-1]
        a0, a1 = areas[t0], areas[t1]
        if (len(done) + len(todo) < 2048 and t1 - t0 > min_dt
                and abs(a0 - a1) > _REFINE_REL * max(a0, a1)):
            mid = 0.5 * (t0 + t1)
            areas[mid] = er.area(mid)
            todo.append(mid)
        else:
            done.append(todo.pop())
    return ErosionProfile(ts=np.asarray(done), areas=np.asarray([areas[t] for t in done]),
                          events=events)


def volume_via_profile(polytope):
    """Coarea volume: the integral of the erosion profile up to the inradius.

    Within 1e-7 of the inradius the eroded body collapses toward the
    inscribed center and rebuilds become degenerate; there the profile is
    replaced by the inscribed-sphere floor ``4 pi (r - t)^2``, whose
    integral error is far below the 1e-6 relative target.
    """
    er = _Erosion(polytope)
    r = er.inradius
    events = [ev for ev in _events(er) if 0.0 < ev < r]
    tail = 1e-7 * r

    def integrand(t):
        if r - t <= tail:
            return 4.0 * math.pi * (r - t) ** 2
        return er.area(t)

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
    body, lens = _Erosion(polytope), _Erosion(lens_polytope)
    r_body, r_lens = body.inradius, lens.inradius
    upper = min(r_body, r_lens) * (1.0 - _END_MARGIN)
    ts = np.linspace(0.0, upper, n_samples)
    gaps = np.array([body.area(t) - lens.area(t) for t in ts])
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
    er = _Erosion(unit)
    # the checked path (EmptyBodyError for t >= r); later samples are below t
    if er.checked_body(t).combinatorial_signature() != unit.combinatorial_signature():
        raise InvalidParameterError(f"a combinatorial event occurs before t = {t}")
    beta_sum = bp3.surface_area(unit)
    edge_term = sum(e.length * math.tan(0.5 * e.dihedral) for e in unit.edges)
    ts = (t, 0.5 * t, 0.25 * t)
    remainders = tuple(
        er.area(tk) - ((1.0 - tk) ** 2 * beta_sum - 2.0 * tk * edge_term)
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
