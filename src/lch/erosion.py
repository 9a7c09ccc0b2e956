"""Inner parallel bodies and erosion profiles of ball polytopes.

Erosion distributes over intersections of balls, so the inner parallel
body K_t at distance t keeps the centers and shrinks every radius to
R_t = R - t, R = 1/lam.  The profile ``f(t) = |boundary of K_t|`` is
strictly decreasing and piecewise smooth, with kinks exactly at the
events, where the boundary combinatorics changes.

Between two events K_t keeps its combinatorics and is a closed form in t.
The vertex of spheres i, j, k is ``c + h(t) n``: c is the circumcenter of
o_i o_j o_k, rho its circumradius, n the triangle's unit normal toward
the vertex and ``h(t) = sqrt(R_t^2 - rho^2)``.  Edge (i, j) keeps its
circle's center, axis and frame; its end angles are its vertices' angles
in that frame.  Each facet's area is then the build's Gauss-Bonnet sum
(``ball_polytope3._facet_area``) at radius R_t.

The events are the earliest roots of kinetic certificates, in closed form.
Balls only drop out (a ball containing K_s contains K_t once shrunk by
t - s), so the certificates range over the retained centers:

* (a) vertex ijk reaches sphere l.  ``R_t^2 - |v - o_l|^2`` is linear in
  h and vanishes at ``h* = (rho^2 - |c - o_l|^2) / (2 n.(c - o_l))``; this
  is an event iff ``0 <= h* < h(t_start)``, at ``t = R - sqrt(h*^2 + rho^2)``.
  Edge flips and vanishing triangles are of this kind.
* (b) the two vertices of triple ijk merge (a digon facet dies, or a ball's
  cut of an edge circle closes): ``t = R - rho``.

An edge circle turning tangent to a third sphere is no further kind.  Ball
l cuts circle (i, j) (center z, radius r) iff its point farthest from o_l
is outside, i.e. iff ``d^2/4 - |z - o_l|^2 - 2 r w_perp < 0``, with
w_perp the in-plane length of z - o_l; that margin only grows as r
shrinks.  So no cut opens, and a cut closes where circle and sphere touch,
at the merge of the two points of triple ijl: a root of kind (b) when
they are vertices of K_t, and no change of K_t when they are not.

``_Erosion`` walks the schedule once.  Each combinatorial piece starts
with a rebuild just past its event (``_EVENT_FLANK`` r) and ends with one
more rebuild just before the next (or at r(1 - ``_END_MARGIN``) for the
last), which must have the piece's full signature and its closed-form
area within 1e-12 f(0); otherwise ``NumericError`` names the piece.
Roots less than the flank apart are one event (a triangle's three
vertices reach the fourth sphere at once): the next piece starts past
all of them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from . import ball_polytope3 as bp3
from ._circular import TWO_PI
from .ball_polytope3 import _cross, _dot
from .errors import EmptyBodyError, InvalidParameterError, NumericError
from .inradius import minimal_enclosing_ball

# Profile samples and piece rebuilds flanking an event, relative to the
# inradius: far enough out that the four spheres meeting at a vanishing
# facet stay distinct vertices (a rebuild within ~1e-9 of the event merges
# them).
_EVENT_FLANK = 1e-7
_REFINE_REL = 0.01
# Samples stop shy of the inradius: all triple points collapse linearly onto
# the inscribed center there, and within ~1e-9 of it they merge inside the
# vertex-deduplication tolerance.
_END_MARGIN = 1e-5
# A piece's end rebuild must match its closed-form area to this much of f(0).
_CHECK_REL = 1e-12


@dataclass(frozen=True)
class ErosionProfile:
    ts: np.ndarray
    areas: np.ndarray
    events: tuple


def inner_parallel(polytope, t):
    """The inner parallel body at distance t (same centers, smaller radius)."""
    return _Erosion(polytope).checked_body(t)


def _full_signature(body):
    """The retained centers, each vertex's spheres, each edge's pair and end
    vertices' spheres, and each facet's loop count, free of build order."""
    inc = [tuple(sorted(v.incident)) for v in body.vertices]
    return (body.centers.tolist(), sorted(inc),
            sorted((e.pair, () if e.full_circle else (inc[e.start_vertex], inc[e.end_vertex]))
                   for e in body.edges),
            sorted((f.ball_index, len(f.boundary_loops)) for f in body.facets))


class _Piece:
    """K_t in closed form for t between two events, from one body inside.

    ``R`` is the radius of the uneroded balls.
    """

    def __init__(self, body, R):
        self.body = body
        self.R = R
        self.centers = body.centers.tolist()
        self.vertices = []  # (c, n, rho^2, incident spheres)
        for v in body.vertices:
            i, j, k = sorted(v.incident)
            c, n, rho2 = _circumcircle(self.centers[i], self.centers[j], self.centers[k])
            if _dot(n, [p - q for p, q in zip(v.position.tolist(), c)]) < 0.0:
                n = [-x for x in n]
            self.vertices.append((c, n, rho2, v.incident))
        self.frames = bp3._frames(body.edges)
        self.circle_centers = [e.circle_center.tolist() for e in body.edges]

    def next_event(self, t0):
        """The earliest certificate root after t0 (infinity if none)."""
        R, rt2 = self.R, (self.R - t0) ** 2
        roots = []
        for c, n, rho2, incident in self.vertices:
            roots.append(R - math.sqrt(rho2))  # (b)
            h0 = math.sqrt(rt2 - rho2)
            for l, o in enumerate(self.centers):
                if l in incident:
                    continue
                w = [p - q for p, q in zip(c, o)]
                nw = _dot(n, w)
                if nw != 0.0:
                    h = (rho2 - _dot(w, w)) / (2.0 * nw)
                    if 0.0 <= h < h0:
                        roots.append(R - math.sqrt(h * h + rho2))  # (a)
        return min((t for t in roots if t > t0), default=math.inf)

    def area(self, t):
        lam = 1.0 / (self.R - t)
        radius = 1.0 / lam
        rt2 = radius * radius
        positions = []
        for c, n, rho2, _ in self.vertices:
            h = math.sqrt(rt2 - rho2)
            positions.append([p + h * q for p, q in zip(c, n)])
        phis = []
        for e, (_, e1, e2), z in zip(self.body.edges, self.frames, self.circle_centers):
            if e.full_circle:
                phis.append((e.phi_start, e.phi_end))
            else:
                phis.append((_angle(positions[e.start_vertex], z, e1, e2, e.phi_start),
                             _angle(positions[e.end_vertex], z, e1, e2, e.phi_end)))
        tangents = bp3._end_tangents(self.body.edges, self.frames, phis)
        return float(sum(bp3._facet_area(f.boundary_loops, self.body.edges, phis, tangents,
                                         positions, self.centers[f.ball_index], radius, lam)
                         for f in self.body.facets))


def _circumcircle(a, b, o):
    """Circumcenter, unit normal and squared circumradius of triangle a b o."""
    u = [p - q for p, q in zip(a, o)]
    v = [p - q for p, q in zip(b, o)]
    uv = _cross(u, v)
    s = _dot(uv, uv)
    uu, vv = _dot(u, u), _dot(v, v)
    off = _cross([uu * y - vv * x for x, y in zip(u, v)], uv)
    wd = [x - y for x, y in zip(u, v)]
    return ([q + x / (2.0 * s) for q, x in zip(o, off)],
            [x / math.sqrt(s) for x in uv],
            uu * vv * _dot(wd, wd) / (4.0 * s))


def _angle(p, z, e1, e2, ref):
    """The angle of point p on the circle (z; e1, e2), on the branch within
    pi of ``ref``."""
    q = [x - y for x, y in zip(p, z)]
    phi = math.atan2(_dot(q, e2), _dot(q, e1))
    return ref + ((phi - ref + math.pi) % TWO_PI - math.pi)


class _Erosion:
    """The bodies K_t of one body K for t in [0, r(K)).

    K_t keeps the centers, so every rebuild shares one minimal enclosing
    ball, the one K kept from its build if it did: r(K) = R - rho, and each
    rebuild is ``bp3._rebuild`` on rho, emptiness test included, without
    recomputing the ball.  The event schedule and its pieces are computed
    on first use.
    """

    def __init__(self, polytope):
        self.polytope = polytope
        self.meb = polytope._meb or minimal_enclosing_ball(polytope.centers)
        self.inradius = polytope.radius - self.meb.radius

    def check_distance(self, t):
        """``InvalidParameterError`` for t < 0 and ``EmptyBodyError`` for t >= r(K)."""
        if t < 0.0:
            raise InvalidParameterError(f"erosion distance must be nonnegative, got {t}")
        if t >= self.inradius:
            raise EmptyBodyError(f"erosion distance {t} reaches the inradius {self.inradius}")

    def checked_body(self, t):
        """K_t for any t, through ``check_distance``."""
        self.check_distance(t)
        return self.body(t)

    def body(self, t):
        if t == 0.0:
            return self.polytope
        return bp3._rebuild(1.0 / (self.polytope.radius - t), self.polytope.centers,
                            self.meb.radius, meb=self.meb)

    @cached_property
    def _schedule(self):
        """(events, pieces, expiry): the events in (0, r(1 - _END_MARGIN)),
        the piece valid from each event (from 0 for the first) and the
        first certificate root of the last piece."""
        R, r = self.polytope.radius, self.inradius
        f0 = bp3.surface_area(self.polytope)
        t_end = r * (1.0 - _END_MARGIN)
        events, pieces = [], []
        t0, body = 0.0, self.polytope
        while True:
            piece = _Piece(body, R)
            t_next = piece.next_event(t0)
            t_check = min(t_next - _EVENT_FLANK * r, t_end)
            end = self.body(t_check)
            if _full_signature(end) != _full_signature(body):
                raise NumericError(
                    f"erosion piece {len(pieces)} from t = {t0!r}: the rebuild at "
                    f"t = {t_check!r} changed combinatorics before the next event at {t_next!r}")
            closed, rebuilt = piece.area(t_check), bp3.surface_area(end)
            if abs(closed - rebuilt) > _CHECK_REL * f0:
                raise NumericError(
                    f"erosion piece {len(pieces)} from t = {t0!r}: closed-form area "
                    f"{closed!r} against {rebuilt!r} rebuilt at t = {t_check!r}")
            pieces.append(piece)
            if t_next >= t_end:
                return tuple(events), pieces, t_next
            events.append(t_next)
            t0 = t_next + _EVENT_FLANK * r
            body = self.body(t0)

    @property
    def events(self):
        return self._schedule[0]

    def area(self, t):
        """f(t): the closed form of the piece holding t.  The last piece
        holds up to its next root, beyond r(1 - _END_MARGIN); past it (only
        the coarea integral goes there) K_t is rebuilt."""
        events, pieces, expiry = self._schedule
        if t >= expiry:
            return bp3.surface_area(self.body(t))
        return pieces[bisect.bisect_right(events, t)].area(t)


def detect_events(polytope):
    """Times in (0, r(K)(1 - 1e-5)) where the boundary combinatorics changes."""
    return _Erosion(polytope).events


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
    events = er.events
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
    events = er.events
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
    er.check_distance(t)
    if er.events and er.events[0] <= t:
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
