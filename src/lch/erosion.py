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
in that frame.  The area is the build's Gauss-Bonnet sum
(``ball_polytope3._facet_measures``) over all facets at radius R_t,
``R_t^2 (2 pi sum(chi) - sum of arc angle * lam d / 2 - sum of corner
turns)``.  ``_Piece`` compiles it into arrays once per piece, from the
body's build arrays (``ball_polytope3._Tables``): vertex circumcenters,
normals and rho^2 from the vertices' ball triples and positions; the
open arcs' frames, circle centers, reference angles, end vertices and d;
the build's corner table and Euler characteristics.  It
evaluates the area at a whole array of t in one pass: each arc end's
coordinates in its circle's frame (linear in h), edge angles by
``arctan2`` on the reference branch, corner turns as ``arctan2`` of two
forms bilinear in the coordinates of the corner's two arc ends, and the
sum.

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

``_Erosion`` walks the schedule once per body, which keeps it as
``_erosion``.  Each combinatorial piece starts with a rebuild just past
its event (``_EVENT_FLANK`` r) and ends with one more rebuild just before
the next (or at r(1 - ``_END_MARGIN``) for the last), which must have the
piece's full signature and its closed-form area within 1e-12 f(0);
otherwise ``NumericError`` names the piece.  Roots less than the flank
apart are one event (a triangle's three vertices reach the fourth sphere
at once): the next piece starts past all of them.  ``_Erosion.area``
sends each t of an array to its piece, so every consumer evaluates f in
batches: ``profile`` one batch per refinement level, ``volume_via_profile``
one per tanh-sinh level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import tanhsinh

from . import ball_polytope3 as bp3
from ._circular import TWO_PI, cross_rows, dot_rows
from .errors import EmptyBodyError, InvalidParameterError, NumericError
from .inradius import minimal_enclosing_ball

# Profile samples and piece rebuilds flanking an event, relative to the
# inradius: far enough out that the four spheres meeting at a vanishing
# facet stay distinct vertices (a rebuild within ~1e-9 of the event merges
# them).
_EVENT_FLANK = 1e-7
_REFINE_REL = 0.01
# The refinement stops splitting once the profile holds this many samples.
_MAX_SAMPLES = 2048
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
    return _erosion(polytope).checked_body(t)


def _full_signature(body):
    """The retained centers, each vertex's spheres, each edge's pair and end
    vertices' spheres, and each facet's Euler characteristic, free of build
    order."""
    t = body._tables
    inc = [tuple(x) for x in t.triples.tolist()]
    edges = [(tuple(pair), () if vs < 0 else (inc[vs], inc[ve]))
             for pair, (vs, ve) in zip(t.pair.tolist(), t.ends.tolist())]
    return body.centers.tolist(), sorted(inc), sorted(edges), t.chi.tolist()


def _row_sums(a):
    """Sums over axis 1 of a 2-d array, each row summed in the same order
    whatever the number of rows: a reduction's order follows the memory
    layout, which fancy indexing leaves with the rows innermost."""
    return np.ascontiguousarray(a).sum(axis=1)


class _Piece:
    """K_t in closed form for t between two events, from one body inside.

    ``R`` is the radius of the uneroded balls.  The body's build arrays
    (its ``_tables``) are compiled into the piece's; full-circle edges keep
    their angles and only add a constant to the geodesic-curvature sum.
    """

    def __init__(self, body, R):
        self.R = R
        tables = body._tables
        # Vertex ijk at c + h n: c the circumcenter of o_i o_j o_k (i < j < k),
        # n the unit normal toward the vertex, rho^2 the squared circumradius.
        tri = tables.triples
        a, b, o = body.centers[tri].transpose(1, 0, 2)
        u, v = a - o, b - o
        uv = cross_rows(u, v)
        s, uu, vv = dot_rows(uv, uv), dot_rows(u, u), dot_rows(v, v)
        self.c = o + cross_rows(uu[:, None] * v - vv[:, None] * u, uv) / (2.0 * s)[:, None]
        n = uv / np.sqrt(s)[:, None]
        self.n = np.where((dot_rows(n, tables.positions - self.c) < 0.0)[:, None], -n, n)
        self.rho2 = uu * vv * dot_rows(u - v, u - v) / (4.0 * s)
        # Each vertex's offsets to every center, those of its own three masked.
        self.offsets = self.c[:, None] - body.centers
        self.own = np.zeros(self.offsets.shape[:2], dtype=bool)
        self.own[np.arange(len(tri))[:, None], tri] = True

        opened = tables.ends[:, 0] >= 0  # a full circle has no end vertex
        full = ~opened
        e1, e2, z = tables.e1[opened], tables.e2[opened], tables.z[opened]
        self.ref, self.ends = tables.phi[opened], tables.ends[opened]
        # An arc end, vertex c + h n, sits at (x, y) = xy0 + h xy1 in its
        # circle's frame (about the circle's center z).
        off, n = self.c[self.ends] - z[:, None], self.n[self.ends]
        frame = np.stack([e1, e2], axis=1)[:, None]          # (arc, 1, 2, 3)
        self.xy0 = dot_rows(off[:, :, None], frame)          # (arc, end, 2)
        self.xy1 = dot_rows(n[:, :, None], frame)

        # The build's corner table, its arcs renumbered to the open arcs.
        # With tangents cos(phi) e2 - sin(phi) e1 and the facet normal
        # n = (c + h n_v - o) / R_t, a turn atan2((t_in x t_out) . n,
        # t_in . t_out) is atan2 of two forms bilinear in the (cos, sin) a
        # and b of its two arc ends, a (det_form0 + h det_form1) b / R_t and
        # a dot_form b; both scale alike with a and b, so the ends' (x, y)
        # serve.
        facet, in_arc, self.in_end, out_arc, self.out_end, self.corner_vertex = tables.corners
        slot = np.cumsum(opened) - 1
        self.in_slot, self.out_slot = slot[in_arc], slot[out_arc]
        tangent = np.stack([e2, -e1], axis=1)  # t = cos(phi) row 0 + sin(phi) row 1
        # A tangent taken at a backward arc's end points against the loop;
        # the turn changes sign when exactly one of the two does.
        sign = np.where(self.in_end == self.out_end, -1.0, 1.0)[:, None, None]
        t_in, t_out = tangent[self.in_slot][:, :, None], tangent[self.out_slot][:, None]
        cross = cross_rows(t_in, t_out)                  # (corner, 2, 2, 3)
        vertex = self.corner_vertex[:, None, None]
        offset = self.c[vertex] - body.centers[facet][:, None, None]
        self.dot_form = (sign * dot_rows(t_in, t_out)).reshape(-1, 4)
        self.det_form0 = (sign * dot_rows(cross, offset)).reshape(-1, 4)
        self.det_form1 = (sign * dot_rows(cross, self.n[vertex])).reshape(-1, 4)

        # Geodesic curvature: arc angle times lam d / 2 on each of an edge's
        # two facets, so lam d per edge; the full circles' angles are fixed.
        self.d = tables.dist[opened]
        dphi = tables.phi[:, 1] - tables.phi[:, 0]
        self.kg_full = float(np.sum(dphi[full] * tables.dist[full]))
        self.chi = int(tables.chi.sum())

    def next_event(self, t0):
        """The earliest certificate root after t0 (infinity if none)."""
        w = self.offsets
        nw = dot_rows(self.n[:, None], w)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = (self.rho2[:, None] - dot_rows(w, w)) / (2.0 * nw)
        h0 = np.sqrt((self.R - t0) ** 2 - self.rho2)[:, None]
        reach = (nw != 0.0) & (0.0 <= h) & (h < h0) & ~self.own
        roots = np.concatenate([self.R - np.sqrt(self.rho2),                          # (b)
                                (self.R - np.sqrt(h * h + self.rho2[:, None]))[reach]])  # (a)
        later = roots[roots > t0]
        return float(later.min()) if later.size else math.inf

    def area(self, ts):
        """f(t) at every t of the 1-d array ``ts``: the areas of
        ``ball_polytope3._facet_measures`` summed over the facets, each t's
        value independent of the others."""
        ts = np.asarray(ts, dtype=float)
        lam = 1.0 / (self.R - ts)
        radius = 1.0 / lam
        h = np.sqrt((radius * radius)[:, None] - self.rho2)   # (t, vertex)
        xy = self.xy0 + h[:, self.ends, None] * self.xy1      # (t, arc, end, 2)
        phi = np.arctan2(xy[..., 1], xy[..., 0])
        phi = self.ref + ((phi - self.ref + math.pi) % TWO_PI - math.pi)
        a = xy[:, self.in_slot, self.in_end]                   # (t, corner, 2)
        b = xy[:, self.out_slot, self.out_end]
        ab = (a[..., :, None] * b[..., None, :]).reshape(len(ts), -1, 4)
        det = (_row_dots(ab, self.det_form0)
               + h[:, self.corner_vertex] * _row_dots(ab, self.det_form1))
        turns = np.arctan2(det / radius[:, None], _row_dots(ab, self.dot_form))
        kg = lam * (self.kg_full + _row_sums((phi[:, :, 1] - phi[:, :, 0]) * self.d))
        return radius * radius * (TWO_PI * self.chi - kg - _row_sums(turns))


def _row_dots(ab, coef):
    """``sum_k ab[t, c, k] coef[c, k]`` for the four products of a corner."""
    p = ab * coef
    return (p[..., 0] + p[..., 1]) + (p[..., 2] + p[..., 3])


class _Erosion:
    """The bodies K_t of one body K for t in [0, r(K)).

    K_t keeps the centers, so every rebuild shares one minimal enclosing
    ball, the one K keeps (``inscribed_ball`` reads the same one):
    r(K) = R - rho, and each rebuild is ``bp3._rebuild`` on rho, emptiness
    test included, without recomputing the ball.  The event schedule and
    its pieces are computed on first use; ``_erosion`` keeps one
    ``_Erosion`` per body.
    """

    def __init__(self, polytope):
        self.polytope = polytope
        if polytope._meb is None:  # a support ball dropped: solve once, keep it
            object.__setattr__(polytope, "_meb", minimal_enclosing_ball(polytope.centers))
        self.meb = polytope._meb
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
            closed, rebuilt = float(piece.area([t_check])[0]), bp3.surface_area(end)
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

    def area(self, ts):
        """f at every t of the array ``ts`` (same shape): the closed form of
        the piece holding t.  The last piece holds up to its next root,
        beyond r(1 - _END_MARGIN); past it (only the coarea integral goes
        there) K_t is rebuilt."""
        events, pieces, expiry = self._schedule
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        out = np.empty_like(flat)
        late = flat >= expiry
        which = np.searchsorted(np.asarray(events, dtype=float), flat, side="right")
        which[late] = len(pieces)
        for k in np.unique(which).tolist():
            here = which == k
            if k < len(pieces):
                out[here] = pieces[k].area(flat[here])
            else:
                out[here] = [bp3.surface_area(self.body(t)) for t in flat[here].tolist()]
        return out.reshape(ts.shape)


def _erosion(polytope):
    """The body's ``_Erosion``, kept on it by the first call."""
    er = polytope._erosion
    if er is None:
        er = _Erosion(polytope)
        object.__setattr__(polytope, "_erosion", er)  # a cache on a frozen body
    return er


def detect_events(polytope):
    """Times in (0, r(K)(1 - 1e-5)) where the boundary combinatorics changes."""
    return _erosion(polytope).events


def profile(polytope, n_samples=64):
    """Sampled erosion profile with event refinement.

    Starts from ``n_samples`` equally spaced times in [0, r(K)) plus a
    sample just either side of every event, then bisects every interval
    whose end areas differ by more than 1% relative and that is longer
    than 1e-4 r(K) (the floor keeps the vanishing tail near the inradius
    finite), until both halves of each split pass.  The splits are made
    in the order of always splitting the leftmost failing interval, and
    they stop once 2048 samples are reached.

    Whether an interval splits depends only on its ends, so the closure
    of the splits is computed level by level first, one array of
    midpoints evaluated per level, while under the 2048 cap.  A closure
    of at most 2048 samples is the profile: splitting one interval at a
    time would make every one of its splits below the cap.  Otherwise the
    leftmost-first pass walks the closure's areas and evaluates a
    midpoint the closure did not reach on its own.
    """
    if n_samples < 2:
        raise InvalidParameterError(f"n_samples must be >= 2, got {n_samples}")
    er = _erosion(polytope)
    r = er.inradius
    events = er.events
    ts = set(np.linspace(0.0, r * (1.0 - _END_MARGIN), n_samples).tolist())
    for ev in events:
        for t in (ev - _EVENT_FLANK * r, ev + _EVENT_FLANK * r):
            if 0.0 <= t < r:
                ts.add(t)
    ts = sorted(ts)
    min_dt = 1e-4 * r

    t = np.asarray(ts)
    a = er.area(t)
    areas = dict(zip(ts, a.tolist()))
    lo, hi, a_lo, a_hi = t[:-1], t[1:], a[:-1], a[1:]
    while lo.size and len(areas) < _MAX_SAMPLES:
        # the split test of the pass below, on arrays
        keep = (hi - lo > min_dt) & (np.abs(a_lo - a_hi) > _REFINE_REL * np.maximum(a_lo, a_hi))
        lo, hi, a_lo, a_hi = lo[keep], hi[keep], a_lo[keep], a_hi[keep]
        mid = 0.5 * (lo + hi)
        a_mid = er.area(mid)
        areas.update(zip(mid.tolist(), a_mid.tolist()))
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        a_lo, a_hi = np.concatenate([a_lo, a_mid]), np.concatenate([a_mid, a_hi])
    if not lo.size and len(areas) <= _MAX_SAMPLES:
        # Every split of the closure happens below the cap, so the pass
        # below would make them all.
        done = sorted(areas)
    else:
        done, todo = ts[:1], ts[:0:-1]  # passed samples; the rest, next one last
        while todo:
            t0, t1 = done[-1], todo[-1]
            a0, a1 = areas[t0], areas[t1]
            if (len(done) + len(todo) < _MAX_SAMPLES and t1 - t0 > min_dt
                    and abs(a0 - a1) > _REFINE_REL * max(a0, a1)):
                mid = 0.5 * (t0 + t1)
                if mid not in areas:
                    areas[mid] = float(er.area([mid])[0])
                todo.append(mid)
            else:
                done.append(todo.pop())
    return ErosionProfile(ts=np.asarray(done), areas=np.asarray([areas[t] for t in done]),
                          events=events)


def volume_via_profile(polytope):
    """Coarea volume: the integral of the erosion profile up to the inradius.

    The pieces [0, e_1], [e_1, e_2], ..., [e_k, r] are integrated in one
    vectorized tanh-sinh call (``scipy.integrate.tanhsinh``, Takahasi &
    Mori 1974), each to a relative 1e-10; it evaluates each level's nodes
    of every piece as one array and tolerates the square-root endpoint
    behaviour at merge events and at the inradius.  Within 1e-7 of the inradius the eroded body
    collapses toward the inscribed center and rebuilds become degenerate;
    there the profile is replaced by the inscribed-sphere floor
    ``4 pi (r - t)^2``, whose integral error is far below the 1e-6
    relative target.  ``NumericError`` names a piece whose integral does
    not converge.
    """
    er = _erosion(polytope)
    r = er.inradius
    tail = 1e-7 * r
    ends = np.array([0.0, *er.events, r])

    def integrand(t):
        out = 4.0 * math.pi * (r - t) ** 2
        inside = r - t > tail
        out[inside] = er.area(t[inside])
        return out

    res = tanhsinh(integrand, ends[:-1], ends[1:], rtol=1e-10)
    failed = np.flatnonzero(~res.success)
    if failed.size:
        k = int(failed[0])
        lo, hi = ends[k:k + 2].tolist()
        raise NumericError(
            f"tanh-sinh on erosion piece {k}, t in [{lo!r}, {hi!r}], did "
            f"not converge (status {int(res.status[k])}, error estimate {float(res.error[k])!r})")
    return float(np.sum(res.integral))


def initial_derivative(polytope):
    """Right derivative of the erosion profile at t = 0.

    Evaluated on the curvature-normalized body (lengths scaled by lam) as
    ``-2 f(0) - 2 * sum over edges of length * tan(dihedral / 2)``, then
    scaled back.
    """
    lam = polytope.lam
    f0_unit = lam * lam * bp3.surface_area(polytope)
    return -2.0 * (f0_unit + sum(bp3._edge_tan_terms(polytope).tolist())) / lam


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
    body, lens = _erosion(polytope), _erosion(lens_polytope)
    r_body, r_lens = body.inradius, lens.inradius
    upper = min(r_body, r_lens) * (1.0 - _END_MARGIN)
    ts = np.linspace(0.0, upper, n_samples)
    gaps = body.area(ts) - lens.area(ts)
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
    er = _erosion(unit)
    er.check_distance(t)
    if er.events and er.events[0] <= t:
        raise InvalidParameterError(f"a combinatorial event occurs before t = {t}")
    beta_sum = bp3.surface_area(unit)
    edge_term = sum(bp3._edge_tan_terms(unit).tolist())
    ts = (t, 0.5 * t, 0.25 * t)
    tk = np.asarray(ts)
    remainders = tuple((er.area(tk) - ((1.0 - tk) ** 2 * beta_sum
                                       - 2.0 * tk * edge_term)).tolist())
    coefficients = tuple(rem / tk ** 2 for rem, tk in zip(remainders, ts))
    if all(abs(rem) <= 1e-11 * beta_sum for rem in remainders):
        passed = True  # remainder identically zero (the ball)
    else:  # each halving keeps the coefficient within 25%
        passed = all(abs(c_next) >= 1e-14 and abs(c_prev / c_next - 1.0) <= 0.25
                     for c_prev, c_next in zip(coefficients, coefficients[1:]))
    return ExpansionReport(ts=ts, remainders=remainders,
                           coefficients=coefficients, passed=passed)
