"""The arrangement kernel shared by the 3-D and 2-D builds.

``ball_polytope3.build`` (pairwise intersection circles of balls) and
``arc_polygon2.build2`` (chart circles of lambda-disks) run the same three
steps, each implemented once here:

* ``feasible_arcs``: every other constraint forbids one open arc of a
  candidate boundary circle; the surviving boundary is the complement of
  the union of those arcs;
* ``cluster_points``: arc endpoints closer than a tolerance merge into
  one vertex;
* ``chain_loops``: directed arcs chain into closed boundary loops by
  matching their end vertex to the next arc's start vertex.
"""

import math

import numpy as np

from .errors import TopologyError

TWO_PI = 2.0 * math.pi


def complement_of_forbidden(forbidden, eps=1e-12):
    """Complement of a union of open arcs on the circle.

    ``forbidden`` is an iterable of ``(center, half_width, label)``
    triples; each excludes the open arc ``(center - half_width,
    center + half_width)``.  Returns ``(arcs, full)`` where ``full`` is
    True when nothing was forbidden, and ``arcs`` is a list of closed
    feasible arcs ``(start, end, start_label, end_label)`` with
    ``start < end <= start + 2*pi``.  ``start_label``/``end_label`` name
    the constraints whose forbidden arcs bound the feasible arc.
    """
    items = []
    for center, half_width, label in forbidden:
        if half_width <= 0.0:
            continue
        if half_width >= math.pi - eps:
            return [], False  # one constraint forbids the whole circle
        lo = (center - half_width) % TWO_PI
        items.append((lo, lo + 2.0 * half_width, label))
    if not items:
        return [], True

    items.sort(key=lambda it: it[0])
    # Merge on the unrolled line; only the last merged interval can pass 2*pi.
    merged = []
    for lo, hi, lab in items:
        if merged and lo <= merged[-1][1] + eps:
            plo, phi, plab_lo, plab_hi = merged[-1]
            if hi > phi:
                merged[-1] = (plo, hi, plab_lo, lab)
        else:
            merged.append((lo, hi, lab, lab))

    first_lo = merged[0][0]
    last_lo, last_hi, last_lab_lo, last_lab_hi = merged[-1]
    if last_hi - last_lo >= TWO_PI - eps:
        return [], False
    if last_hi > TWO_PI:
        # The last interval wraps; absorb any leading intervals it overlaps.
        wrap_end = last_hi - TWO_PI
        while len(merged) > 1 and merged[0][0] <= wrap_end + eps:
            lo0, hi0, _, lab_hi0 = merged.pop(0)
            if hi0 > wrap_end:
                wrap_end = hi0
                last_lab_hi = lab_hi0
            if wrap_end >= last_lo - eps:
                return [], False
        merged[-1] = (last_lo, wrap_end + TWO_PI, last_lab_lo, last_lab_hi)

    # Complement arcs live on the same unrolled line: from each merged
    # interval's end to the next interval's start (cyclically for the last).
    arcs = []
    n = len(merged)
    for k in range(n):
        _, hi_k, _, lab_end_k = merged[k]
        lo_next, _, lab_start_next, _ = merged[(k + 1) % n]
        start = hi_k
        end = lo_next if k + 1 < n else lo_next + TWO_PI
        if end - start > eps:
            arcs.append((start, end, lab_end_k, lab_start_next))
    return arcs, False


def single_constraint_interval(a, b, d, eps=1e-14):
    """Feasible half-width of ``a*cos(phi) + b*sin(phi) <= d`` on a circle.

    Returns ``(kind, center, half_width)`` where ``kind`` is ``"full"``,
    ``"empty"`` or ``"cut"``.  For ``"cut"`` the *forbidden* open arc is
    ``(center - half_width, center + half_width)``.
    """
    m = math.hypot(a, b)
    if m <= eps:
        return ("full" if d >= -eps else "empty"), 0.0, 0.0
    ratio = d / m
    if ratio >= 1.0:
        return "full", 0.0, 0.0
    if ratio <= -1.0:
        return "empty", 0.0, 0.0
    phi0 = math.atan2(b, a)
    psi = math.acos(ratio)
    return "cut", phi0, psi


def feasible_arcs(constraints):
    """Feasible arcs of a circle under constraints ``a cos(phi) + b sin(phi) <= d``.

    ``constraints`` yields ``(a, b, d, label)``; it is consumed lazily and
    abandoned as soon as one constraint empties the circle, in which case
    the result is None.  Otherwise returns ``complement_of_forbidden`` of
    the forbidden arcs, which carry the constraint labels.
    """
    forbidden = []
    for a, b, d, label in constraints:
        kind, phi0, psi = single_constraint_interval(a, b, d)
        if kind == "empty":
            return None
        if kind == "cut":
            forbidden.append((phi0, psi, label))
    return complement_of_forbidden(forbidden)


def cluster_points(points, tol):
    """Greedy clustering: each point joins the first representative within tol.

    Returns ``(representatives, index)``: the points that opened a
    cluster, in order, and each input point's cluster number.  Each point
    is measured against all representatives so far at once.
    """
    points = list(points)
    reps, index = [], []
    if not points:
        return reps, index
    coords = np.array(points, dtype=float)
    rep_coords = np.empty_like(coords)
    for p, x in zip(points, coords):
        d = rep_coords[:len(reps)] - x
        # np.linalg.norm(d, axis=1), bit for bit, without its call overhead
        near = (np.sqrt(np.add.reduce(d * d, axis=1)) <= tol).nonzero()[0]
        if near.size:
            index.append(int(near[0]))
        else:
            rep_coords[len(reps)] = x
            index.append(len(reps))
            reps.append(p)
    return reps, index


def chain_loops(ends):
    """Chain directed arcs, given as ``(start_vertex, end_vertex)``, into loops.

    Each loop starts at the lowest unused arc and follows, at every vertex,
    the lowest unused arc leaving it.  Returns a list of loops, each a list
    of arc indices; raises ``TopologyError`` when a chain does not close.
    """
    unused = set(range(len(ends)))
    by_start = {}
    for idx, (start, _) in enumerate(ends):
        by_start.setdefault(start, []).append(idx)
    loops = []
    while unused:
        first = min(unused)
        loop = []
        cur = first
        while cur is not None:
            unused.discard(cur)
            loop.append(cur)
            end_v = ends[cur][1]
            cur = next((k for k in by_start.get(end_v, ()) if k in unused), None)
        if end_v != ends[first][0]:
            raise TopologyError(f"open boundary loop: no arc continues from vertex {end_v}")
        loops.append(loop)
    return loops
