"""The arrangement kernel shared by the 3-D and 2-D builds.

``ball_polytope3.build`` (pairwise intersection circles of balls) and
``arc_polygon2.build2`` (chart circles of lambda-disks) run the same three
steps, each implemented once here:

* ``feasible_arcs``: every other constraint forbids one open arc of a
  candidate boundary circle; the surviving boundary is the complement of
  the union of those arcs.  A build passes all its circles at once, as
  ``(circles, constraints)`` arrays of the coefficients ``a, b, d`` of
  ``a cos(phi) + b sin(phi) <= d``, and every entry is classified in one
  array pass (``hypot``, ``d / m``, ``arctan2``, ``arccos``); only the
  union of each circle's forbidden arcs runs per circle;
* ``cluster_points``: arc endpoints closer than a tolerance merge into
  one vertex;
* ``chain_loops``: directed arcs chain into closed boundary loops by
  matching their end vertex to the next arc's start vertex.
"""

import math
from itertools import accumulate

import numpy as np

from .errors import TopologyError

TWO_PI = 2.0 * math.pi
# Columns of u and v whose products make u x v = (y z' - z y', z x' - x z', x y' - y x').
_CROSS_U = np.array([1, 2, 0, 2, 0, 1])
_CROSS_V = np.array([2, 0, 1, 1, 2, 0])
# cluster_points measures this many points at a time against the others,
# which bounds its memory by 3 * 32 * 8 bytes a point.
_BLOCK_ROWS = 32


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


def feasible_arcs(a, b, d, eps=1e-14):
    """Feasible arcs of circles under constraints ``a cos(phi) + b sin(phi) <= d``.

    ``a``, ``b`` and ``d`` are ``(circles, constraints)`` arrays: entry
    ``[n, k]`` is constraint k on circle n.  With ``m = hypot(a, b)`` it
    forbids the open arc ``(atan2(b, a) - acos(d / m), atan2(b, a) +
    acos(d / m))`` when ``-1 < d / m < 1``.  It holds on the whole circle
    when ``d / m >= 1``, or ``m <= eps`` and ``d >= -eps`` (so ``d = inf``
    masks an entry, such as a circle's own ball), and it empties the
    circle when ``d / m <= -1``, or ``m <= eps`` and ``d < -eps``.

    Every entry is classified in one array pass.  Returns one result per
    circle: None when an entry empties it, whatever the others hold, and
    otherwise ``complement_of_forbidden`` of its forbidden arcs, labelled by
    their column.
    """
    m = np.hypot(a, b)
    tiny = m <= eps
    ratio = d / np.where(tiny, 1.0, m)  # d itself where m is tiny
    dead = np.where(tiny, d < -eps, ratio <= -1.0).any(1).tolist()
    cut = np.abs(ratio) < 1.0
    cut &= ~tiny
    centers = np.arctan2(b, a)[cut].tolist()
    halves = np.arccos(ratio[cut]).tolist()
    cols = cut.nonzero()[1].tolist()
    bounds = [0, *accumulate(cut.sum(1).tolist())]
    return [None if dead[n] else complement_of_forbidden(
                zip(centers[lo:hi], halves[lo:hi], cols[lo:hi]))
            for n, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


def dot_rows(u, v):
    """``u . v`` over the last axis of two arrays of 3-vectors, summed in
    index order like ``np.add.reduce``, which is slow on so short an axis."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def cross_rows(u, v):
    """``u x v`` over the last axis of two arrays of 3-vectors (rows of
    ``(n, 3)`` arrays, say), with ``np.cross``'s arithmetic and without its
    overhead."""
    p = u[..., _CROSS_U] * v[..., _CROSS_V]
    return p[..., :3] - p[..., 3:]


def cluster_points(points, tol):
    """Greedy clustering: each point joins the first representative within tol.

    Returns ``(representatives, index)``: the points that opened a
    cluster, in order, and each input point's cluster number.  Distances
    are measured a block of ``_BLOCK_ROWS`` points at a time, each against
    every point up to the block's end.
    """
    if len(points) == 0:
        return [], []
    coords = np.asarray(points, dtype=float)
    reps, index = [], []
    cluster_of = {}  # representative's point number -> its cluster number
    for start in range(0, len(coords), _BLOCK_ROWS):
        # Squared distances summed coordinate by coordinate, the order of
        # np.linalg.norm(p - q, axis=-1).
        d2 = 0.0
        for x, y in zip(coords[start:start + _BLOCK_ROWS].T, coords[:start + _BLOCK_ROWS].T):
            dx = x[:, None] - y
            dx *= dx
            d2 += dx
        near = np.sqrt(d2, out=d2) <= tol
        for i, first in enumerate(near.argmax(1).tolist(), start):
            if first not in cluster_of and first != i:  # its first near point joined another
                row = near[i - start]
                first = next((j for j in cluster_of if row[j]), i)
            if first == i:
                cluster_of[i] = len(reps)
                reps.append(points[i])
            index.append(cluster_of[first])
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
