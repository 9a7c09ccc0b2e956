"""Shared fixtures and independent oracles for the geometry tests."""

import math

import numpy as np

from lch import ball_polytope3 as bp3
from lch import harness


def make_body(seed, m, r0, lam=1.0):
    """Touching-construction body with inscribed radius r0 (deterministic)."""
    spec = harness.GenSpec(seed=seed, m=m, inradius=r0, lam=lam)
    return harness.random_polytope(spec)


def mc_facet_area(body, facet_index, n=200_000, seed=0):
    """Monte Carlo facet area: sample the supporting sphere, keep points in
    every *other* ball (testing against the own sphere would be pure
    boundary roundoff).  Returns (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    center = body.centers[facet_index]
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    x = center + body.radius * u
    ok = np.ones(n, dtype=bool)
    for k, c in enumerate(body.centers):
        if k == facet_index:
            continue
        ok &= np.linalg.norm(x - c, axis=1) <= body.radius
    for c in body.redundant_centers:
        ok &= np.linalg.norm(x - c, axis=1) <= body.radius
    sphere = 4.0 * math.pi * body.radius ** 2
    p = ok.mean()
    return sphere * p, sphere * math.sqrt(p * (1.0 - p) / n)


def support_assignment_counts(body, n=200_000, seed=0):
    """Classify uniform directions by the boundary feature of their support
    point; the fractions estimate the spherical-image areas.

    For each direction u the support point is the feasible candidate of
    largest u.x among: the extreme sphere points (facets), the extreme
    circle points (edges), and the vertices.  Returns
    (facet_fraction, edge_fraction, vertex_fractions) with
    vertex_fractions mapping vertex index -> fraction of directions.
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    radius = body.radius
    slack = 1e-12 * radius

    def in_body(points):
        ok = np.ones(len(points), dtype=bool)
        for c in body.centers:
            ok &= np.linalg.norm(points - c, axis=1) <= radius + slack
        return ok

    values = []
    kinds = []
    for c in body.centers:
        x = c + radius * u
        val = np.where(in_body(x), u @ c + radius, -np.inf)
        values.append(val)
        kinds.append(("facet", None))
    for e in body.edges:
        a = e.circle_axis
        p = u - (u @ a)[:, None] * a
        norms = np.linalg.norm(p, axis=1)
        good = norms > 1e-14
        x = e.circle_center + e.circle_radius * p / np.where(good, norms, 1.0)[:, None]
        val = np.where(good & in_body(x),
                       u @ e.circle_center + e.circle_radius * norms, -np.inf)
        values.append(val)
        kinds.append(("edge", None))
    for k, v in enumerate(body.vertices):
        values.append(u @ v.position)
        kinds.append(("vertex", k))
    values = np.vstack(values)
    best = np.argmax(values, axis=0)
    facet_count = 0
    edge_count = 0
    vertex_counts = {k: 0 for k in range(len(body.vertices))}
    for row, (kind, idx) in enumerate(kinds):
        hits = int(np.sum(best == row))
        if kind == "facet":
            facet_count += hits
        elif kind == "edge":
            edge_count += hits
        else:
            vertex_counts[idx] += hits
    vertex_fracs = {k: c / n for k, c in vertex_counts.items()}
    return facet_count / n, edge_count / n, vertex_fracs


def edge_strip_area_quadrature(body, edge, n_phi=200, n_tau=48):
    """Normal-strip area of an edge by direct surface quadrature.

    The strip is the spherical rectangle swept by interpolating the two
    facet normals along the edge; the parametrization and its partials are
    analytic, so Gauss-Legendre in both directions converges fast.
    """
    i, j = edge.pair
    o_i, o_j = body.centers[i], body.centers[j]
    radius = body.radius
    gamma = edge.dihedral
    sg = math.sin(gamma)
    e1, e2 = edge.frame
    xs_p, ws_p = np.polynomial.legendre.leggauss(n_phi)
    xs_t, ws_t = np.polynomial.legendre.leggauss(n_tau)
    phi = 0.5 * edge.arc_angle * xs_p + 0.5 * (edge.phi_start + edge.phi_end)
    s = 0.5 * xs_t + 0.5
    total = 0.0
    for ps, wt in zip(s, ws_t):
        a_i = math.sin((1.0 - ps) * gamma) / sg
        a_j = math.sin(ps * gamma) / sg
        da_i = -gamma * math.cos((1.0 - ps) * gamma) / sg
        da_j = gamma * math.cos(ps * gamma) / sg
        w = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
        dw = (-np.sin(phi))[:, None] * e1 + np.cos(phi)[:, None] * e2
        x = edge.circle_center + edge.circle_radius * w
        n_i = (x - o_i) / radius
        n_j = (x - o_j) / radius
        dn = edge.circle_radius * dw / radius  # same for both normals
        u_s = da_i * n_i + da_j * n_j
        u_phi = (a_i + a_j) * dn
        cross = np.cross(u_phi, u_s)
        total += wt * float(ws_p @ np.linalg.norm(cross, axis=1))
    return 0.25 * edge.arc_angle * total


def single_constraint_interval(a, b, d, eps=1e-14):
    """Scalar reference for one entry of ``_circular.feasible_arcs``: the
    feasible set of ``a*cos(phi) + b*sin(phi) <= d`` on the circle.

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
    return "cut", math.atan2(b, a), math.acos(ratio)


def _slice_measures(theta, p, q, az, c):
    """The measure of the azimuths phi, at each polar angle of ``theta``,
    where every column k keeps ``alpha_k + beta_k cos(phi - az_k) >= 0``,
    alpha = p cos(theta) - c and beta = q sin(theta).

    A column with -alpha/beta in (-1, 1) keeps the arc az +- acos(-alpha/beta),
    of measure 2 acos(-alpha/beta); the slice keeps their intersection.  Its
    measure is the sum of the arc ends that lie in every other arc, less the
    sum of the arc starts that do (each taken in [0, 2 pi)), plus 2 pi when
    phi = 0 is kept.
    """
    alpha = np.cos(theta)[:, None] * p - c
    beta = np.sin(theta)[:, None] * q
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(beta > 0.0, -alpha / beta, np.where(alpha >= 0.0, -np.inf, np.inf))
    cut = np.abs(ratio) < 1.0
    cos_h = np.where(cut, ratio, 0.0)
    sin_h = np.sqrt(1.0 - cos_h * cos_h)
    bound = np.where(cut, ratio, -2.0)  # a column that cuts nothing keeps every phi
    ca, sa = np.cos(az), np.sin(az)
    # cosines and sines of the starts az - h, then of the ends az + h
    cos_p = np.concatenate([ca * cos_h + sa * sin_h, ca * cos_h - sa * sin_h], axis=1)
    sin_p = np.concatenate([sa * cos_h - ca * sin_h, sa * cos_h + ca * sin_h], axis=1)
    inside = cos_p[:, :, None] * ca + sin_p[:, :, None] * sa >= bound[:, None, :]
    own = np.eye(len(q), dtype=bool)
    inside |= np.concatenate([own, own])[None]
    kept = inside.all(2) & np.concatenate([cut, cut], axis=1)
    half = np.arccos(cos_h)
    ends = np.mod(np.concatenate([az - half, az + half], axis=1), 2.0 * math.pi)
    ends[:, :len(q)] *= -1.0
    measure = np.where(kept, ends, 0.0).sum(1)
    measure += 2.0 * math.pi * (np.where(cut, ca, 1.0) >= bound).all(1)
    return np.where((ratio >= 1.0).any(1), 0.0, measure)


def slice_facet_area(body, ball, nodes=20, tol=1e-14):
    """Exact area of the facet of ball ``ball`` by slicing, independent of
    the build's Gauss-Bonnet sums.

    On the sphere of o = o_ball take polar angles theta about the direction
    w of the farthest other center o_j: the facet lies in ball j, so
    theta <= acos(|o_j - o| / 2R).  Ball k, g = o_k - o, keeps the
    directions u with u . g >= |g|^2 / 2R; on the slice at theta that is
    ``alpha + beta cos(phi - az) >= 0`` with alpha = (w . g) cos(theta) -
    |g|^2 / 2R, beta = |g_perp| sin(theta) and az the azimuth of g, so the
    slice's measure is the intersection of arcs of ``_slice_measures`` and
    the area is R^2 times the integral of sin(theta) times that measure.

    The integrand is analytic but at its kinks: where a slice turns
    tangent to a ball's circle (alpha = +-beta, at theta = |theta_k -+ r_k|,
    r_k = acos(|g| / 2R) and theta_k the polar angle of g) and where two
    balls' circles cross, when that point is on the facet.  Those roots are
    closed forms; the integral is split there, each piece is mapped by
    theta = a + (b - a) (1 - cos s) / 2 (which smooths square-root ends)
    and integrated by Gauss-Legendre in s, and a piece is halved until
    its halves agree with it to ``tol`` per unit of theta.
    """
    radius = body.radius
    others = np.delete(body.all_centers, ball, axis=0)
    o = body.all_centers[ball]
    g = others - o
    dist = np.linalg.norm(g, axis=1)
    far = int(np.argmax(dist))
    w = g[far] / dist[far]
    e1 = np.cross(w, [1.0, 0.0, 0.0] if abs(w[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(w, e1)
    top = math.acos(dist[far] / (2.0 * radius))
    p, x, y = g @ w, g @ e1, g @ e2
    theta_k, r_k = np.arctan2(np.hypot(x, y), p), np.arccos(dist / (2.0 * radius))
    # Balls whose circle stays out of theta < top keep every slice.
    near = (np.abs(theta_k - r_k) < top) & (np.arange(len(g)) != far)
    p, q, az = p[near], np.hypot(x, y)[near], np.arctan2(y, x)[near]
    c = dist[near] ** 2 / (2.0 * radius)
    theta_k, r_k, unit = theta_k[near], r_k[near], g[near] / dist[near, None]

    # The kinks' points: each circle's points of least and greatest theta,
    # and the crossings of two circles.
    low, high = theta_k - r_k, theta_k + r_k
    polar = np.concatenate([np.abs(low), np.minimum(high, 2.0 * math.pi - high)])
    azimuth = np.concatenate([az, az]) + np.where(np.concatenate([low < 0.0, high > math.pi]),
                                                  math.pi, 0.0)
    points = [np.cos(polar)[:, None] * w + np.sin(polar)[:, None]
              * (np.cos(azimuth)[:, None] * e1 + np.sin(azimuth)[:, None] * e2)]
    for a in range(len(unit)):
        for b in range(a + 1, len(unit)):
            cab = unit[a] @ unit[b]
            if cab * cab >= 1.0:
                continue
            ca, cb = math.cos(r_k[a]), math.cos(r_k[b])
            base = ((ca - cab * cb) * unit[a] + (cb - cab * ca) * unit[b]) / (1.0 - cab * cab)
            rest = 1.0 - base @ base
            if rest >= 0.0:
                n = np.cross(unit[a], unit[b])
                n *= math.sqrt(rest) / np.linalg.norm(n)
                points.append(np.array([base + n, base - n]))
    points = np.concatenate(points)
    on_facet = (np.linalg.norm(o + radius * points[:, None] - others, axis=2)
                <= radius * (1.0 + 1e-9)).all(1)
    kinks = np.arccos(np.clip(points[on_facet] @ w, -1.0, 1.0))
    cuts = np.unique(np.concatenate([kinks[kinks < top], [0.0, top]]))

    s, weight = np.polynomial.legendre.leggauss(nodes)
    s, weight = 0.5 * math.pi * (s + 1.0), 0.5 * math.pi * weight

    def rule(lo, hi):
        theta = lo[:, None] + (hi - lo)[:, None] * 0.5 * (1.0 - np.cos(s))
        measure = _slice_measures(theta.ravel(), p, q, az, c).reshape(theta.shape)
        return ((hi - lo)[:, None] * 0.5 * np.sin(s) * weight * np.sin(theta) * measure).sum(1)

    lo, hi = cuts[:-1], cuts[1:]
    whole, total = rule(lo, hi), 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        # Pieces below 1e-7 of the range sit at a rounding-noisy tangency;
        # what they could still change is far below the tolerance.
        done = (np.abs(left + right - whole) <= tol * (hi - lo)) | (hi - lo < 1e-7 * top)
        total += float(np.sum((left + right)[done]))
        if done.all():
            return radius * radius * total
        lo, hi = np.concatenate([lo[~done], mid[~done]]), np.concatenate([mid[~done], hi[~done]])
        whole = np.concatenate([left[~done], right[~done]])
    raise RuntimeError(f"slice quadrature of facet {ball} did not converge")


def vertex_image_reference(polytope, vertex):
    """Scalar reference for ``gauss_bonnet.vertex_spherical_image``: the
    spherical excess of the polygon of the vertex's unit facet normals,
    sorted by angle around their centroid, from its corner angles."""
    normals = []
    for i in sorted(vertex.incident):
        n = vertex.position - polytope.centers[i]
        normals.append(n / np.linalg.norm(n))
    centroid = np.sum(normals, axis=0)
    centroid /= np.linalg.norm(centroid)
    e1 = normals[0] - (normals[0] @ centroid) * centroid
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(centroid, e1)
    normals.sort(key=lambda n: math.atan2(n @ e2, n @ e1))
    k = len(normals)
    angle_sum = 0.0
    for a in range(k):
        prev_n, this_n, next_n = normals[a - 1], normals[a], normals[(a + 1) % k]
        u = prev_n - (prev_n @ this_n) * this_n
        v = next_n - (next_n @ this_n) * this_n
        cos_angle = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        angle_sum += math.acos(max(-1.0, min(1.0, cos_angle)))
    return angle_sum - (k - 2) * math.pi


def gb_total_reference(polytope):
    """Scalar reference for ``gauss_bonnet.gb_total``: (facet, edge,
    vertex) spherical-image totals, summed one facet, edge and vertex at a
    time."""
    lam = polytope.lam
    facet = lam * lam * sum(f.area for f in polytope.facets)
    edge = sum(2.0 * lam * e.length * math.tan(0.5 * e.dihedral) for e in polytope.edges)
    vertex = sum(vertex_image_reference(polytope, v) for v in polytope.vertices)
    return facet, edge, vertex
