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
