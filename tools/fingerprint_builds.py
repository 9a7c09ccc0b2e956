"""Fingerprint 3-D builds, 2-D polygons, erosion profiles and the key claim
on a fixed list of 1444 bodies.

    PYTHONPATH=<checkout>/src python tools/fingerprint_builds.py > out.json
    PYTHONPATH=<checkout>/src python tools/fingerprint_builds.py --compare old.json new.json

Run it on two checkouts and compare the outputs: every float is written
with float.hex, so equal files mean bit-identical builds.  The list holds
688 3-D bodies (touching-construction and random-center bodies with
m = 2..24; bodies with duplicate, near-duplicate and redundant centers;
touching bodies with m = 5..24 whose centers are moved radially by a
relative 0 to 1e-3, on both sides of the cosphericity tolerance of the
hull candidate pairs; four centers near one circle of their common
sphere; and centers within ~1e-13 of a plane), each with its facets'
corner rows (sorted per facet, so the order of the corner table's
columns does not count), Euler characteristics, areas and vector
areas, the three components of its
``gauss_bonnet.gb_total`` and its build report (redundant and duplicate
indices, source centers, and the ``pair_source`` and ``candidate_pairs``
of its candidate pairs, so a change in which pairs a build takes shows
too), 150 polygons of each of
the five lambda-disk kinds, and six
erosion rows: ``erosion.profile(body, 64)`` (ts, areas, events) and
``erosion.volume_via_profile`` of a lens, the lens plus a ball whose facet
dies at t = 13/30, the same three balls in another order, the touching
body of ``GenSpec(seed=31, m=3, inradius=0.4)``, and the random-center
bodies of seeds 3 (an edge flip) and 5 (four events, two pairs of them
under 1e-3 apart) from the erosion tests.  The inscribed section
holds ``inradius.inscribed_ball`` of every 3-D body of the list: its
center and radius (one field), touching set and ``halfspace_ok``.  Each polygon row also
holds its ``inradius2`` disk and the inradius of the lens of equal
perimeter; failures are recorded as rows, like build failures.  The
key-claim section runs ``reduce_to_touching`` and ``key_claim_check`` on
the 240 touching-construction bodies of the 3-D list and records each
facet's projected area and ratio and the ``at_equality`` flags.

``--compare`` prints, for each section and each field, the number of rows
whose non-float content differs (the floats quoted in a failure's message
count as floats) and the largest relative difference of
the floats, measured against the largest magnitude of that field in the
row (so a vertex coordinate near zero is compared on its polygon's scale).
Erosion profiles are matched on their shared sample times: the areas are
compared at those times, and the sample times only one side has are
counted apart.  It exits 1 when the files differ beyond rounding: a
section or row count differs, a row differs in a non-float field, a
sample time is not shared, or a float differs by more than ``FLOAT_REL``
= 1e-12 relative; otherwise 0.
"""
import json
import math
import re
import sys

import numpy as np

from lch import arc_polygon2 as ap
from lch import ball_polytope3 as bp3
from lch import erosion
from lch import gauss_bonnet as gb
from lch import harness
from lch import inradius
from lch import model_space as ms
from lch import projection_ratio as pr


def h(x):
    return float(x).hex()


def fp3(lam, centers):
    b = recorded(bp3.build, lam, centers)
    if not isinstance(b, bp3.BallPolytope3):
        return b
    r, t = b.build_report, b.tables
    return {
        "sig": repr(b.combinatorial_signature()),
        "corners": facet_corners(t),
        "chi": t.chi.tolist(),
        "facet_areas": [h(a) for a in t.area],
        "vector_areas": [[h(x) for x in v] for v in t.vector_area],
        "area": h(bp3.surface_area(b)),
        "volume": h(bp3.volume(b)),
        "report": [list(r.redundant_indices), list(r.duplicate_indices),
                   [h(v) for v in np.ravel(r.source_centers)],
                   r.pair_source, r.candidate_pairs],
        "vertices": [[h(v) for v in x] + balls
                     for x, balls in zip(t.positions, t.triples.tolist())],
        "edges": [[pair, *map(h, phi), *(None if v < 0 else v for v in ends)]
                  for pair, phi, ends in zip(t.pair.tolist(), t.phi, t.ends.tolist())],
        "gb_total": recorded(gb_components, b),
    }


def facet_corners(tables):
    """Each facet's corner rows ``(in_arc, in_end, out_arc, out_end,
    vertex)``, sorted, so the fingerprint does not depend on the order of
    the corner table's columns."""
    rows = [[] for _ in tables.chi]
    for facet, *row in tables.corners.T.tolist():
        rows[facet].append(row)
    return [sorted(r) for r in rows]


def gb_components(body):
    """``gauss_bonnet.gb_total``'s three components, one field each."""
    rep = gb.gb_total(body)
    return {"facet": h(rep.facet_total), "edge": h(rep.edge_total),
            "vertex": h(rep.vertex_total)}


def recorded(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # record failures too
        return ["error", type(exc).__name__, str(exc)]


def fp2(space, lam, disks):
    p = recorded(ap.build2, space, lam, disks)
    if not isinstance(p, ap.ArcPolygon2):
        return p
    disk = recorded(ap.inradius2, p)
    return {
        "perimeter": h(ap.perimeter2(p)),
        "area": h(ap.area2(p)),
        "turning": [h(t) for t in p.turning_angles],
        "order": [a.disk_index for a in p.boundary],
        "vertices": [[h(v) for v in x] for x in p.vertices],
        "inradius": disk if isinstance(disk, list) else [h(disk.radius), list(disk.touching)],
        "lens": recorded(lambda: h(ap.matched_lens_inradius(space, lam, ap.perimeter2(p)))),
    }


def fp_erosion(centers):
    body = bp3.build(1.0, centers)
    prof = erosion.profile(body, 64)
    return {
        "ts": [h(t) for t in prof.ts],
        "areas": [h(a) for a in prof.areas],
        "events": [h(t) for t in prof.events],
        "volume": h(erosion.volume_via_profile(body)),
    }


def fp_inscribed(lam, centers):
    def ball():
        b = inradius.inscribed_ball(bp3.build(lam, centers))
        # center and radius in one field, so --compare measures the
        # center's change on the ball's scale
        return {"ball": [h(x) for x in b.center] + [h(b.radius)],
                "touching": list(b.touching), "halfspace_ok": b.halfspace_ok}
    return recorded(ball)


def fp_keyclaim(lam, centers):
    def check():
        body = inradius.reduce_to_touching(bp3.build(lam, centers))
        ball = inradius.inscribed_ball(body)
        rep = pr.key_claim_check(body)
        return {
            "projected": [h(pr.projected_facet_area(body, pr.chart_for_facet(body, k, ball)))
                          for k in range(len(body.centers))],
            "ratios": [h(r) for r in rep.ratios],
            "at_equality": list(rep.at_equality),
        }
    return recorded(check)


def vanishing_triangle_centers(seed):
    """The random-center bodies of the erosion event tests."""
    rng = np.random.default_rng(seed)
    m = rng.integers(3, 7)
    u = rng.normal(size=(m, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u * rng.uniform(0.3, 0.65, size=(m, 1))


def erosion_bodies():
    lens = [[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]]
    touching = harness.random_polytope(harness.GenSpec(seed=31, m=3, inradius=0.4))
    return [lens, lens + [[0.3, 0.0, 0.0]],
            [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.3, 0.0, 0.0]],
            touching.centers, vanishing_triangle_centers(3), vanishing_triangle_centers(5)]


def touching_bodies3(rng):
    """The touching-construction bodies, m = 2..24, that open the 3-D list."""
    out = []
    for k in range(240):
        m = 2 + k % 23
        spec = harness.GenSpec(seed=1000 + k, m=m, inradius=float(rng.uniform(0.15, 0.85)))
        out.append((1.0, harness.random_polytope(spec).centers))
    return out


def bodies3():
    rng = np.random.default_rng(2024)
    out = touching_bodies3(rng)
    for k in range(240):  # random centers inside a ball of radius < 1
        m = 2 + k % 23
        u = rng.normal(size=(m, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        out.append((lam, u * rng.uniform(0.05, 0.95, size=(m, 1)) / lam))
    for k in range(40):  # duplicate, near-duplicate and redundant (hull) centers
        m = 3 + k % 8
        c = harness.random_polytope(harness.GenSpec(seed=5000 + k, m=m, inradius=0.4)).centers
        w = rng.dirichlet(np.ones(m))
        extra = [c[k % m], c[(k + 1) % m] + 1e-13, w @ c]
        rows = list(c) + extra
        order = rng.permutation(len(rows))
        out.append((1.0, np.asarray(rows)[order]))
    out += [(1.0, noisy_touching_centers(m, m, noise)) for noise in NOISE for m in range(5, 25)]
    out += [(1.0, near_cocircular_centers(eps)) for eps in COCIRCULAR_EPS]
    planar = np.random.default_rng(0)
    out += [(1.0, near_planar_centers(planar)) for _ in range(20)]
    return out


NOISE = (0.0, 1e-15, 1e-13, 1e-12, 1e-9, 1e-6, 1e-3)
COCIRCULAR_EPS = (0.0, 1e-15, 1e-12, 1e-9, 1e-8, -1e-7, 1e-6, 1e-4)


def noisy_touching_centers(seed, m, noise):
    """A touching body's centers, each moved radially by relative ``noise``."""
    spec = harness.GenSpec(seed=seed, m=m, inradius=0.3 + 0.02 * (m % 10))
    centers = harness.random_polytope(spec).centers
    rng = np.random.default_rng(seed)
    return centers * (1.0 + noise * rng.standard_normal((m, 1)))


def near_cocircular_centers(eps):
    """Four centers on one circle of the common sphere, the first moved
    ``eps`` off it along the sphere, and four below."""
    polar = [0.55 + eps, 0.55, 0.55, 0.55, 2.3, 2.5, 2.2, 2.7]
    azimuth = [0.1, 1.9, 3.3, 4.6, 0.7, 2.6, 4.0, 5.5]
    return -0.6 * np.array([[math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
                            for t, p in zip(polar, azimuth)])


def near_planar_centers(rng):
    """Centers in convex position within ~1e-13 of a plane."""
    m = int(rng.integers(6, 12))
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
    radii = rng.uniform(0.3, 0.6, m)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles),
                            1e-13 * rng.standard_normal(m)])


KINDS = (  # (curvature, lam): euclidean, spherical, hyperbolic disk, horodisk, equidistant
    (0.0, 1.0), (1.0, 1.0), (-1.0, 2.0), (-1.0, 1.0), (-1.0, 0.5),
)


def bodies2():
    rng = np.random.default_rng(77)
    out = []
    for c, lam in KINDS:
        space = ms.ModelSpace(2, c)
        cls = ms.classify_umbilical(space, lam)
        size = cls.size if cls.size is not None else 1.0
        for k in range(150):
            m = 2 + k % 7
            r0 = float(rng.uniform(0.1, 0.9)) * min(size, 1.0 / lam if c == 0 else size)
            ang = np.sort(rng.uniform(0, 2 * math.pi, size=m)) if k % 3 else \
                np.linspace(0, 2 * math.pi, m, endpoint=False) + rng.uniform(0, 1)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            try:
                disks = [ap.supporting_disk(space, lam, r0, u) for u in dirs]
            except Exception as exc:
                out.append((space, lam, None, repr(exc)))
                continue
            out.append((space, lam, disks, None))
    return out


# The largest relative float difference of two builds that agree.
FLOAT_REL = 1e-12
# A decimal number with a point or an exponent, as Python prints a float.
FLOAT_IN_TEXT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?")


def fields(row, path="", out=None):
    """Row leaves grouped by field path; hex strings become floats, and so
    do the floats quoted in a failure's message (a vertex position, say),
    so that a failure moved by rounding compares as a float difference."""
    out = {} if out is None else out
    if isinstance(row, dict):
        for k, v in row.items():
            fields(v, f"{path}/{k}", out)
    elif isinstance(row, list):
        if len(row) == 3 and row[0] == "error":
            row = [row[0], row[1], FLOAT_IN_TEXT.sub("#", row[2]),
                   *map(float, FLOAT_IN_TEXT.findall(row[2]))]
        for v in row:
            fields(v, path, out)
    else:
        hexed = isinstance(row, str) and "0x" in row
        out.setdefault(path or "/", []).append(float.fromhex(row) if hexed else row)
    return out


def split_samples(row):
    """An erosion row without its profile samples, and the samples as a
    {t: area} map of hex strings; other rows pass through."""
    if not (isinstance(row, dict) and "ts" in row):
        return row, {}
    return ({k: v for k, v in row.items() if k not in ("ts", "areas")},
            dict(zip(row["ts"], row["areas"])))


def compare(old, new):
    """Print the differences of two fingerprints; True when they agree (see
    the module docstring)."""
    agree = old.keys() == new.keys()
    for section in old.keys() ^ new.keys():
        print(f"{section}: only in the {'old' if section in old else 'new'} file")
    for section in (s for s in old if s in new):
        a_rows, b_rows = old[section], new[section]
        print(f"{section}: {len(a_rows)} rows")
        if len(a_rows) != len(b_rows):
            print(f"  row counts differ: {len(a_rows)} vs {len(b_rows)}")
            agree = False
            continue
        stats = {}  # field -> [rows with non-float differences, max relative float difference]
        unshared = 0  # profile sample times only one side has
        for a, b in zip(a_rows, b_rows):
            (a, sa), (b, sb) = split_samples(a), split_samples(b)
            differs = False
            if sa or sb:
                stat = stats.setdefault("/areas at shared ts", [0, 0.0])
                only = len(sa.keys() ^ sb.keys())
                unshared += only
                differs = only > 0
                pairs = [(float.fromhex(sa[t]), float.fromhex(sb[t])) for t in sa.keys() & sb.keys()]
                scale = max((max(abs(x), abs(y)) for x, y in pairs), default=0.0)
                if scale > 0.0:
                    stat[1] = max(stat[1], max(abs(x - y) for x, y in pairs) / scale)
            fa, fb = fields(a), fields(b)
            for path in fa.keys() | fb.keys():
                va, vb = fa.get(path, []), fb.get(path, [])
                stat = stats.setdefault(path, [0, 0.0])
                xa = [v for v in va if isinstance(v, float)]
                xb = [v for v in vb if isinstance(v, float)]
                if len(xa) != len(xb) or ([v for v in va if not isinstance(v, float)]
                                          != [v for v in vb if not isinstance(v, float)]):
                    stat[0] += 1
                    differs = True
                    continue
                scale = max((abs(v) for v in xa + xb), default=0.0)
                if scale > 0.0:
                    stat[1] = max(stat[1], max(abs(x - y) for x, y in zip(xa, xb)) / scale)
            stats.setdefault("all fields", [0, 0.0])[0] += differs
        stats.setdefault("all fields", [0, 0.0])  # also for a section without rows
        stats["all fields"][1] = max(rel for _, rel in stats.values())
        for path, (rows, rel) in sorted(stats.items()):
            print(f"  {path}: {rows} rows differ in non-float fields; "
                  f"max relative float difference {rel:.3g}")
        if any(isinstance(r, dict) and "ts" in r for r in a_rows + b_rows):
            print(f"  sample times not shared: {unshared}")
        agree &= unshared == 0 and all(rows == 0 and rel <= FLOAT_REL
                                       for rows, rel in stats.values())
    return agree


def main():
    if sys.argv[1:2] == ["--compare"]:
        with open(sys.argv[2]) as f_old, open(sys.argv[3]) as f_new:
            return 0 if compare(json.load(f_old), json.load(f_new)) else 1
    three = bodies3()
    rows = {
        "3d": [fp3(lam, centers) for lam, centers in three],
        "inscribed": [fp_inscribed(lam, centers) for lam, centers in three],
        "2d": [fp2(space, lam, disks) if disks is not None else ["gen", err]
               for space, lam, disks, err in bodies2()],
        "erosion": [fp_erosion(centers) for centers in erosion_bodies()],
        "keyclaim": [fp_keyclaim(lam, centers)
                     for lam, centers in touching_bodies3(np.random.default_rng(2024))],
    }
    json.dump(rows, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
