"""The four benchmark workloads: inputs, the timed operation and its checks.

Every workload runs whole rounds; a round holds one body of each stratum,
so every run has the same mix.  ``run`` is the timed operation on one body
and calls only the program.  ``check`` returns the names of the checks
the output fails; each check compares with a computation made apart from
the program or with a property the method must have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lch import arc_polygon2 as ap
from lch import ball_polytope3 as bp3
from lch import erosion, harness
from lch import model_space as ms
from lch import projection_ratio as pr
from lch.inradius import inscribed_ball, reduce_to_touching

import oracles

FOUR_PI = 4.0 * math.pi
_MASK = (1 << 63) - 1


def _rng(*key):
    return np.random.default_rng([k & _MASK for k in key])


def _moved(rng, centers):
    """The centers under a random rotation and a translation in [-0.5, 0.5]^3."""
    q = oracles.random_rotation(rng)
    return np.asarray(centers, dtype=float) @ q.T + rng.uniform(-0.5, 0.5, size=3)


# ---------------------------------------------------------------------------
# sweep: one trial of harness.sweep per body
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepBody:
    seed: int  # the harness.sweep seed; its single trial has m facets
    m: int


class Sweep:
    """``harness.sweep(1, m_max=24, seed=s)``, one body per m in 2..24.

    harness.sweep draws m for trial 0 from Philox stream (s, 1000); seeds
    are drawn from the run seed until that draw gives the stratum's m, so
    each round covers m = 2..24 once and the mix never changes.
    """

    name = "sweep"
    strata = tuple(range(2, 25))
    round_seconds = 1.6
    mc_every = 16  # Monte Carlo volume and inradius on bodies 0, 16, 32, ...
    mc_grid = 80

    def inputs(self, seed, rounds):
        out = []
        for r in range(rounds):
            rng = _rng(1, seed, r)
            for m in self.strata:
                while True:
                    s = int(rng.integers(0, 1 << 62))
                    if int(harness.rng_stream(s, 1000).integers(2, 25)) == m:
                        break
                out.append(SweepBody(seed=s, m=m))
        return out

    def warm_up(self):
        self.run(SweepBody(seed=12345, m=0))

    def run(self, body):
        return harness.sweep(1, m_max=24, seed=body.seed).records[0]

    def check(self, index, body, rec):
        bad = []
        if rec.m != body.m:
            bad.append("stratum")
        if abs(rec.gb_defect) > 1e-9:
            bad.append("gauss_bonnet")
        if rec.rip_margin < -1e-9:
            bad.append("reverse_isoperimetric")
        if rec.inradius_margin < -1e-9:
            bad.append("reverse_inradius")
        if 36.0 * math.pi * rec.volume ** 2 > rec.surface_area ** 3 * (1.0 + 1e-12):
            bad.append("isoperimetric")
        if index % self.mc_every == 0:
            bad += self.check_rebuilt(rec, harness.random_polytope(
                harness.GenSpec(seed=rec.seed, m=rec.m, inradius=rec.inradius)))
        return bad

    def check_rebuilt(self, rec, built):
        """Checks on the body rebuilt from the record's seed, m and r0."""
        bad = []
        if abs(inscribed_ball(built).radius - rec.inradius) > 1e-9:
            bad.append("inradius")
        est, sigma = oracles.mc_ball_intersection(
            _rng(11, rec.seed), built.all_centers, built.radius, self.mc_grid)
        if abs(rec.volume - est) > 4.0 * sigma:
            bad.append("volume_mc")
        return bad

    def describe(self, body):
        out = {"rebuild": f"lch sweep --trials 1 --m-max 24 --seed {body.seed}"}
        try:
            rec = self.run(body)
            built = harness.random_polytope(
                harness.GenSpec(seed=rec.seed, m=rec.m, inradius=rec.inradius))
            out.update(inradius=rec.inradius, centers=built.all_centers.tolist())
        except Exception as exc:  # the body itself may be what fails
            out["centers"] = f"not rebuilt: {exc!r}"
        return out


# ---------------------------------------------------------------------------
# erode: build, erosion profile (64 steps) and coarea volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErodeBody:
    label: str
    centers: np.ndarray
    inradius: float        # closed form: 1/lam - h, or the generator's r0
    event: float | None    # closed-form event time of a three-ball body


# A lens with half center distance h plus one equatorial ball at offset
# delta, 1 - sqrt(1 - h^2) < delta < h: the third facet exists and dies at
# t* = 1 - (h^2 + delta^2) / (2 delta), before the inradius 1 - h.
THREE_BALL_H, THREE_BALL_DELTA = 0.5, 0.3
# The touching body: harness.random_polytope(GenSpec(seed=31, m=3, inradius=0.4)).
TOUCHING_SEED, TOUCHING_M, TOUCHING_R = 31, 3, 0.4


class Erode:
    """Two fixed shapes, each under a fresh rigid motion in every round.

    One body costs 900-1400 rebuilds, random shapes of one m differ in cost
    by up to 2x, and a run holds only a few bodies; so the shapes are
    fixed and the seed draws their motions, and every run does the same
    work on different coordinates.  Touching bodies with m = 4..6 are left
    out: one costs 8-33 s, more than a whole run.
    """

    name = "erode"
    strata = ("three_ball", "touching_m3")
    round_seconds = 18.0

    def _shapes(self):
        h, delta = THREE_BALL_H, THREE_BALL_DELTA
        body = harness.random_polytope(harness.GenSpec(
            seed=TOUCHING_SEED, m=TOUCHING_M, inradius=TOUCHING_R))
        return (("three_ball", [[0.0, 0.0, h], [0.0, 0.0, -h], [delta, 0.0, 0.0]],
                 1.0 - h, 1.0 - (h * h + delta * delta) / (2.0 * delta)),
                ("touching_m3", body.centers, TOUCHING_R, None))

    def inputs(self, seed, rounds):
        shapes = self._shapes()
        out = []
        for r in range(rounds):
            rng = _rng(2, seed, r)
            for label, centers, r_in, event in shapes:
                out.append(ErodeBody(label, _moved(rng, centers), r_in, event))
        return out

    def warm_up(self):
        """A lens through the coarea volume: build, MEB, LP and quad all run."""
        erosion.volume_via_profile(bp3.build(1.0, [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]]))

    def run(self, body):
        poly = bp3.build(1.0, body.centers)
        prof = erosion.profile(poly, 64)
        return {"poly": poly, "ts": prof.ts, "areas": prof.areas,
                "events": prof.events, "volume": erosion.volume_via_profile(poly)}

    def check(self, index, body, out):
        bad = []
        ts, areas = np.asarray(out["ts"]), np.asarray(out["areas"])
        area0 = bp3.surface_area(out["poly"])
        if ts[0] != 0.0 or abs(areas[0] - area0) > 1e-12 * area0:
            bad.append("initial_area")
        if not (np.all(np.diff(ts) > 0.0) and np.all(np.diff(areas) < 0.0)):
            bad.append("decreasing")
        lower = FOUR_PI * (body.inradius - ts) ** 2
        upper = FOUR_PI * (1.0 - ts) ** 2
        if np.any(areas < lower * (1.0 - 1e-9)) or np.any(areas > upper * (1.0 + 1e-9)):
            bad.append("area_bounds")
        vol = bp3.volume(out["poly"])
        if abs(out["volume"] - vol) > 1e-6 * vol:
            bad.append("coarea_volume")
        if body.event is not None and (len(out["events"]) != 1
                                       or abs(out["events"][0] - body.event) > 1e-8):
            bad.append("event_time")
        return bad

    def describe(self, body):
        return {"lambda": 1.0, "centers": body.centers.tolist()}


# ---------------------------------------------------------------------------
# keyclaim: build, reduce to touching facets, per-facet ratio bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyclaimBody:
    m: int
    centers: np.ndarray
    inradius: float  # the generator's r0


class Keyclaim:
    """Touching bodies, m = 3..12: one fixed shape per m, moved by the seed.

    Per-body cost spreads by up to 2x between shapes of one m, so, as in
    ``erode``, the shapes are fixed and every round draws new rigid motions.
    """

    name = "keyclaim"
    strata = tuple(range(3, 13))
    round_seconds = 10.0

    def inputs(self, seed, rounds):
        shapes = []
        for m in self.strata:
            r0 = float(harness.rng_stream(3, m).uniform(0.25, 0.55))
            body = harness.random_polytope(harness.GenSpec(seed=1000 + m, m=m, inradius=r0))
            shapes.append((m, body.centers, r0))
        out = []
        for r in range(rounds):
            rng = _rng(3, seed, r)
            out.extend(KeyclaimBody(m, _moved(rng, centers), r0) for m, centers, r0 in shapes)
        return out

    def warm_up(self):
        body = harness.random_polytope(harness.GenSpec(seed=7, m=4, inradius=0.4))
        self.run(KeyclaimBody(4, body.centers, 0.4))

    def run(self, body):
        poly = reduce_to_touching(bp3.build(1.0, body.centers))
        return pr.key_claim_check(poly)

    def check(self, index, body, rep):
        bad = []
        sphere = FOUR_PI * body.inradius ** 2
        if abs(rep.projected_total - sphere) > 1e-5 * sphere:
            bad.append("projected_tiling")
        if abs(rep.bound * body.inradius - 1.0) > 1e-12:
            bad.append("ratio_bound")
        if rep.max_ratio > rep.bound + 1e-5:
            bad.append("key_claim")
        return bad

    def describe(self, body):
        return {"lambda": 1.0, "centers": body.centers.tolist()}


# ---------------------------------------------------------------------------
# plane: 2-D arc polygons in M^2(c), c in {-1, 0, +1}
# ---------------------------------------------------------------------------

# (kind of lambda-disk, curvature, lambda); each r0 < 0.4 stays below the
# disk radius or characteristic distance (0.55 or more for all five).
KINDS = (("euclidean", 0.0, 1.0), ("spherical", 1.0, 1.0), ("hyperbolic", -1.0, 2.0),
         ("horodisk", -1.0, 1.0), ("equidistant", -1.0, 0.5))


@dataclass(frozen=True)
class PlaneBody:
    kind: str
    curvature: float
    lam: float
    inradius: float  # r0 of the touching construction
    disks: tuple


class Plane:
    """``build2`` from generated disks, then perimeter, area, inradius and
    the 2-D Theorem-B check; one body per (kind, m) with m = 2..6."""

    name = "plane"
    strata = tuple((kind, m) for kind in KINDS for m in range(2, 7))
    round_seconds = 1.0
    mc_every = 13  # Monte Carlo area on bodies 0, 13, 26, ... (13 is prime to 25)
    mc_grid = {"euclidean": 700, "spherical": 500, "hyperbolic": 500}

    def _body(self, rng, kind, m):
        """Disks touching the circle of radius r0 about the chart origin at m
        directions that surround it (largest angular gap below pi)."""
        name, c, lam = kind
        r0 = float(rng.uniform(0.15, 0.4))
        if m == 2:
            angles = rng.uniform(0.0, 2.0 * math.pi) + np.array([0.0, math.pi])
        else:
            while True:
                angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=m))
                if np.max(np.diff(np.r_[angles, angles[0] + 2.0 * math.pi])) < math.pi - 1e-3:
                    break
        space = ms.ModelSpace(2, c)
        disks = tuple(ap.supporting_disk(space, lam, r0, (math.cos(a), math.sin(a)))
                      for a in angles)
        return PlaneBody(name, c, lam, r0, disks)

    def inputs(self, seed, rounds):
        out = []
        for r in range(rounds):
            rng = _rng(4, seed, r)
            out.extend(self._body(rng, kind, m) for kind, m in self.strata)
        return out

    def warm_up(self):
        rng = _rng(4, 12345)
        for kind in (KINDS[0], KINDS[2]):
            self.run(self._body(rng, kind, 3))

    def run(self, body):
        poly = ap.build2(ms.ModelSpace(2, body.curvature), body.lam, body.disks)
        disk = ap.inradius2(poly)
        return {"poly": poly, "perimeter": ap.perimeter2(poly), "area": ap.area2(poly),
                "inradius": disk.radius, "margin": ap.theoremB_2d_check(poly).margin}

    def check(self, index, body, out):
        bad = []
        if abs(out["inradius"] - body.inradius) > 1e-7:
            bad.append("inradius")
        if out["margin"] < -1e-7:
            bad.append("theorem_b")
        if body.kind == "euclidean":
            turning = (body.lam * out["perimeter"] + sum(out["poly"].turning_angles)
                       - 2.0 * math.pi)
            if abs(turning) > 1e-9:
                bad.append("turning")
        if index % self.mc_every == 0 and body.kind in self.mc_grid:
            rng = _rng(12, index)
            centers = [d.center for d in body.disks]
            if body.kind == "euclidean":
                est, sigma = oracles.mc_ball_intersection(rng, centers, 1.0 / body.lam,
                                                          self.mc_grid[body.kind])
            else:
                rho = oracles.geodesic_radius(body.curvature, body.lam)
                est, sigma = oracles.mc_geodesic_polygon_area(
                    rng, body.curvature, centers, rho, self.mc_grid[body.kind])
            if abs(out["area"] - est) > 4.0 * sigma:
                bad.append("area_mc")
        return bad

    def describe(self, body):
        disks = []
        for d in body.disks:
            if d.kind in ("euclidean", "geodesic"):
                disks.append({"kind": d.kind, "center": list(d.center)})
            elif d.kind == "horo":
                disks.append({"kind": "horo", "ideal": list(d.ideal), "level": d.level})
            else:
                disks.append({"kind": "equidistant",
                              "geodesic": [list(p) for p in d.geodesic]})
        return {"lambda": body.lam, "curvature": body.curvature, "disks": disks,
                "inradius": body.inradius}


WORKLOADS = {w.name: w for w in (Sweep(), Erode(), Keyclaim(), Plane())}
