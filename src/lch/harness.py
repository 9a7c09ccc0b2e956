"""Random body generators, Monte Carlo oracles, and verification sweeps.

Randomness comes from the counter-based Philox generator so every stream
is reproducible and splittable: stream ``k`` of seed ``s`` is
``Philox(key=[s, k])``.  Bodies are generated by the touching
construction: sample unit directions whose convex hull contains the
origin, then place supporting disks/balls tangent to the inscribed ball
of the requested radius, which pins the inradius exactly.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import arc_polygon2 as ap
from . import ball_polytope3 as bp3
from . import erosion
from . import gauss_bonnet as gb
from . import model_space as ms
from .errors import GenerationError, InvalidParameterError, LchError, check_lam
from .inradius import halfspace_condition, inscribed_ball, verify_reverse_inradius
from .reference_bodies import lens3_volume_from_area

_MASK = (1 << 63) - 1


def rng_stream(seed, stream=0):
    """Philox generator keyed by (seed, stream); independent across streams."""
    return np.random.Generator(np.random.Philox(key=[seed & _MASK, stream & _MASK]))


@dataclass(frozen=True)
class GenSpec:
    seed: int
    m: int
    inradius: float
    lam: float = 1.0
    dim: int = 3
    curvature: float = 0.0

    def validate(self):
        if self.m < 2:
            raise InvalidParameterError(f"need at least two facets, got m={self.m}")
        if self.dim not in (2, 3):
            raise InvalidParameterError(f"dim must be 2 or 3, got {self.dim}")
        if self.dim == 3 and self.curvature != 0.0:
            raise InvalidParameterError("3-D bodies are Euclidean only")
        check_lam(self.lam)
        space = ms.ModelSpace(self.dim, self.curvature)
        if self.dim == 2:
            space.require_metric_layer()
        # The supporting disk's radius, or characteristic distance; None for horodisks.
        size = ms.classify_umbilical(space, self.lam).size
        upper = math.inf if size is None else size
        if not 0.0 < self.inradius < upper:
            raise InvalidParameterError(
                f"inradius must lie in (0, {upper:.6g}) for lam={self.lam} and "
                f"curvature {self.curvature}, got {self.inradius}"
            )


def _unit_directions(rng, m, dim):
    if m == 2:
        u = rng.normal(size=(1, dim))
        u /= np.linalg.norm(u)
        return np.vstack([u, -u])
    if dim == 3 and m == 3:
        # Three directions can surround the origin only inside a common
        # plane, so sample a random plane and spin the triple within it.
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        angles = rng.uniform(0.0, 2.0 * math.pi, size=3)
        return np.cos(angles)[:, None] * basis[:, 0] + np.sin(angles)[:, None] * basis[:, 1]
    u = rng.normal(size=(m, dim))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u


def random_polytope(spec, budget=10_000):
    """Deterministic random body with inscribed ball of the requested radius.

    Directions are rejected until their hull contains the origin; builds
    that trip the degeneracy guards count against the budget as well.  The
    ``GenerationError`` of a spent budget counts the rejected draws by
    reason: the half-space test, or the type of the build's ``LchError``.
    """
    spec.validate()
    rng = rng_stream(spec.seed, 0)
    origin = np.zeros(spec.dim)
    rejected = Counter()
    for _ in range(budget):
        dirs = _unit_directions(rng, spec.m, spec.dim)
        if not halfspace_condition(dirs, origin):
            rejected["half-space test"] += 1
            continue
        try:
            if spec.dim == 3:
                centers = (spec.inradius - 1.0 / spec.lam) * dirs
                return bp3.build(spec.lam, centers)
            space = ms.ModelSpace(2, spec.curvature)
            return ap.touching_polygon2(space, spec.lam, spec.inradius, dirs)
        except LchError as exc:
            rejected[type(exc).__name__] += 1
    counts = ", ".join(f"{reason} {n}" for reason, n in rejected.items())
    raise GenerationError(f"no valid body within {budget} tries for {spec}; "
                          f"rejected draws: {counts}")


def _bp3_membership_batch(body, pts):
    """Which points lie in every ball; each center tests only the points
    that passed the centers before it."""
    inside = np.arange(len(pts))
    for c in body.all_centers:
        inside = inside[np.linalg.norm(pts[inside] - c, axis=1) <= body.radius]
    ok = np.zeros(len(pts), dtype=bool)
    ok[inside] = True
    return ok


def mc_volume(body, n_samples=1_000_000, seed=0):
    """Rejection-sampling volume estimate with its standard error.

    Flat bodies sample the bounding box of the centers inflated by the
    ball radius; curved polygons weight chart samples by the squared
    conformal factor.  Deterministic for a fixed seed.
    """
    if n_samples < 1_000:
        raise InvalidParameterError(f"need at least 1000 samples, got {n_samples}")
    rng = rng_stream(seed, 1)
    if isinstance(body, bp3.BallPolytope3):
        lo = body.centers.min(axis=0) - body.radius
        hi = body.centers.max(axis=0) + body.radius
        pts = rng.uniform(lo, hi, size=(n_samples, 3))
        inside = _bp3_membership_batch(body, pts)
        box = float(np.prod(hi - lo))
        p = inside.mean()
        return box * p, box * math.sqrt(p * (1.0 - p) / n_samples)
    c = body.space.curvature
    anchor = [np.asarray(v) for v in body.vertices]
    for a in body.boundary:
        for f in (0.25, 0.5, 0.75):
            anchor.append(a.point_at(a.phi_start + f * a.angle))
    anchor = np.asarray(anchor)
    lo = anchor.min(axis=0) - 0.02
    hi = anchor.max(axis=0) + 0.02
    if c == -1.0:
        lo = np.maximum(lo, -0.999999)
        hi = np.minimum(hi, 0.999999)
    pts = rng.uniform(lo, hi, size=(n_samples, 2))
    inside = body.membership(pts)
    s = np.sum(pts * pts, axis=1)
    if c == 0.0:
        w = inside.astype(float)
    elif c == -1.0:
        w = np.where(s < 1.0, (2.0 / (1.0 - s)) ** 2, 0.0) * inside
    else:
        w = (2.0 / (1.0 + s)) ** 2 * inside
    box = float(np.prod(hi - lo))
    vals = box * w
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def surface_oracle(body, t=1e-4):
    """Finite-difference surface area from eroded volumes: (V(0) - V(t)) / t,
    for 0 < t < r / 10 (``InvalidParameterError`` otherwise), r the inradius."""
    r = inscribed_ball(body).radius
    if not (0.0 < t < r / 10.0):
        raise InvalidParameterError(f"step {t} must lie in (0, inradius / 10 = {r / 10.0})")
    v0 = bp3.volume(body)
    vt = bp3.volume(erosion.inner_parallel(body, t))
    return (v0 - vt) / t


def surface_oracle_richardson(body, t=1e-4):
    """Two-step Richardson extrapolation of the finite-difference oracle."""
    return 2.0 * surface_oracle(body, 0.5 * t) - surface_oracle(body, t)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    m: int
    inradius: float
    surface_area: float
    volume: float
    rip_margin: float
    inradius_margin: float
    gb_defect: float

    def violations(self, tol=1e-9):
        out = []
        if self.rip_margin < -tol:
            out.append("rip")
        if self.inradius_margin < -tol:
            out.append("inradius")
        if abs(self.gb_defect) > tol:
            out.append("gb")
        return out


@dataclass(frozen=True)
class SweepReport:
    trials: int
    records: tuple
    violations: tuple  # (trial, seed, name) triples
    min_margins: dict = field(repr=False)
    runtime_seconds: float = 0.0

    @property
    def passed(self):
        return not self.violations


def _sweep_trial(seed, trial, m_max, lam):
    rng = rng_stream(seed, 1000 + trial)
    m = int(rng.integers(2, m_max + 1))
    r0 = float(rng.uniform(0.15, 0.85)) / lam
    spec = GenSpec(seed=seed + trial, m=m, inradius=r0, lam=lam)
    body = random_polytope(spec)
    area = bp3.surface_area(body)
    vol = bp3.volume(body)
    rip_margin = vol - lens3_volume_from_area(lam, area)
    inr = verify_reverse_inradius(body)
    defect = gb.gb_total(body).defect
    return TrialRecord(trial=trial, seed=spec.seed, m=m, inradius=r0,
                       surface_area=area, volume=vol, rip_margin=rip_margin,
                       inradius_margin=inr.margin, gb_defect=defect)


def sweep(trials, m_max=12, seed=0, lam=1.0, tol=1e-9):
    """Reverse-isoperimetric / reverse-inradius / Gauss-Bonnet battery.

    Trials run in order, each from its own Philox stream derived from
    (seed, trial), so records are reproducible.
    """
    if trials < 1:
        raise InvalidParameterError(f"need at least one trial, got trials={trials}")
    if m_max < 2:
        raise InvalidParameterError(f"need m_max >= 2, got m_max={m_max}")
    t0 = time.perf_counter()
    records = [_sweep_trial(seed, k, m_max, lam) for k in range(trials)]
    violations = []
    for rec in records:
        for name in rec.violations(tol):
            violations.append((rec.trial, rec.seed, name))
    margins = {
        "rip": min((r.rip_margin for r in records), default=math.inf),
        "inradius": min((r.inradius_margin for r in records), default=math.inf),
        "gb_abs_defect": max((abs(r.gb_defect) for r in records), default=0.0),
    }
    return SweepReport(trials=trials, records=tuple(records),
                       violations=tuple(violations), min_margins=margins,
                       runtime_seconds=time.perf_counter() - t0)
