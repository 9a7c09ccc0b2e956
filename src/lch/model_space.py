"""Constant-curvature model planes and totally umbilical hypersurfaces.

Curvature-parametrized utilities: classification of the complete totally
umbilical hypersurfaces of curvature ``lam`` in a space of constant
curvature ``c``, the characteristic distance of hyperbolic equidistants,
and the 2-D conformal-chart metric layer used by the arc-polygon module.

Chart conventions (fixed here once for the whole package):

* ``c = -1`` -- Poincare unit disk, conformal factor ``2 / (1 - |z|^2)``;
* ``c = 0``  -- identity chart;
* ``c = +1`` -- stereographic plane (projection of the unit sphere from
  the south pole), conformal factor ``2 / (1 + |z|^2)``.

In all three charts every curve of constant geodesic curvature is a
Euclidean circle or line.

Every lambda-disk is the sublevel set of one chart quadratic
(``chart_form``).  With ``W(z) = 1 + c |z|^2`` the signed distance from a
chart point z to the disk's boundary is ``rho - F(Q(z) / W(z))``, with
``Q(z) = A |z - m|^2 + beta . z + C`` and a fixed increasing F per kind:

    kind                       Q(z)                             F(x)          rho
    flat disk, center p        |z - p|^2                        sqrt(x)       1/lam
    H^2 disk, center p         2 |z - p|^2 / (1 - |p|^2)        acosh(1 + x)  atanh(1/lam)
    S^2 disk, P = to_sphere(p) -(2 P_xy . z + P_3 (1 - |z|^2))  acos(-x)      atan(1/lam)
    horodisk, ideal point xi   |z - xi|^2                       log(x)        its level
    equidistant domain         alpha (1 + |z|^2) + beta . z     asinh(x)      delta

For the equidistant, ``asinh(Q / W)`` is the signed distance to the base
geodesic, positive on its left (``_geodesic_form``); delta is the
characteristic distance.  The boundary is the level set ``Q = t W`` with
``t = F^-1(rho)``, a chart circle.

For ``c = +-1`` the chart point z lifts (``lift``) to the quadric
``X . G X = c``, ``G = diag(1, 1, c)``, on the side ``1 + X_3 > 0``:

    X = (2 z, 1 - c |z|^2) / W      (the unit sphere for c = +1, the upper
                                     sheet of the hyperboloid for c = -1)

and back by ``z = X_12 / (1 + X_3)`` (``unlift``).  The three chart
monomials over W are affine in X,

    1 / W = (1 + X_3) / 2,   z / W = X_12 / 2,   |z|^2 / W = c (1 - X_3) / 2,

so with ``b_z = beta - 2 A m`` and ``k = A |m|^2 + C`` every form is

    Q / W = a . X + b,   a = (b_z / 2, (k - c A) / 2),   b = (k + c A) / 2

(``lifted_form``): ``a = -P``, ``b = 0`` for the S^2 disk of center
``P = lift(p)``, and ``a = -G P``, ``b = -1`` for the H^2 disk.  A horodisk
scales (a, b) by ``e^-level`` and takes rho = 0, so that disks of one
lambda share one rho and one F, and the depth below all of them is
``rho - F(max_i (a_i . X + b_i))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameterError

# Umbilical-class tags.
EUCLIDEAN_SPHERE = "euclidean_sphere"
GEODESIC_SPHERE_SPHERICAL = "geodesic_sphere_spherical"
GEODESIC_SPHERE_HYPERBOLIC = "geodesic_sphere_hyperbolic"
HOROSPHERE = "horosphere"
EQUIDISTANT = "equidistant"

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpace:
    """A simply connected space of constant curvature."""

    dim: int
    curvature: float

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidParameterError(f"dim must be >= 2, got {self.dim}")

    def require_metric_layer(self):
        if self.dim != 2 or self.curvature not in (-1.0, 0.0, 1.0):
            raise InvalidParameterError(
                "metric operations are implemented for dim=2 and curvature in {-1, 0, +1}; "
                f"got dim={self.dim}, c={self.curvature}"
            )


@dataclass(frozen=True)
class UmbilicalClass:
    """One of the five classes of complete totally umbilical hypersurfaces.

    ``size`` is the geodesic radius for the sphere variants, the
    characteristic distance for equidistants, and ``None`` for horospheres.
    """

    kind: str
    size: float | None = None


def _clamped(x, lo=-1.0, hi=1.0):
    # Trig/hyperbolic inverses get arguments clamped to their closed
    # domains; the 1e-12 slack only guards boundary roundoff.
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def classify_umbilical(space, lam):
    """Classify the complete totally umbilical hypersurface of curvature lam.

    Flat space gives spheres of radius ``1/lam``; positive curvature gives
    geodesic spheres; negative curvature splits at ``lam = sqrt(-c)`` into
    geodesic spheres, horospheres and equidistants.
    """
    if lam <= 0.0:
        raise InvalidParameterError(f"lam must be positive, got {lam}")
    c = space.curvature
    if c == 0.0:
        return UmbilicalClass(EUCLIDEAN_SPHERE, 1.0 / lam)
    if c > 0.0:
        sc = math.sqrt(c)
        return UmbilicalClass(GEODESIC_SPHERE_SPHERICAL, math.atan(sc / lam) / sc)
    s = math.sqrt(-c)
    if lam > s * (1.0 + _BOUNDARY_TOL):
        return UmbilicalClass(GEODESIC_SPHERE_HYPERBOLIC, math.atanh(s / lam) / s)
    if lam >= s * (1.0 - _BOUNDARY_TOL):
        return UmbilicalClass(HOROSPHERE, None)
    return UmbilicalClass(EQUIDISTANT, characteristic_distance(c, lam))


def characteristic_distance(c, lam):
    """Distance from an equidistant of curvature lam to its base hyperplane.

    Defined for ``c < 0`` and ``0 < lam < sqrt(-c)``; strictly increasing
    in lam and divergent as ``lam`` approaches ``sqrt(-c)``.
    """
    if c >= 0.0:
        raise InvalidParameterError(f"characteristic distance needs c < 0, got c={c}")
    s = math.sqrt(-c)
    if not 0.0 < lam < s:
        raise InvalidParameterError(
            f"equidistant regime needs 0 < lam < sqrt(-c) = {s}, got lam={lam}"
        )
    return math.log((s + lam) / (s - lam)) / (2.0 * s)


# ---------------------------------------------------------------------------
# 2-D conformal charts
# ---------------------------------------------------------------------------

def conformal_factor(c, z):
    """Length density of the metric at chart point z (|dz|-multiplier)."""
    z = np.asarray(z, dtype=float)
    s = float(z @ z)
    if c == 0.0:
        return 1.0
    if c == -1.0:
        return 2.0 / (1.0 - s)
    if c == 1.0:
        return 2.0 / (1.0 + s)
    raise InvalidParameterError(f"no metric layer for curvature {c}")


def _check_domain(c, p):
    p = np.asarray(p, dtype=float)
    if c == -1.0 and float(p @ p) >= 1.0:
        raise InvalidParameterError(f"point {p.tolist()} is outside the unit-disk chart")
    return p


def to_sphere(z):
    """Inverse stereographic projection (chart plane -> unit sphere)."""
    z = np.asarray(z, dtype=float)
    s = float(z @ z)
    return np.array([2.0 * z[0], 2.0 * z[1], 1.0 - s]) / (1.0 + s)


def from_sphere(P):
    """Stereographic projection from the south pole onto the chart plane."""
    P = np.asarray(P, dtype=float)
    w = 1.0 + P[2]
    if w <= 1e-15:
        raise InvalidParameterError("south pole is not in the stereographic chart")
    return np.array([P[0], P[1]]) / w


def metric_distance(space, p, q):
    """Geodesic distance between two chart points of M^2(c), c in {-1,0,+1}."""
    space.require_metric_layer()
    c = space.curvature
    p = _check_domain(c, p)
    q = _check_domain(c, q)
    if c == 0.0:
        return float(np.linalg.norm(p - q))
    if c == -1.0:
        dd = float((p - q) @ (p - q))
        den = (1.0 - float(p @ p)) * (1.0 - float(q @ q))
        return math.acosh(max(1.0, 1.0 + 2.0 * dd / den))
    return math.acos(_clamped(float(to_sphere(p) @ to_sphere(q))))


def busemann(ideal, z):
    """Busemann function of the unit-disk model, normalized to 0 at the origin.

    Horoballs centered at the ideal point are its sublevel sets; moving
    distance s along the axis toward the ideal point decreases the value by s.
    """
    ideal = np.asarray(ideal, dtype=float)
    z = np.asarray(z, dtype=float)
    zz = float(z @ z)
    if zz >= 1.0:
        raise InvalidParameterError("Busemann function needs a point inside the unit disk")
    d2 = float((ideal - z) @ (ideal - z))
    return math.log(d2 / (1.0 - zz))


def _geodesic_form(g1, g2):
    """``(alpha, beta)`` of the hyperbolic geodesic through g1, g2.

    The geodesic is the zero set of ``alpha (1 + |z|^2) + beta . z``, so
    ``(alpha, beta)`` is orthogonal to the lifts ``(1 + |g|^2, g)`` of both
    points and is their cross product up to scale.  That product evaluated
    at z is the determinant of the lifts of z, g1, g2, which has the sign of
    the orientation (g1, g2, z): positive on the left.  Scaled to
    ``|beta|^2 / 4 - alpha^2 = 1``, the form over ``1 - |z|^2`` is the sinh
    of the signed distance (a unit spacelike normal on the hyperboloid).
    """
    (x1, y1), (x2, y2) = g1, g2
    if math.hypot(x2 - x1, y2 - y1) < 1e-15:
        raise InvalidParameterError("geodesic needs two distinct points")
    w1 = 1.0 + x1 * x1 + y1 * y1
    w2 = 1.0 + x2 * x2 + y2 * y2
    alpha = x1 * y2 - y1 * x2
    bx = y1 * w2 - w1 * y2
    by = w1 * x2 - x1 * w2
    norm2 = 0.25 * (bx * bx + by * by) - alpha * alpha
    if not norm2 > 0.0:
        raise InvalidParameterError("geodesic points must lie inside the unit-disk chart")
    norm = math.sqrt(norm2)
    return alpha / norm, (bx / norm, by / norm)


def signed_distance_to_geodesic(g1, g2, z):
    """Signed hyperbolic distance from z to the geodesic through g1, g2.

    Positive on the left of the oriented chart curve g1 -> g2.
    """
    x, y = _check_domain(-1.0, z)
    alpha, (bx, by) = _geodesic_form(g1, g2)
    s = x * x + y * y
    return math.asinh((alpha * (1.0 + s) + bx * x + by * y) / (1.0 - s))


def mobius_translate(a, w):
    """Disk-model isometry sending 0 to ``a``, applied to chart point ``w``."""
    ac = complex(a[0], a[1])
    wc = complex(w[0], w[1])
    out = (wc + ac) / (1.0 + ac.conjugate() * wc)
    return np.array([out.real, out.imag])


def exp_map(space, base, direction, s):
    """Chart point at metric distance ``s`` from ``base`` along ``direction``.

    ``direction`` is a Euclidean unit vector at ``base``; conformality makes
    it meaningful in the metric as well.
    """
    space.require_metric_layer()
    c = space.curvature
    base = _check_domain(c, base)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    if c == 0.0:
        return base + s * direction
    if c == -1.0:
        # The derivative of the Mobius translation at 0 is a positive real
        # scalar, so chart directions at `base` pull back unchanged.
        return mobius_translate(base, math.tanh(s / 2.0) * direction)
    P = to_sphere(base)
    zdir = np.array([direction[0], direction[1], 0.0])
    # Push the chart direction to the sphere tangent plane at P.
    J = _stereo_jacobian(base)
    T = J @ direction
    T -= float(T @ P) * P
    T /= np.linalg.norm(T)
    return from_sphere(math.cos(s) * P + math.sin(s) * T)


def _stereo_jacobian(z):
    """Jacobian of the inverse stereographic projection at chart point z."""
    z = np.asarray(z, dtype=float)
    u, v = z
    s = 1.0 + u * u + v * v
    d = np.array([
        [2.0 * (s - 2.0 * u * u), -4.0 * u * v],
        [-4.0 * u * v, 2.0 * (s - 2.0 * v * v)],
        [-4.0 * u, -4.0 * v],
    ])
    return d / (s * s)


class ChartForm(NamedTuple):
    """A lambda-disk as ``{rho - F(Q / W) >= 0}`` in its chart, with
    ``Q(z) = A |z - m|^2 + beta . z + C`` and ``W(z) = 1 + c |z|^2``.

    ``level = F^-1(rho)``: the boundary is the chart circle ``Q = level W``.
    """

    A: float
    m: tuple
    beta: tuple
    C: float
    rho: float
    level: float
    F: Callable[[float], float]


# F per kind; the clamps only absorb roundoff at the ends of the domain.
def _flat_distance(x):
    return math.sqrt(max(x, 0.0))


def _hyperbolic_distance(x):
    return math.acosh(1.0 + max(x, 0.0))


def _spherical_distance(x):
    return math.acos(_clamped(-x))


def chart_form(disk):
    """The chart quadratic of a lambda-disk (see the module docstring)."""
    kind, c = disk.kind, disk.space.curvature
    zero = (0.0, 0.0)
    if kind == "euclidean":
        return ChartForm(1.0, disk.center, zero, 0.0, disk.radius, disk.radius ** 2,
                         _flat_distance)
    if kind == "geodesic" and c == -1.0:
        px, py = disk.center
        return ChartForm(2.0 / (1.0 - px * px - py * py), disk.center, zero, 0.0,
                         disk.radius, math.cosh(disk.radius) - 1.0, _hyperbolic_distance)
    if kind == "geodesic":
        P = to_sphere(disk.center)
        return ChartForm(float(P[2]), zero, (-2.0 * float(P[0]), -2.0 * float(P[1])),
                         -float(P[2]), disk.radius, -math.cos(disk.radius),
                         _spherical_distance)
    if kind == "horo":
        return ChartForm(1.0, disk.ideal, zero, 0.0, disk.level, math.exp(disk.level),
                         math.log)
    if kind == "equidistant":
        alpha, beta = _geodesic_form(*disk.geodesic)
        return ChartForm(alpha, zero, beta, alpha, disk.offset, math.sinh(disk.offset),
                         math.asinh)
    raise InvalidParameterError(f"unknown lambda-disk kind {kind!r}")


def lift(c, z):
    """Chart points ``(..., 2)`` of M^2(c), c = +-1, on the quadric
    ``X . G X = c`` (module docstring)."""
    z = np.asarray(z, dtype=float)
    s = c * np.sum(z * z, axis=-1, keepdims=True)
    return np.concatenate([2.0 * z, 1.0 - s], axis=-1) / (1.0 + s)


def unlift(X):
    """The chart point of a point of the lifted quadric (inverse of ``lift``)."""
    X = np.asarray(X, dtype=float)
    return X[..., :2] / (1.0 + X[..., 2:])


class LiftedForm(NamedTuple):
    """A lambda-disk as ``{rho - F(a . X + b) >= 0}`` on the lifted quadric."""

    a: tuple
    b: float
    rho: float
    F: Callable[[float], float]


def lifted_form(disk):
    """The chart form of a curved lambda-disk as an affine function of the
    lifted point (see the module docstring)."""
    c = disk.space.curvature
    if c not in (-1.0, 1.0):
        raise InvalidParameterError(f"the lift needs curvature +-1, got {c}")
    A, (mx, my), (bx, by), C, rho, _, F = chart_form(disk)
    k = A * (mx * mx + my * my) + C
    a = (0.5 * bx - A * mx, 0.5 * by - A * my, 0.5 * (k - c * A))
    b = 0.5 * (k + c * A)
    if disk.kind == "horo":
        scale = math.exp(-rho)
        return LiftedForm(tuple(scale * x for x in a), scale * b, 0.0, F)
    return LiftedForm(a, b, rho, F)


def lambda_disk_depth(space, disks):
    """Scalar ``depth(x, y)``: the least signed distance from the chart point
    (x, y) to the boundaries of the disks, ``-inf`` off the unit-disk chart."""
    c = space.curvature
    forms = [chart_form(d) for d in disks]

    def depth(x, y):
        w = 1.0 + c * (x * x + y * y)
        if w <= 1e-12:
            return -math.inf
        best = math.inf
        for A, (mx, my), (bx, by), C, rho, _, F in forms:
            dx, dy = x - mx, y - my
            value = rho - F((A * (dx * dx + dy * dy) + bx * x + by * y + C) / w)
            if value < best:
                best = value
        return best

    return depth


def signed_distance_to_lambda_disk(space, disk, p):
    """Signed metric distance from p to the boundary of a lambda-disk.

    Positive strictly inside the convex region, zero on its boundary,
    negative outside: ``radius - d(center, p)`` for ball-like disks, the
    horodisk level minus the Busemann function, and the characteristic
    distance minus the signed distance to the base geodesic, all through
    the disk's ``chart_form``.
    """
    space.require_metric_layer()
    x, y = _check_domain(space.curvature, p)
    return lambda_disk_depth(space, (disk,))(float(x), float(y))
