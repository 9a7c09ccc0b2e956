"""Lenses and spindles: closed forms, n-dimensional quadrature, asymptotics.

A lens is the intersection of two congruent balls; a spindle is the
intersection of all congruent balls containing two given points, i.e. the
revolution of a circular arc about its chord.  Both are bodies of
revolution, so their n-dimensional measures reduce to one-dimensional
integrals.  With curvature normalized to 1 and the trigonometric
substitution ``x = sin(u)`` the profiles are smooth and the quadrature is
singularity-free for every dimension; large powers are evaluated in
log-space (the integrand is rescaled by its maximum) so nothing underflows
before the final exponential.

The 3-D and 2-D closed forms use ``math`` alone; ``gammaln``, ``quad`` and
``brentq`` are imported by the functions that call them, when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, NumericError, check_lam

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# Dimension-3 and dimension-2 closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LensParam:
    """Two-ball intersection in R^3 with cap half-angle alpha in (0, pi/2]."""

    lam: float
    alpha: float

    @property
    def inradius(self):
        return (1.0 - math.cos(self.alpha)) / self.lam

    @property
    def surface_area(self):
        return FOUR_PI * (1.0 - math.cos(self.alpha)) / self.lam ** 2

    @property
    def volume(self):
        h = 1.0 - math.cos(self.alpha)
        return (2.0 * math.pi / 3.0) * h * h * (3.0 - h) / self.lam ** 3

    @property
    def center_distance(self):
        return 2.0 * math.cos(self.alpha) / self.lam


def lens3_measures(lam, alpha):
    """Surface area, volume, and inradius of the 3-D lens.

    ``A = 4 pi (1 - cos a) / lam^2`` and the volume satisfies both the
    two-cap sum and the quadratic-in-area form
    ``A^2 lam (12 pi - A lam^2) / (96 pi^2)``.
    """
    check_lam(lam)
    if not 0.0 < alpha <= 0.5 * math.pi:
        raise InvalidParameterError(f"need alpha in (0, pi/2], got {alpha}")
    lens = LensParam(lam=lam, alpha=alpha)
    return lens.surface_area, lens.volume, lens.inradius


def lens3_volume_from_area(lam, area):
    """Lens volume as a function of its surface area (explicit 3-D form)."""
    check_lam(lam)
    if not 0.0 < area * lam * lam <= FOUR_PI * (1.0 + 1e-12):
        raise InvalidParameterError(f"lens area {area} out of range for lam={lam}")
    return area * area * lam * (12.0 * math.pi - area * lam * lam) / (96.0 * math.pi ** 2)


def lens2_measures(lam, perimeter):
    """Area of the 2-D lens of the given perimeter.

    ``area = P/(2 lam) - sin(P lam / 2) / lam^2`` for ``0 < P lam <= 2 pi``.
    """
    check_lam(lam)
    if not 0.0 < perimeter * lam <= 2.0 * math.pi * (1.0 + 1e-12):
        raise InvalidParameterError(
            f"need 0 < P*lam <= 2*pi, got P={perimeter}, lam={lam}"
        )
    return perimeter / (2.0 * lam) - math.sin(0.5 * perimeter * lam) / lam ** 2


def lens3_from_surface_area(lam, area):
    """Invert A = 4 pi (1 - cos alpha) / lam^2."""
    check_lam(lam)
    t = area * lam * lam / FOUR_PI
    if not 0.0 < t <= 1.0 + 1e-12:
        raise InvalidParameterError(f"surface area {area} out of lens range for lam={lam}")
    return LensParam(lam=lam, alpha=math.acos(max(-1.0, 1.0 - min(t, 1.0))))


def lens3_from_inradius(lam, r):
    """Invert r = (1 - cos alpha) / lam."""
    check_lam(lam)
    t = r * lam
    if not 0.0 < t <= 1.0 + 1e-12:
        raise InvalidParameterError(f"inradius {r} out of lens range for lam={lam}")
    return LensParam(lam=lam, alpha=math.acos(max(-1.0, 1.0 - min(t, 1.0))))


# ---------------------------------------------------------------------------
# n-dimensional quadrature
# ---------------------------------------------------------------------------

def log_sphere_area(k):
    """log of the surface area of the unit k-sphere in R^(k+1)."""
    from scipy.special import gammaln  # deferred: the closed forms need no scipy

    return math.log(2.0) + 0.5 * (k + 1) * math.log(math.pi) - gammaln(0.5 * (k + 1))


def _quad_scaled(log_integrand, lo, hi, log_peak):
    """Integrate exp(log_integrand(u)) in log-space, scaling out the peak."""
    from scipy.integrate import quad  # deferred: the closed forms need no scipy

    def scaled(u):
        v = log_integrand(u)
        if v == -math.inf:
            return 0.0
        return math.exp(v - log_peak)

    value, abserr = quad(scaled, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
    if value <= 0.0 or abserr > 1e-9 * value:
        raise NumericError(
            f"quadrature failed: value={value!r}, abserr={abserr!r} on [{lo}, {hi}]"
        )
    return math.log(value) + log_peak


def _log_spindle_area_integral(power, h1):
    """log of integral (sqrt(1-x^2) - h1)^power / sqrt(1-x^2) dx over [0, b].

    The substitution x = sin(u) absorbs the 1/sqrt(1-x^2) surface Jacobian.
    """
    umax = math.acos(h1)

    def li(u):
        base = math.cos(u) - h1
        if base <= 0.0:
            return -math.inf
        return power * math.log(base)

    peak = power * math.log(1.0 - h1)
    return _quad_scaled(li, 0.0, umax, peak)


def _log_spindle_profile_integral(power, h1):
    """log of integral_0^{sqrt(1-h1^2)} (sqrt(1-x^2) - h1)^power dx."""
    umax = math.acos(h1)

    def li(u):
        base = math.cos(u) - h1
        if base <= 0.0:
            return -math.inf
        return power * math.log(base) + math.log(math.cos(u))

    peak = power * math.log(1.0 - h1)
    return _quad_scaled(li, 0.0, umax, peak)


def _log_lens_profile_integral(power, h2):
    """log of integral_0^{arcsin(h2)} sin(t)^power dt."""
    alpha = math.asin(h2)

    def li(u):
        s = math.sin(u)
        if s <= 0.0:
            return -math.inf
        return power * math.log(s)

    peak = power * math.log(h2)
    return _quad_scaled(li, 0.0, alpha, peak)


def spindle_log_measures(n, h1):
    """(log A, log V) of the curvature-1 spindle in R^n, full constants."""
    if n < 2:
        raise InvalidParameterError(f"dimension must be >= 2, got {n}")
    if not 0.0 <= h1 < 1.0:
        raise InvalidParameterError(f"h1 must lie in [0, 1), got {h1}")
    if h1 == 0.0:
        log_a = log_sphere_area(n - 1)
        log_v = log_a - math.log(n)
        return log_a, log_v
    sigma = log_sphere_area(n - 2)
    log_a = math.log(2.0) + sigma + _log_spindle_area_integral(n - 2, h1)
    log_v = (math.log(2.0) + sigma - math.log(n - 1)
             + _log_spindle_profile_integral(n - 1, h1))
    return log_a, log_v


def lens_nd_log_measures(n, h2):
    """(log A, log V) of the curvature-1 lens in R^n, full constants."""
    if n < 2:
        raise InvalidParameterError(f"dimension must be >= 2, got {n}")
    if not 0.0 < h2 < 1.0:
        raise InvalidParameterError(f"h2 must lie in (0, 1), got {h2}")
    sigma = log_sphere_area(n - 2)
    log_a = math.log(2.0) + sigma + _log_lens_profile_integral(n - 2, h2)
    log_v = (math.log(2.0) + sigma - math.log(n - 1)
             + _log_lens_profile_integral(n, h2))
    return log_a, log_v


def spindle_measures(n, lam, h1):
    """Surface area and volume of the spindle in R^n (general curvature)."""
    check_lam(lam)
    log_a, log_v = spindle_log_measures(n, h1)
    return (math.exp(log_a - (n - 1) * math.log(lam)),
            math.exp(log_v - n * math.log(lam)))


def lens_nd_measures(n, lam, h2):
    """Surface area and volume of the two-cap lens in R^n (general curvature)."""
    check_lam(lam)
    log_a, log_v = lens_nd_log_measures(n, h2)
    return (math.exp(log_a - (n - 1) * math.log(lam)),
            math.exp(log_v - n * math.log(lam)))


# ---------------------------------------------------------------------------
# Laplace asymptotics and the matched comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplaceValues:
    """Leading-order measures normalized the way the asymptotics are printed.

    Spindle values approximate the half-profile integrals
    ``I_k = integral (sqrt(1-x^2)-h1)^k dx`` with ``k = n-3`` (area) and
    ``k = n-2`` (volume); lens values approximate the sigma-dropped cap
    integrals.  ``laplace_reference_quadrature`` evaluates exactly those
    integrals for convergence tests.
    """

    area: float
    volume: float


def laplace_asymptotics(n, h1=None, h2=None):
    """Paper-normalized leading asymptotics for the spindle or the lens."""
    if n < 4:
        raise InvalidParameterError(f"asymptotics need n >= 4, got {n}")
    if (h1 is None) == (h2 is None):
        raise InvalidParameterError("give exactly one of h1, h2")
    if h1 is not None:
        if not 0.0 < h1 < 1.0:
            raise InvalidParameterError(f"h1 must lie in (0, 1), got {h1}")
        pref = math.sqrt(math.pi / 2.0) / math.sqrt(n)
        return LaplaceValues(area=pref * (1.0 - h1) ** (n - 2.5),
                             volume=pref * (1.0 - h1) ** (n - 1.5))
    if not 0.0 < h2 < 1.0:
        raise InvalidParameterError(f"h2 must lie in (0, 1), got {h2}")
    pref = 2.0 / (math.sqrt(1.0 - h2 * h2) * n)
    return LaplaceValues(area=pref * h2 ** (n - 1), volume=pref * h2 ** (n + 1))


def laplace_reference_quadrature(n, h1=None, h2=None):
    """Exact counterparts of the printed asymptotics, by quadrature."""
    if (h1 is None) == (h2 is None):
        raise InvalidParameterError("give exactly one of h1, h2")
    if h1 is not None:
        return LaplaceValues(
            area=math.exp(_log_spindle_profile_integral(n - 3, h1)),
            volume=math.exp(_log_spindle_profile_integral(n - 2, h1)),
        )
    return LaplaceValues(
        area=2.0 * math.exp(_log_lens_profile_integral(n - 2, h2)),
        volume=2.0 * math.exp(_log_lens_profile_integral(n, h2)),
    )


@dataclass(frozen=True)
class MatchReport:
    n: int
    h1: float
    h2: float
    surface_area: float
    volume_spindle: float
    volume_lens: float
    lens_wins: bool       # True when the lens has the smaller volume
    # (1 - h1) - h2: negative (h2 > 1 - h1), to leading order
    # -(1 - h1) ln(pi n h1 (2 - h1) / (2 (1 - h1))) / (2 (n - 1)) = O(log n / n)
    parameter_gap: float


def match_and_compare(n, lam, h1):
    """Match a lens to a spindle by surface area and compare volumes.

    Finds ``h2`` with equal surface areas by bisection on the log-area
    difference (relative 1e-10), then reports both volumes and
    ``(1 - h1) - h2``.
    """
    check_lam(lam)
    if n < 3:
        raise InvalidParameterError(f"matched comparison needs n >= 3, got {n}")
    if not 0.0 < h1 < 1.0:
        raise InvalidParameterError(f"h1 must lie in (0, 1), got {h1}")
    log_a_sp, log_v_sp = spindle_log_measures(n, h1)

    def gap(h2):
        return lens_nd_log_measures(n, h2)[0] - log_a_sp

    lo, hi = 1e-9, 1.0 - 1e-12
    if gap(lo) > 0.0 or gap(hi) < 0.0:
        raise NumericError(f"no lens matches the spindle area (n={n}, h1={h1})")
    from scipy.optimize import brentq  # deferred: the closed forms need no scipy

    h2 = brentq(gap, lo, hi, xtol=1e-15, rtol=8.9e-16)
    log_a_lens, log_v_lens = lens_nd_log_measures(n, h2)
    if abs(log_a_lens - log_a_sp) > 1e-10:
        raise NumericError(f"area matching stalled at |d log A| = {abs(log_a_lens - log_a_sp)}")
    scale_a = math.exp(log_a_sp - (n - 1) * math.log(lam))
    return MatchReport(
        n=n, h1=h1, h2=h2,
        surface_area=scale_a,
        volume_spindle=math.exp(log_v_sp - n * math.log(lam)),
        volume_lens=math.exp(log_v_lens - n * math.log(lam)),
        lens_wins=log_v_lens < log_v_sp,
        parameter_gap=(1.0 - h1) - h2,
    )
