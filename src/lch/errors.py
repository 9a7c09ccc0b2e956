"""Exception types shared across the package, and the domain check of
the curvature bound lam that every entry point taking it makes."""

import math


class LchError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(LchError, ValueError):
    """An argument is outside the documented domain."""


class EmptyBodyError(LchError):
    """The requested intersection of balls/disks is empty."""


class DegenerateBodyError(LchError):
    """The intersection has empty interior or a degenerate vertex
    (four or more spheres within tolerance of a common point)."""


class TopologyError(LchError):
    """Boundary arcs do not close up into loops."""


class NonCompactError(LchError):
    """A hyperbolic intersection of equidistant domains is unbounded."""


class GenerationError(LchError):
    """The rejection budget of a random generator was exhausted."""


class NumericError(LchError):
    """A quadrature or root-finding routine failed to converge."""


def check_lam(lam):
    """``InvalidParameterError`` unless lam is positive and finite (NaN is not)."""
    if not 0.0 < lam < math.inf:
        raise InvalidParameterError(f"lam must be positive and finite, got {lam}")
