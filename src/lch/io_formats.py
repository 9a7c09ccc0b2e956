"""JSON body files and CSV formatting.

Version tag ``lch-1``.  Three-dimensional bodies carry a curvature bound
and ball centers; two-dimensional bodies carry either the Euclidean
shorthand (disk centers) or a list of typed supporting disks.  Numbers
round-trip IEEE doubles; the order of centers/disks is preserved.  A
missing, mistyped, non-numeric or non-finite field raises
``InvalidParameterError`` naming it.
"""

from __future__ import annotations

import json

import numpy as np

from . import arc_polygon2 as ap
from . import ball_polytope3 as bp3
from . import model_space as ms
from .errors import InvalidParameterError

BODY_VERSION = "lch-1"


def _field(data, name, kinds):
    if name not in data:
        raise InvalidParameterError(f'missing field "{name}"')
    value = data[name]
    if not isinstance(value, kinds):
        raise InvalidParameterError(f'field "{name}" has the wrong type')
    return value


def _number(data, key, name=None):
    """The optional finite number ``data[key]``, 0.0 when absent; ``name``
    names the field in errors (``key`` by default)."""
    try:
        value = float(data.get(key, 0.0))
    except (TypeError, ValueError):
        value = np.nan
    if not np.isfinite(value):
        raise InvalidParameterError(f'field "{name or key}" must be a finite number')
    return value


def _points(data, key, shape, name=None):
    """``data[key]``, a list, as a float array of ``shape`` (-1: any length)
    with finite entries; ``name`` names the field in errors (``key`` by
    default)."""
    name = name or key
    try:
        pts = np.asarray(_field(data, key, list), dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f'field "{name}" must be numeric') from exc
    if (pts.ndim != len(shape) or any(s not in (-1, n) for s, n in zip(shape, pts.shape))
            or not np.all(np.isfinite(pts))):
        size = " x ".join(map(str, shape)).replace("-1", "n")
        raise InvalidParameterError(f'field "{name}" must hold {size} finite numbers')
    return pts


def body_to_dict(body):
    if isinstance(body, bp3.BallPolytope3):
        return {"version": BODY_VERSION, "lambda": body.lam, "dim": 3,
                "centers": [list(map(float, c))
                            for c in body.build_report.source_centers]}
    if isinstance(body, ap.ArcPolygon2):
        c = body.space.curvature
        if c == 0.0 and all(d.kind == "euclidean" for d in body.disks):
            return {"version": BODY_VERSION, "lambda": body.lam, "dim": 2,
                    "curvature": 0.0,
                    "centers": [list(map(float, d.center)) for d in body.disks]}
        disks = []
        for d in body.disks:
            if d.kind == "geodesic":
                disks.append({"kind": "geodesic", "center": list(map(float, d.center))})
            elif d.kind == "horo":
                disks.append({"kind": "horo", "ideal": list(map(float, d.ideal)),
                              "level": float(d.level)})
            elif d.kind == "equidistant":
                disks.append({"kind": "equidistant",
                              "geodesic": [list(map(float, d.geodesic[0])),
                                           list(map(float, d.geodesic[1]))]})
            else:
                raise InvalidParameterError(f"cannot serialize disk kind {d.kind!r}")
        return {"version": BODY_VERSION, "lambda": body.lam, "dim": 2,
                "curvature": c, "disks": disks}
    raise InvalidParameterError(f"cannot serialize {type(body).__name__}")


def body_from_dict(data):
    if not isinstance(data, dict):
        raise InvalidParameterError("body file must hold a JSON object")
    lam = _field(data, "lambda", (int, float))
    if isinstance(lam, bool) or not 0.0 < lam < np.inf:
        raise InvalidParameterError('field "lambda" must be a positive finite number')
    dim = _field(data, "dim", int)
    if dim == 3:
        return bp3.build(float(lam), _points(data, "centers", (-1, 3)))
    if dim != 2:
        raise InvalidParameterError(f'field "dim" must be 2 or 3, got {dim}')
    curvature = _number(data, "curvature")
    space = ms.ModelSpace(2, curvature)
    if "centers" in data:
        if curvature != 0.0:
            raise InvalidParameterError(
                'field "centers" is the flat shorthand; curved bodies need "disks"'
            )
        centers = _points(data, "centers", (-1, 2))
        disks = [ap.euclidean_disk(space, float(lam), c) for c in centers]
        return ap.build2(space, float(lam), disks)
    raw_disks = _field(data, "disks", list)
    disks = []
    for k, entry in enumerate(raw_disks):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise InvalidParameterError(f'field "disks[{k}]" needs a "kind"')
        kind = entry["kind"]
        if kind in ("geodesic", "euclidean"):
            center = _points(entry, "center", (2,), f"disks[{k}].center")
            if curvature == 0.0:
                disks.append(ap.euclidean_disk(space, float(lam), center))
            else:
                disks.append(ap.geodesic_disk(space, float(lam), center))
        elif kind == "horo":
            ideal = _points(entry, "ideal", (2,), f"disks[{k}].ideal")
            disks.append(ap.horodisk(space, float(lam), ideal,
                                     level=_number(entry, "level", f"disks[{k}].level")))
        elif kind == "equidistant":
            geo = _points(entry, "geodesic", (2, 2), f"disks[{k}].geodesic")
            disks.append(ap.equidistant_domain(space, float(lam), geo[0], geo[1]))
        else:
            raise InvalidParameterError(f'field "disks[{k}].kind" is unknown: {kind!r}')
    return ap.build2(space, float(lam), disks)


def save_body(body, path):
    with open(path, "w") as fh:
        json.dump(body_to_dict(body), fh, indent=1)
        fh.write("\n")


def load_body(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"malformed JSON in {path}: {exc}") from exc
    return body_from_dict(data)


def fmt(x):
    """CSV number formatting: 17 significant digits round-trips doubles."""
    return format(float(x), ".17g")
