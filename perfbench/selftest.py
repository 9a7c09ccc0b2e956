#!/usr/bin/env python3
"""Quick self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs every workload on a few bodies with all checks (Monte Carlo included)
and requires them to pass; then gives each check one deliberately wrong
input and requires that check to reject it.  Exits 0 when every check is
live, 1 otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from lch import harness  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SEED = 2024


def _replace(out, **changes):
    if isinstance(out, dict):
        return {**out, **changes}
    return dataclasses.replace(out, **changes)


def _set(key, value):
    return lambda body, out: (body, _replace(out, **{key: value(out)}))


def _body(key, value):
    return lambda body, out: (dataclasses.replace(body, **{key: value(body)}), out)


def _get(out, key):
    return out[key] if isinstance(out, dict) else getattr(out, key)


def _scale(key, factor):
    return _set(key, lambda out: _get(out, key) * factor)


def _below_floor(body, out):
    """The last area at half the inscribed-sphere floor 4 pi (r - t)^2."""
    areas = np.array(out["areas"])
    areas[-1] = 2.0 * np.pi * (body.inradius - out["ts"][-1]) ** 2
    return body, {**out, "areas": areas}


def _not_decreasing(body, out):
    areas = np.array(out["areas"])
    areas[5] = areas[6]
    return body, {**out, "areas": areas}


# check name -> mutation of (body, output) that the check must reject
MUTATIONS = {
    "sweep": {
        "stratum": _body("m", lambda b: b.m + 1),
        "gauss_bonnet": _set("gb_defect", lambda o: 2e-9),
        "reverse_isoperimetric": _set("rip_margin", lambda o: -2e-9),
        "reverse_inradius": _set("inradius_margin", lambda o: -2e-9),
        "isoperimetric": _scale("surface_area", 0.5),
        "volume_mc": _scale("volume", 1.01),
    },
    "erode": {
        "initial_area": _set("areas", lambda o: np.r_[o["areas"][0] * (1 + 1e-11),
                                                     o["areas"][1:]]),
        "decreasing": _not_decreasing,
        "area_bounds": _below_floor,
        "coarea_volume": _scale("volume", 1.0 + 2e-6),
        "event_time": _set("events", lambda o: tuple(e + 1e-6 for e in o["events"])),
    },
    "keyclaim": {
        "projected_tiling": _scale("projected_total", 1.0 + 2e-5),
        "ratio_bound": _scale("bound", 1.0 + 1e-11),
        "key_claim": _set("max_ratio", lambda o: o.bound + 2e-5),
    },
    "plane": {
        "inradius": _body("inradius", lambda b: b.inradius + 1e-5),
        "theorem_b": _set("margin", lambda o: -2e-7),
        "turning": _scale("perimeter", 1.0 + 1e-8),
        "area_mc": _scale("area", 1.01),
    },
}


def _sample(wl):
    """A few bodies of one round: the ones each check applies to."""
    bodies = wl.inputs(SEED, 1)
    if wl.name == "sweep":
        return bodies[:3]
    if wl.name == "erode":
        return bodies[:2]  # the three-ball and the touching body
    if wl.name == "keyclaim":
        return bodies[:2]
    return [b for b in bodies if len(b.disks) == 3]  # m = 3 of every kind


def main():
    ok = True
    for name, wl in WORKLOADS.items():
        for body in _sample(wl):
            out = wl.run(body)
            bad = wl.check(0, body, out)  # index 0: the Monte Carlo subset too
            label = getattr(body, "kind", getattr(body, "label", getattr(body, "m", "")))
            print(f"{name} {label}: {'pass' if not bad else 'FAIL ' + ', '.join(bad)}")
            ok &= not bad
            for check, mutate in MUTATIONS[name].items():
                if check == "event_time" and body.event is None:
                    continue
                if check == "turning" and body.kind != "euclidean":
                    continue
                if check == "area_mc" and body.kind not in wl.mc_grid:
                    continue
                wrong_body, wrong_out = mutate(body, out)
                caught = check in wl.check(0, wrong_body, wrong_out)
                print(f"  {check}: {'rejected' if caught else 'NOT REJECTED'}")
                ok &= caught
        if name == "sweep":
            # the rebuilt-body checks see a body built for r0 + 1e-5
            rec = wl.run(_sample(wl)[0])
            shifted = harness.random_polytope(harness.GenSpec(
                seed=rec.seed, m=rec.m, inradius=rec.inradius + 1e-5))
            caught = "inradius" in wl.check_rebuilt(rec, shifted)
            print(f"  inradius (body built for r0 + 1e-5): "
                  f"{'rejected' if caught else 'NOT REJECTED'}")
            ok &= caught
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
