"""Start-up contract: scipy loads only where it runs.

The 2-D engine, the closed-form lenses and a small 3-D build use numpy
alone; qhull (``scipy.spatial``) loads with the first cospherical hull and
``scipy.integrate`` with the first coarea volume.  pytest has scipy loaded
already, so the calls run in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import lch

SCRIPT = r"""
import json, math, sys

import lch.cli


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


stages = {"import lch.cli": loaded()}

from lch import arc_polygon2 as ap
from lch import ball_polytope3 as bp3
from lch import erosion, gauss_bonnet as gb, harness, model_space as ms
from lch.inradius import verify_reverse_inradius

assert lch.cli.main(["lens", "--lambda", "1", "--surface-area", "3"]) == 0
stages["lch lens"] = loaded()

kinds = ((0.0, 1.0), (1.0, 1.0), (-1.0, 2.0), (-1.0, 1.0), (-1.0, 0.5))
for curvature, lam in kinds:
    space = ms.ModelSpace(2, curvature)
    disks = [ap.supporting_disk(space, lam, 0.3, (math.cos(a), math.sin(a)))
             for a in (0.3, 2.4, 4.4)]
    poly = ap.build2(space, lam, disks)
    ap.inradius2(poly)
    assert ap.theoremB_2d_check(poly).passed
stages["2-D bodies"] = loaded()

body = bp3.build(1.0, [[0.3, 0.3, 0.3], [0.3, -0.3, -0.3],
                       [-0.3, 0.3, -0.3], [-0.3, -0.3, 0.3]])
bp3.surface_area(body)
bp3.volume(body)
gb.gb_total(body)
assert verify_reverse_inradius(body).passed
stages["4-ball build"] = loaded()

touching = harness.random_polytope(harness.GenSpec(seed=42, m=6, inradius=0.4))
assert len(touching.tables.chi) == 6
stages["6-ball touching build"] = loaded()

erosion.volume_via_profile(body)
stages["volume_via_profile"] = loaded()
print(json.dumps(stages))
"""


def test_scipy_loads_only_where_it_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lch.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True).stdout
    stages = json.loads(out.splitlines()[-1])
    for stage in ("import lch.cli", "lch lens", "2-D bodies", "4-ball build"):
        assert stages[stage] == [], stage
    hull = stages["6-ball touching build"]
    assert "scipy.spatial" in hull
    assert "scipy.integrate" not in hull
    assert "scipy.integrate" in stages["volume_via_profile"]
