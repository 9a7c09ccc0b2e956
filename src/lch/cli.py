"""Command-line interface.

Exit codes: 0 = pass, 1 = an inequality check failed, 2 = invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import arc_polygon2 as ap
from . import ball_polytope3 as bp3
from . import erosion
from . import gauss_bonnet as gb
from . import harness
from . import projection_ratio as pr
from . import reference_bodies as ref
from .errors import InvalidParameterError, LchError
from .inradius import inscribed_ball, reduce_to_touching, verify_reverse_inradius
from .io_formats import fmt, load_body, save_body


def _cmd_gen(args):
    spec = harness.GenSpec(seed=args.seed, m=args.m, inradius=args.inradius,
                           lam=args.lam, dim=args.dim, curvature=args.curvature)
    body = harness.random_polytope(spec)
    save_body(body, args.output)
    print(f"wrote {args.output}")
    return 0


def _measure_3d(body):
    ball = inscribed_ball(body)
    report = gb.gb_total(body)
    tables = body.tables
    return {
        "dim": 3,
        "facets": len(tables.chi),
        "edges": len(tables.pair),
        "vertices": len(tables.positions),
        "surface_area": bp3.surface_area(body),
        "volume": bp3.volume(body),
        "inradius": ball.radius,
        "gauss_bonnet": {
            "facet_total": report.facet_total,
            "edge_total": report.edge_total,
            "vertex_total": report.vertex_total,
            "grand_total": report.grand_total,
        },
    }


def _measure_2d(body):
    disk = ap.inradius2(body)
    return {
        "dim": 2,
        "curvature": body.space.curvature,
        "arcs": len(body.boundary),
        "vertices": len(body.vertices),
        "perimeter": ap.perimeter2(body),
        "area": ap.area2(body),
        "inradius": disk.radius,
    }


def _cmd_measure(args):
    body = load_body(args.body)
    data = _measure_3d(body) if isinstance(body, bp3.BallPolytope3) else _measure_2d(body)
    if args.json:
        json.dump(data, sys.stdout, indent=1)
        print()
    else:
        for key, value in data.items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    print(f"{key}.{k2} = {v2:.12g}")
            elif isinstance(value, float):
                print(f"{key} = {value:.12g}")
            else:
                print(f"{key} = {value}")
    return 0


def _cmd_erode(args):
    body = load_body(args.body)
    if not isinstance(body, bp3.BallPolytope3):
        raise InvalidParameterError("erode expects a 3-D body file")
    prof = erosion.profile(body, n_samples=args.steps)
    with open(args.csv, "w") as fh:
        fh.write("t,area\n")
        for t, a in zip(prof.ts, prof.areas):
            fh.write(f"{fmt(t)},{fmt(a)}\n")
    print(f"wrote {args.csv} ({len(prof.ts)} samples, {len(prof.events)} events)")
    return 0


def _cmd_verify(args):
    body = load_body(args.body)
    check = args.check
    if check in ("rip", "inradius", "gb", "keyclaim") and not isinstance(body, bp3.BallPolytope3):
        raise InvalidParameterError(f"verify {check} expects a 3-D body file")
    if check in ("rip2d", "goal2d") and not isinstance(body, ap.ArcPolygon2):
        raise InvalidParameterError(f"verify {check} expects a 2-D body file")
    if check == "rip":
        area = bp3.surface_area(body)
        vol = bp3.volume(body)
        lens_vol = ref.lens3_volume_from_area(body.lam, area)
        margin = vol - lens_vol
        print(f"volume = {vol:.12g}, matched lens volume = {lens_vol:.12g}, "
              f"margin = {margin:.3e}")
        return 0 if margin >= -1e-9 else 1
    if check == "inradius":
        rep = verify_reverse_inradius(body)
        print(f"r(K) = {rep.r_body:.12g}, r(L) = {rep.r_lens:.12g}, "
              f"margin = {rep.margin:.3e}")
        return 0 if rep.passed else 1
    if check == "gb":
        rep = gb.gb_total(body)
        print(f"facets = {rep.facet_total:.12g}, edges = {rep.edge_total:.12g}, "
              f"vertices = {rep.vertex_total:.12g}, grand_total = {rep.grand_total:.12g}")
        return 0 if abs(rep.defect) < 1e-9 else 1
    if check == "keyclaim":
        body = reduce_to_touching(body)
        rep = pr.key_claim_check(body)
        data = {
            "bound": rep.bound,
            "ratios": list(rep.ratios),
            "max_ratio": rep.max_ratio,
            "projected_total": rep.projected_total,
            "surface_area": rep.surface_area,
            "at_equality": list(rep.at_equality),
            "passed": bool(rep.passed),
        }
        json.dump(data, sys.stdout, indent=1)
        print()
        return 0 if rep.passed else 1
    if check == "rip2d":
        rep = ap.rip2d_check(body)
        print(f"area = {rep.area:.12g}, lens area = {rep.lens_area:.12g}, "
              f"margin = {rep.margin:.3e}")
        return 0 if rep.passed else 1
    if check == "goal2d":
        cons = ap.constraints_check(body)
        goal = ap.goal_inequality_check(body)
        print(f"gamma* = {cons.gamma_star:.12g}, max angle = {cons.max_angle:.12g}, "
              f"angle sum = {cons.angle_sum:.12g}")
        print(f"sum tan(g/2) = {goal.lhs:.12g} <= {goal.rhs:.12g}"
              f"{' (equality)' if goal.at_equality else ''}")
        return 0 if (cons.passed and goal.passed) else 1
    raise InvalidParameterError(f"unknown check {check!r}")


def _cmd_sweep(args):
    report = harness.sweep(args.trials, m_max=args.m_max, seed=args.seed)
    with open(args.report, "w") as fh:
        fh.write("trial,seed,m,inradius,surface_area,volume,"
                 "rip_margin,inradius_margin,gb_defect\n")
        for r in report.records:
            fh.write(",".join([str(r.trial), str(r.seed), str(r.m), fmt(r.inradius),
                               fmt(r.surface_area), fmt(r.volume), fmt(r.rip_margin),
                               fmt(r.inradius_margin), fmt(r.gb_defect)]) + "\n")
    print(f"{report.trials} trials, {len(report.violations)} violations, "
          f"min margins: rip={report.min_margins['rip']:.3e} "
          f"inradius={report.min_margins['inradius']:.3e} "
          f"max |gb defect|={report.min_margins['gb_abs_defect']:.3e}")
    for trial, seed, name in report.violations:
        rec = report.records[trial]
        print(f"violation: {name} at trial {trial} (seed {seed}); rebuild: lch gen "
              f"--m {rec.m} --inradius {rec.inradius!r} --seed {seed} -o trial{trial}.json")
    return 0 if report.passed else 1


def _cmd_lens(args):
    if (args.surface_area is None) == (args.inradius is None):
        raise InvalidParameterError("give exactly one of --surface-area / --inradius")
    if args.dim == 3:
        if args.surface_area is not None:
            lens = ref.lens3_from_surface_area(args.lam, args.surface_area)
        else:
            lens = ref.lens3_from_inradius(args.lam, args.inradius)
        print(f"alpha = {lens.alpha:.12g}")
        print(f"surface_area = {lens.surface_area:.12g}")
        print(f"volume = {lens.volume:.12g}")
        print(f"inradius = {lens.inradius:.12g}")
        return 0
    if args.surface_area is None:
        raise InvalidParameterError("2-D lenses are specified by --surface-area (perimeter)")
    area = ref.lens2_measures(args.lam, args.surface_area)
    print(f"perimeter = {args.surface_area:.12g}")
    print(f"area = {area:.12g}")
    return 0


def _cmd_spindle(args):
    area, volume = ref.spindle_measures(args.dim, args.lam, args.h1)
    print(f"surface_area = {area:.12g}")
    print(f"volume = {volume:.12g}")
    return 0


def _cmd_compare(args):
    if args.n_min > args.n_max:
        raise InvalidParameterError(f"empty range: --n-min {args.n_min} > --n-max {args.n_max}")
    rows = []
    violations = 0
    for n in range(args.n_min, args.n_max + 1):
        rep = ref.match_and_compare(n, 1.0, args.h1)
        rows.append(rep)
        if not rep.lens_wins:
            violations += 1
        print(f"n={n:3d} h2={rep.h2:.8f} V_lens={rep.volume_lens:.6g} "
              f"V_spindle={rep.volume_spindle:.6g} gap={rep.parameter_gap:+.6f} "
              f"{'lens wins' if rep.lens_wins else 'SPINDLE WINS'}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n,h1,h2,area,V_lens,V_spindle,gap\n")
            for rep in rows:
                fh.write(",".join([str(rep.n), fmt(rep.h1), fmt(rep.h2),
                                   fmt(rep.surface_area), fmt(rep.volume_lens),
                                   fmt(rep.volume_spindle), fmt(rep.parameter_gap)])
                         + "\n")
        print(f"wrote {args.csv}")
    return 0 if violations == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lch",
        description="Measures and reverse-isoperimetric checks for intersections "
                    "of congruent balls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random body")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--inradius", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=3, choices=(2, 3))
    p.add_argument("--curvature", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("measure", help="print measures of a body file")
    p.add_argument("body")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("erode", help="export the erosion profile as CSV")
    p.add_argument("body")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_erode)

    p = sub.add_parser("verify", help="run an inequality check on a body file")
    p.add_argument("check", choices=("rip", "inradius", "gb", "keyclaim",
                                     "rip2d", "goal2d"))
    p.add_argument("body")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="randomized verification sweep")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--m-max", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lens", help="closed-form lens measures")
    p.add_argument("--dim", type=int, default=3, choices=(2, 3))
    p.add_argument("--surface-area", type=float, default=None)
    p.add_argument("--inradius", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.set_defaults(func=_cmd_lens)

    p = sub.add_parser("spindle", help="spindle measures by quadrature")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--h1", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.set_defaults(func=_cmd_spindle)

    p = sub.add_parser("compare-asymptotic",
                       help="matched lens-vs-spindle comparison over a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--h1", type=float, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
