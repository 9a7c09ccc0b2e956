"""End-to-end command-line checks: exit codes, files, determinism."""

import json
import math

import numpy as np
import pytest

from lch import cli
from lch import io_formats
from lch import ball_polytope3 as bp3
from lch import arc_polygon2 as ap
from lch import harness
from lch import model_space as ms
from lch import projection_ratio as pr
from lch import reference_bodies as ref
from lch.errors import InvalidParameterError


def run(argv):
    return cli.main(argv)


class TestLensCommand:
    def test_volume_value(self, capsys):
        assert run(["lens", "--dim", "3", "--surface-area", "6.283185307",
                    "--lambda", "1"]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("volume")][0]
        value = float(line.split("=")[1])
        assert math.isclose(value, 5.0 * math.pi / 12.0, rel_tol=1e-8)

    def test_two_dimensional(self, capsys):
        assert run(["lens", "--dim", "2", "--surface-area", str(math.pi)]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("area")][0]
        assert math.isclose(float(line.split("=")[1]), 0.5 * math.pi - 1.0,
                            rel_tol=1e-10)

    def test_requires_one_parameter(self, capsys):
        assert run(["lens", "--dim", "3"]) == 2


class TestBodyFiles:
    def test_gen_measure_verify_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "body.json")
        assert run(["gen", "--m", "5", "--inradius", "0.4", "--seed", "3",
                    "-o", path]) == 0
        capsys.readouterr()
        assert run(["measure", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 3
        assert abs(payload["inradius"] - 0.4) < 1e-9
        assert abs(payload["gauss_bonnet"]["grand_total"] - 4 * math.pi) < 1e-9
        for check in ("gb", "rip", "inradius", "keyclaim"):
            assert run(["verify", check, path]) == 0

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": 1.0, "dim": 3}')
        assert run(["measure", str(bad)]) == 2
        err = capsys.readouterr().err
        assert '"centers"' in err

    def test_invalid_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": -2.0, "dim": 3, "centers": [[0,0,0]]}')
        assert run(["measure", str(bad)]) == 2
        assert '"lambda"' in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["NaN", "Infinity", "true"])
    def test_lambda_must_be_a_positive_finite_number(self, tmp_path, capsys, lam):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "lch-1", "lambda": %s, "dim": 3, '
                       '"centers": [[0, 0, 0.3], [0, 0, -0.3]]}' % lam)
        assert run(["measure", str(bad)]) == 2
        assert '"lambda"' in capsys.readouterr().err

    @pytest.mark.parametrize("fields, named", [
        ({"curvature": "abc", "centers": [[-0.5, 0], [0.5, 0]]}, '"curvature"'),
        ({"curvature": -1.0, "disks": [{"kind": "horo", "ideal": [1, 0], "level": "abc"}]},
         '"disks[0].level"'),
        ({"curvature": -1.0, "disks": [{"kind": "horo", "ideal": [1, 0], "level": math.nan}]},
         '"disks[0].level"'),
        ({"curvature": -1.0, "disks": [{"kind": "horo", "ideal": [math.nan, 0]}]},
         '"disks[0].ideal"'),
        ({"lambda": 0.5, "curvature": -1.0,
          "disks": [{"kind": "equidistant", "geodesic": [["a", 0], [1, 0]]}]},
         '"disks[0].geodesic"'),
    ])
    def test_bad_number_field_exits_2(self, tmp_path, capsys, fields, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": "lch-1", "lambda": 1.0, "dim": 2, **fields}))
        assert run(["measure", str(bad)]) == 2
        assert named in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert run(["measure", "/nonexistent/file.json"]) == 2

    def test_2d_roundtrip_all_kinds(self, tmp_path):
        hyp = ms.ModelSpace(2, -1.0)
        for lam in (2.0, 1.0, 0.5):
            body = ap.touching_polygon2(hyp, lam, 0.3,
                                        np.array([[1.0, 0.0], [-1.0, 0.0]]))
            path = tmp_path / f"b{lam}.json"
            io_formats.save_body(body, str(path))
            back = io_formats.load_body(str(path))
            assert math.isclose(ap.perimeter2(back), ap.perimeter2(body),
                                rel_tol=1e-10)
            assert math.isclose(ap.inradius2(back).radius, 0.3, abs_tol=1e-7)

    def test_flat_shorthand(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text('{"lambda": 1.0, "dim": 2, "centers": [[-0.5, 0], [0.5, 0]]}')
        body = io_formats.load_body(str(path))
        assert isinstance(body, ap.ArcPolygon2)
        assert len(body.boundary) == 2


class TestNonFiniteLambda:
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_every_entry_point_raises(self, lam):
        flat = ms.ModelSpace(2, 0.0)
        for call in (lambda: bp3.build(lam, [[0, 0, 0.3], [0, 0, -0.3]]),
                     lambda: ap.build2(flat, lam, [ap.euclidean_disk(flat, 1.0, [0.0, 0.0])]),
                     lambda: ms.classify_umbilical(flat, lam),
                     lambda: harness.GenSpec(seed=0, m=4, inradius=0.3, lam=lam).validate(),
                     lambda: ref.lens3_measures(lam, 0.5),
                     lambda: ref.spindle_measures(3, lam, 0.5),
                     lambda: ref.lens_nd_measures(3, lam, 0.5),
                     lambda: pr.ratio_F(lam, 0.5)):
            with pytest.raises(InvalidParameterError):
                call()

    def test_spindle_exits_2(self, capsys):
        assert run(["spindle", "--dim", "3", "--h1", "0.5", "--lambda", "nan"]) == 2
        assert "finite" in capsys.readouterr().err


# Each lens entry point with arguments that pass its own range check at lam = -1.
LENS_ENTRY_POINTS = {
    "lens3_volume_from_area": lambda lam: ref.lens3_volume_from_area(lam, 1.0),
    "lens3_from_surface_area": lambda lam: ref.lens3_from_surface_area(lam, 1.0),
    "lens3_from_inradius": lambda lam: ref.lens3_from_inradius(lam, -0.5),
    "lens2_measures": lambda lam: ref.lens2_measures(lam, -1.0),
    "match_and_compare": lambda lam: ref.match_and_compare(5, lam, 0.3),
    "lens_vertex_angle": lambda lam: ap.lens_vertex_angle(lam, -1.0),
}


class TestLensLambda:
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("entry", sorted(LENS_ENTRY_POINTS))
    def test_entry_point_checks_lambda(self, entry, lam):
        with pytest.raises(InvalidParameterError, match="lam must be positive and finite"):
            LENS_ENTRY_POINTS[entry](lam)

    def test_negative_lambda_exits_2(self, capsys):
        assert run(["lens", "--lambda", "-1", "--surface-area", "1"]) == 2
        assert "positive and finite" in capsys.readouterr().err


class TestVerify2D:
    def test_rip2d_and_goal2d(self, tmp_path):
        path = str(tmp_path / "b2.json")
        assert run(["gen", "--m", "4", "--inradius", "0.4", "--dim", "2",
                    "--seed", "8", "-o", path]) == 0
        assert run(["verify", "rip2d", path]) == 0
        assert run(["verify", "goal2d", path]) == 0

    def test_dimension_mismatch_exits_2(self, tmp_path):
        path = str(tmp_path / "b3.json")
        assert run(["gen", "--m", "4", "--inradius", "0.4", "--seed", "1",
                    "-o", path]) == 0
        assert run(["verify", "rip2d", path]) == 2


class TestSweepAndCsv:
    def test_sweep_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        assert run(["sweep", "--trials", "5", "--seed", "1", "--report", p1]) == 0
        assert run(["sweep", "--trials", "5", "--seed", "1", "--report", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize("argv", [["--trials", "2", "--m-max", "1"],
                                      ["--trials", "-1"], ["--trials", "0"]])
    def test_sweep_bad_arguments_exit_2(self, tmp_path, capsys, argv):
        assert run(["sweep", *argv, "--report", str(tmp_path / "r.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_asymptotic_empty_range_exits_2(self, capsys):
        assert run(["compare-asymptotic", "--n-min", "5", "--n-max", "3",
                    "--h1", "0.3"]) == 2
        assert "empty range" in capsys.readouterr().err

    def test_violation_line_rebuilds_the_trial(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness.TrialRecord, "violations", lambda self, tol: ["rip"])
        monkeypatch.chdir(tmp_path)
        assert run(["sweep", "--trials", "3", "--seed", "5", "--report", "r.csv"]) == 1
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("violation:")]
        assert len(lines) == 3
        report = harness.sweep(3, seed=5)
        for line, rec in zip(lines, report.records):
            command = line.split("rebuild: ")[1].split()
            assert command[:2] == ["lch", "gen"]
            assert run(command[1:]) == 0
            body = io_formats.load_body(f"trial{rec.trial}.json")
            trial_body = harness.random_polytope(
                harness.GenSpec(seed=rec.seed, m=rec.m, inradius=rec.inradius))
            assert np.array_equal(body.centers, trial_body.centers)
            assert bp3.surface_area(body) == rec.surface_area

    def test_erode_csv(self, tmp_path):
        body_path = str(tmp_path / "body.json")
        csv_path = str(tmp_path / "prof.csv")
        assert run(["gen", "--m", "2", "--inradius", "0.5", "--seed", "2",
                    "-o", body_path]) == 0
        assert run(["erode", body_path, "--steps", "16", "--csv", csv_path]) == 0
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "t,area"
        t0, a0 = map(float, lines[1].split(","))
        assert t0 == 0.0
        assert math.isclose(a0, 4.0 * math.pi * 0.5, rel_tol=1e-12)

    def test_compare_asymptotic(self, tmp_path, capsys):
        csv_path = str(tmp_path / "cmp.csv")
        assert run(["compare-asymptotic", "--n-min", "4", "--n-max", "8",
                    "--h1", "0.3", "--csv", csv_path]) == 0
        header = open(csv_path).read().splitlines()[0]
        assert header == "n,h1,h2,area,V_lens,V_spindle,gap"

    def test_spindle_command(self, capsys):
        assert run(["spindle", "--dim", "3", "--h1", "0.5"]) == 0
        out = capsys.readouterr().out
        area = float([ln for ln in out.splitlines()
                      if ln.startswith("surface_area")][0].split("=")[1])
        closed = 4 * math.pi * (math.sqrt(0.75) - 0.5 * math.acos(0.5))
        assert math.isclose(area, closed, rel_tol=1e-8)


class TestOrderPreservation:
    def test_redundant_center_order_round_trips(self, tmp_path):
        path = tmp_path / "lens3.json"
        path.write_text('{"lambda": 1.0, "dim": 3, "centers": '
                        '[[0,0,-0.5], [0,0,0.4], [0,0,0.5]]}')
        body = io_formats.load_body(str(path))
        assert body.build_report.redundant_indices == (1,)
        out = io_formats.body_to_dict(body)
        assert out["centers"] == [[0, 0, -0.5], [0, 0, 0.4], [0, 0, 0.5]]
