"""``tools/fingerprint_builds.py --compare``: exit 0 when two fingerprints
agree to rounding, 1 when they differ."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint_builds.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("fingerprint_builds", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def h(x):
    return float(x).hex()


FINGERPRINT = {
    "3d": [{"sig": "(2, 1, 0)", "facet_areas": [h(2.5), h(2.5)], "edges": [[[0, 1], h(0.0), h(6.25)]]},
           ["error", "EmptyBodyError", "enclosing radius 1.25 exceeds the ball radius 1"]],
    "erosion": [{"ts": [h(0.0), h(0.25)], "areas": [h(5.0), h(3.0)], "events": [],
                 "volume": h(1.5)}],
}


def compare(tool, monkeypatch, tmp_path, new):
    paths = []
    for name, rows in (("old.json", FINGERPRINT), ("new.json", new)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(rows))
    monkeypatch.setattr(sys, "argv", ["fingerprint_builds.py", "--compare", *paths])
    return tool.main()


def changed(edit):
    rows = copy.deepcopy(FINGERPRINT)
    edit(rows)
    return rows


def test_identical_files_agree(tool, monkeypatch, tmp_path):
    assert compare(tool, monkeypatch, tmp_path, FINGERPRINT) == 0


def test_empty_sections_agree(tool, monkeypatch, tmp_path):
    monkeypatch.setitem(FINGERPRINT, "keyclaim", [])
    assert compare(tool, monkeypatch, tmp_path, FINGERPRINT) == 0


@pytest.mark.parametrize("drift, code", [(1e-13, 0), (1e-11, 1)])
def test_float_drift(tool, monkeypatch, tmp_path, drift, code):
    def drift_area(rows):
        rows["3d"][0]["facet_areas"][1] = h(2.5 * (1.0 + drift))
    assert compare(tool, monkeypatch, tmp_path, changed(drift_area)) == code


def test_drift_in_a_failure_message(tool, monkeypatch, tmp_path):
    def drift_message(rows):
        rows["3d"][1][2] = "enclosing radius 1.26 exceeds the ball radius 1"
    assert compare(tool, monkeypatch, tmp_path, changed(drift_message)) == 1


@pytest.mark.parametrize("edit", [
    lambda rows: rows["3d"][0].update(sig="(2, 1, 1)"),            # a combinatorial change
    lambda rows: rows["3d"][0]["edges"][0].__setitem__(0, [0, 2]),  # another edge pair
    lambda rows: rows["3d"].pop(),                                  # a row count
    lambda rows: rows.pop("erosion"),                               # a section
    lambda rows: rows["erosion"][0].update(ts=[h(0.0), h(0.3)]),    # an unshared sample time
], ids=["signature", "pair", "rows", "section", "sample-time"])
def test_differences_exit_1(tool, monkeypatch, tmp_path, edit):
    assert compare(tool, monkeypatch, tmp_path, changed(edit)) == 1
