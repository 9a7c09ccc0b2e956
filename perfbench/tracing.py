"""Spans around calls into the lch layers, recorded from outside the program.

A traced run replaces each layer function listed in ``LAYERS`` by a wrapper
in every ``lch`` module that binds it: ``erosion``, ``harness`` and
``projection_ratio`` each import ``inscribed_ball`` by name, so each of
those bindings is wrapped as well as ``inradius.inscribed_ball`` itself.
Spans [name, start, end, parent index, returned, self seconds] stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, function) pairs; the span name is "<module>.<function>".
LAYERS = (
    ("ball_polytope3", "build"),
    ("inradius", "minimal_enclosing_ball"),
    ("inradius", "halfspace_condition"),
    ("inradius", "inscribed_ball"),
    ("harness", "random_polytope"),
    ("gauss_bonnet", "gb_total"),
    ("erosion", "inner_parallel"),
    ("erosion", "detect_events"),
    ("erosion", "profile"),
    ("erosion", "volume_via_profile"),
    ("projection_ratio", "projected_facet_area"),
    ("arc_polygon2", "build2"),
    ("arc_polygon2", "inradius2"),
    ("arc_polygon2", "lens_perimeter_direct"),
    ("arc_polygon2", "matched_lens_inradius"),
)


class Tracer:
    """Single-threaded span recorder; install once per process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, returned, self s]
        self.samples = 0  # profile samples returned by erosion.profile
        self._stack = []  # [span index, child seconds]
        self.enabled = True

    def install(self):
        lch_modules = [mod for key, mod in sorted(sys.modules.items())
                       if key == "lch" or key.startswith("lch.")]
        for module_name, func_name in LAYERS:
            original = getattr(sys.modules["lch." + module_name], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod in lch_modules:
                if getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapper)

    @contextmanager
    def paused(self):
        """Calls made inside (warm-up, output checks) record no spans."""
        before, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = before

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else None
            frame = [idx, 0.0]
            spans.append([name, time.perf_counter(), 0.0,
                          parent[0] if parent else -1, False])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                spans[idx][4] = True
                if name == "erosion.profile":
                    self.samples += len(result.ts)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][2] = end
                if parent is not None:
                    parent[1] += end - spans[idx][1]
                spans[idx].append(end - spans[idx][1] - frame[1])  # self seconds

        return wrapper

    def per_layer(self, bodies):
        """The per-layer metrics of the run, per body of the workload."""
        calls, self_s = {}, {}
        for name, *_rest, self_seconds in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + self_seconds

        def under(span, ancestor):
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    return True
                parent = self.spans[parent][3]
            return False

        draws = sum(1 for s in self.spans if s[0] == "inradius.halfspace_condition"
                    and s[3] >= 0 and self.spans[s[3]][0] == "harness.random_polytope")
        returned = sum(1 for s in self.spans if s[0] == "harness.random_polytope" and s[4])
        profile_builds = sum(1 for s in self.spans if s[0] == "ball_polytope3.build"
                             and under(s, "erosion.profile"))

        def count(name):
            return calls.get(name, 0) / bodies

        def ms(name):
            return 1e3 * self_s.get(name, 0.0) / bodies

        return {
            "ball_polytope3.build.calls": (count("ball_polytope3.build"), "count"),
            "ball_polytope3.build.self_ms": (ms("ball_polytope3.build"), "ms"),
            "inradius.minimal_enclosing_ball.calls":
                (count("inradius.minimal_enclosing_ball"), "count"),
            "inradius.minimal_enclosing_ball.self_ms":
                (ms("inradius.minimal_enclosing_ball"), "ms"),
            "inradius.halfspace_condition.calls":
                (count("inradius.halfspace_condition"), "count"),
            "inradius.halfspace_condition.self_ms":
                (ms("inradius.halfspace_condition"), "ms"),
            "inradius.inscribed_ball.calls": (count("inradius.inscribed_ball"), "count"),
            "inradius.inscribed_ball.self_ms": (ms("inradius.inscribed_ball"), "ms"),
            "harness.random_polytope.self_ms": (ms("harness.random_polytope"), "ms"),
            "harness.random_polytope.draws_per_body":
                (draws / returned if returned else 0.0, "draws/body"),
            "gauss_bonnet.gb_total.self_ms": (ms("gauss_bonnet.gb_total"), "ms"),
            "erosion.inner_parallel.calls": (count("erosion.inner_parallel"), "count"),
            "erosion.detect_events.self_ms": (ms("erosion.detect_events"), "ms"),
            "erosion.profile.self_ms": (ms("erosion.profile"), "ms"),
            "erosion.volume_via_profile.self_ms": (ms("erosion.volume_via_profile"), "ms"),
            "erosion.profile.samples": (self.samples / bodies, "count"),
            "erosion.builds_per_sample":
                (profile_builds / self.samples if self.samples else 0.0, "builds/sample"),
            "projection_ratio.projected_facet_area.calls":
                (count("projection_ratio.projected_facet_area"), "count"),
            "projection_ratio.projected_facet_area.self_ms":
                (ms("projection_ratio.projected_facet_area"), "ms"),
            "arc_polygon2.build2.calls": (count("arc_polygon2.build2"), "count"),
            "arc_polygon2.build2.self_ms": (ms("arc_polygon2.build2"), "ms"),
            "arc_polygon2.inradius2.self_ms": (ms("arc_polygon2.inradius2"), "ms"),
            "arc_polygon2.lens_perimeter_direct.calls":
                (count("arc_polygon2.lens_perimeter_direct"), "count"),
            "arc_polygon2.matched_lens_inradius.self_ms":
                (ms("arc_polygon2.matched_lens_inradius"), "ms"),
        }
