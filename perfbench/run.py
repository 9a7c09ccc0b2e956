#!/usr/bin/env python3
"""Benchmark of the lch engine.

    python3 perfbench/run.py --workload {sweep,erode,keyclaim,plane} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  Each
workload is a closed loop: one process, one thread, one body at a time,
with LCH_THREADS removed from the environment and BLAS pinned to one
thread.  Bodies run in whole rounds, one body of each stratum of the
workload, so every run has the same mix; the timed loop stops at the first
round boundary after ``--seconds`` of timed work.  Set-up makes the inputs
for up to ROUND_MARGIN times the rounds a 2-core reference machine gets
through (``round_seconds``); the same seed gives the same bodies in the
same order.  A traced run does a fixed round(S / round_seconds) rounds
instead, so two traced runs with the same seed count the same calls.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced runs report the
end-to-end metrics bodies_per_s, setup_s and peak_rss_mb; traced runs
report the per-layer metrics of ``tracing.Tracer.per_layer``.  Details (set-up
samples, per-body times and, when traced, every span) go to
perfbench/out/.  Failed operations print the seed and the centers or disks
that rebuild the body on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep", "erode", "keyclaim", "plane")
SETUPS = 3          # set-up samples per untraced run: two probes and the worker
ROUND_MARGIN = 3.0  # inputs for a machine up to 3x faster than the reference
RUN_TIMEOUT = 170.0  # seconds; children still running then are killed


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0.0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Child process: set up, then (phase "measure") run the timed loop
# ---------------------------------------------------------------------------

def _child(args):
    sys.path.insert(0, str(ROOT / "src"))
    import lch  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS as table
    from tracing import Tracer

    wl = table[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    per_round = len(wl.strata)
    if args.trace:  # fixed work, so two traced runs count the same calls
        rounds = max(1, round(args.seconds / wl.round_seconds))
    else:
        rounds = math.ceil(ROUND_MARGIN * args.seconds / wl.round_seconds)
    inputs = wl.inputs(args.seed, rounds)
    untraced = tracer.paused if tracer else contextlib.nullcontext
    with untraced():
        wl.warm_up()
    print("ready", flush=True)
    if args.phase == "setup":
        return 0

    attempted = failed = raised = 0
    correct = True
    times = []
    for index, body in enumerate(inputs):
        if not args.trace and index % per_round == 0 and sum(times) >= args.seconds:
            break  # whole rounds only, so the mix of strata stays fixed
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = wl.run(body)
        except Exception:  # a failed operation is counted and reported, not fatal
            times.append(time.perf_counter() - t0)
            failed += 1
            raised += 1
            _report(args, wl, index, body, traceback.format_exc(limit=3))
            continue
        times.append(time.perf_counter() - t0)
        with untraced():
            bad = wl.check(index, body, out)
        if bad:
            failed += 1
            correct = False
            _report(args, wl, index, body, "failed checks: " + ", ".join(bad))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "bodies": attempted - raised, "rounds": attempted // per_round,
              "body_seconds": times,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "bodies_per_s": (attempted - raised) / sum(times)}
    if tracer:
        result["per_layer"] = tracer.per_layer(attempted)
        result["spans"] = tracer.spans
    print(json.dumps(result), flush=True)
    return 0


def _report(args, wl, index, body, what):
    record = {"workload": args.workload, "seed": args.seed, "body": index,
              "problem": what, "rebuild": wl.describe(body)}
    print("FAILED " + json.dumps(record), file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Parent process: time set-up in fresh processes, collect the result
# ---------------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    env.pop("LCH_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, phase, deadline):
    """Run one child; return (seconds from spawn to 'ready', child stdout).

    The child is killed if it is still running at ``deadline``.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--phase", phase]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{phase} process exited with code {proc.returncode}")
    return setup, rest


def main(argv=None):
    args = _args(argv)
    if args.phase:
        return _child(args)
    if not (ROOT / "src" / "lch" / "__init__.py").is_file():
        print(f"error: no lch sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT
    setups = []
    try:
        for _ in range(0 if args.trace else SETUPS - 1):
            setups.append(_spawn(args, "setup", deadline)[0])
        worker_setup, out = _spawn(args, "measure", deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append(worker_setup)
    result = json.loads(out.strip().splitlines()[-1])
    times = result.pop("body_seconds")
    spans = result.pop("spans", None)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "setup_seconds": setups, "body_seconds": times,
                   **result}, fh)
    if spans is not None:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)
    q = statistics.quantiles(times, n=10) if len(times) >= 2 else [times[0]] * 9
    print(f"{args.workload}: {result['bodies']} bodies in {result['rounds']} rounds, "
          f"{sum(times):.2f} s timed; per body median {1e3 * statistics.median(times):.2f} ms, "
          f"p90 {1e3 * q[8]:.2f} ms; set-up samples "
          + ", ".join(f"{s:.3f}" for s in setups) + " s", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        metrics = {
            "bodies_per_s": {"value": result["bodies_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
