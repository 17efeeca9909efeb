"""One repetition of one workload, in a fresh interpreter.

Usage::

    python3 perfbench/rep.py --workload trace-w1m --seed 7 --budget 10

Imports the package and sets the workload up, then makes one warm-up
call and the timed calls into the public API, checks every cell of
every call, and prints one JSON object.  ``t_ready`` is the
``time.monotonic()`` reading taken when set-up ends; the parent
subtracts its own reading from before it started this process to get
the set-up time.

``--mode setup`` stops after set-up; ``--mode plain`` makes untraced
calls until ``--budget`` seconds are used, timing the calibration
kernel (``calibrate.py``) before and after each; ``--mode trace`` makes
one untraced and one span-traced call, then one profiled call with its
cells run serially (after an untraced serial call, if the workload
uses the pool).  ``--inject-delay F`` stretches every
``Executor.execute`` call by ``F`` times its own duration (the
sensitivity self-test).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

import checks
from calibrate import kernel_seconds
from layers import layer_metrics
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, prepare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")


def _load_package() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no package source at {src}")
    sys.path.insert(0, src)


def _inject_delay(fraction: float) -> None:
    from repro.core.executor import Executor
    original = Executor.execute

    def execute(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            time.sleep(fraction * (time.perf_counter() - start))
    Executor.execute = execute


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_cells(results, expected_cells: int, digests=None):
    """Check every cell; return ``(failed, problems, cell_digests)``."""
    problems = []
    if len(results) != expected_cells:
        problems.append(f"{len(results)} cells returned, "
                        f"{expected_cells} expected")
    cell_digests = []
    failed = max(expected_cells - len(results), 0)
    for index, result in enumerate(results):
        found = checks.problems(result)
        digest = checks.digest(result)
        cell_digests.append([result.label, digest])
        if digests is not None and (index >= len(digests)
                                    or digests[index] != [result.label,
                                                          digest]):
            found.append("digest differs from expected.json")
        if found:
            failed += 1
            problems.extend(f"{result.label}: {p}" for p in found)
    return failed, problems, cell_digests


def timed(call, expected_cells: int, digests, tracer=None) -> dict:
    """Make one call (traced when ``tracer`` is given) and check it.

    A full garbage collection first gives every call the same clean
    heap, whatever the calls before it left behind.
    """
    gc.collect()
    raised = []
    start = time.monotonic()
    try:
        frame, results = tracer.run(call) if tracer else call()
    except Exception:  # a raising call fails every cell; report why
        frame, results = None, []
        raised.append("call raised: " + traceback.format_exc(limit=-3))
    call_s = time.monotonic() - start
    failed, problems, cell_digests = check_cells(results, expected_cells,
                                                 digests)
    problems = raised + problems
    if frame is not None and list(frame["requests"]) != [
            r.total_requests for r in results]:
        failed = max(failed, 1)
        problems.append("frame rows disagree with the cell results")
    out = {"call_s": call_s, "requests": sum(r.total_requests
                                             for r in results),
           "cells": expected_cells, "failed": failed,
           "problems": problems[:20], "digests": cell_digests}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, results)
        out["spans"] = tracer.all_spans()
    return out


def measure(workload: str, seed: int, mode: str = "plain",
            budget_s: float = 0.0, workers=None, inject_delay: float = 0.0,
            check_digests: bool = True) -> dict:
    """Set up, warm up, then make the timed calls of one repetition.

    ``setup`` returns right after set-up; ``plain`` makes untraced calls
    until ``budget_s`` is used (at least two), each with the mean of the
    calibration kernel's time before and after it; ``trace`` makes one
    untraced and one span-traced call, then one profiled call with its
    cells run serially (see ``tracing``), preceded by an untraced serial
    call when the workload uses the pool.  Every call, the warm-up
    included, is checked.
    """
    _load_package()
    if inject_delay:
        _inject_delay(inject_delay)
    call, expected_cells = prepare(workload, seed, workers)
    t_ready = time.monotonic()
    if mode == "setup":
        return {"workload": workload, "seed": seed, "mode": mode,
                "t_ready": t_ready}
    digests = None
    if check_digests and seed == DEFAULT_SEED:
        with open(EXPECTED) as handle:
            digests = json.load(handle)[workload]["digests"]
    warmup = timed(call, expected_cells, digests)
    calls = []
    if mode == "trace":
        calls.append(timed(call, expected_cells, digests))
        calls.append(timed(call, expected_cells, digests, Tracer()))
        serial = call
        if WORKLOADS[workload].workers:  # time the same cells serially
            serial, _cells = prepare(workload, seed, workers=0)
            calls.append(timed(serial, expected_cells, digests))
        calls.append(timed(serial, expected_cells, digests,
                           Tracer(profile=True)))
    else:
        before = kernel_seconds()
        while len(calls) < 2 or (time.monotonic() - t_ready + min(
                c["call_s"] + c["kernel_s"] for c in calls) <= budget_s):
            calls.append(timed(call, expected_cells, digests))
            after = kernel_seconds()
            calls[-1]["kernel_s"] = (before + after) / 2
            before = after
    return {"workload": workload, "seed": seed, "mode": mode,
            "t_ready": t_ready, "warmup": warmup, "calls": calls,
            "peak_rss_mb": _peak_rss_mb()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace"),
                        default="plain")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds after set-up for the warm-up and "
                             "timed calls (plain mode)")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--inject-delay", type=float, default=0.0)
    parser.add_argument("--no-digests", action="store_true",
                        help="skip the recorded-digest check (recording)")
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.mode, args.budget,
                  args.workers, args.inject_delay, not args.no_digests)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
