"""The repository benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trace-w1m --seed 7 \
        --seconds 30 --trace 0

A run starts ``SETUPS`` fresh interpreters that only set the workload
up, then one that sets it up, makes a warm-up call into the public API
and then timed calls of the same inputs for ``--seconds``
(``perfbench/rep.py``).  Every cell of every call is checked.  The
end-to-end metrics:

* ``setup_s`` -- host seconds from starting an interpreter until its
  set-up ends (imports, registries, spec expansion), median over the
  interpreters, scaled to the reference host speed by the median time
  of the calibration kernel in this run (``calibrate.py``);
* ``sim_req_per_s`` -- simulated requests issued, whatever their
  outcome, per host second of one timed call, scaled to the reference
  host speed by the calibration kernel timed around that call; median
  over the timed calls, warm-up excluded;
* ``peak_rss_mb`` -- the largest peak RSS of any process of the
  measuring interpreter (itself and its pool workers).

Both host-time metrics are printed unscaled beside the result.  Cells
that raise, break an invariant or (at the default seed) miss their
recorded digest count as failed; ``failed_ratio`` is printed next to
the metrics and carried by the result's ``attempted`` / ``failed``.

``--trace 1`` instead starts one interpreter that, after its warm-up,
makes one untraced and one span-traced call and then one profiled call
with its cells run serially, and reports the per-layer metrics: times
from the spans, self-time shares and call counts from the profile, and
``trace.overhead_ratio`` = profiled wall / untraced wall of the same
serial cells.

The last line of standard output is the JSON result.  Workloads and
metric units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S
from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench")
SETUPS = 4


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_rep(workload: str, seed: int, mode: str = "plain",
            budget_s: float = 0.0, extra=()) -> dict:
    """One interpreter's repetition; adds its ``setup_s``.

    The interpreter gets a session of its own, so that if it has to be
    stopped, its pool workers are stopped with it.
    """
    command = [sys.executable, REP, "--workload", workload,
               "--seed", str(seed), "--mode", mode,
               "--budget", str(budget_s), *extra]
    start = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"repetition failed ({workload}, seed {seed}, "
                           f"{mode}): exit {proc.returncode}")
    rep = json.loads(stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["t_ready"] - start
    return rep


def end_to_end(setups, measured) -> dict:
    calls = measured["calls"]
    raw_setup_s = statistics.median(r["setup_s"] for r in [*setups, measured])
    kernel_s = statistics.median(c["kernel_s"] for c in calls)
    return {
        "setup_s": raw_setup_s * REFERENCE_S / kernel_s,
        "sim_req_per_s": statistics.median(
            c["requests"] / c["call_s"] * c["kernel_s"] / REFERENCE_S
            for c in calls),
        "peak_rss_mb": measured["peak_rss_mb"],
        "raw_setup_s": raw_setup_s,
        "raw_req_per_s": statistics.median(c["requests"] / c["call_s"]
                                           for c in calls),
    }


def per_layer(rep) -> dict:
    """Times from the span-traced call; shares and counts from the
    profiled one, whose overhead is measured against the untraced call
    just before it (run serially, like the profiled one)."""
    calls = rep["calls"]
    spans, serial, profile = calls[1], calls[-2], calls[-1]
    values = dict(spans["layers"])
    for name, value in profile["layers"].items():
        if name.endswith(("_share", "_per_req")) or name == "self_split":
            values[name] = value
    values["trace.overhead_ratio"] = profile["call_s"] / serial["call_s"]
    return values


def write_spans(rep, workload: str, seed: int) -> None:
    """Write the span-traced call's spans under ``.perfbench/``."""
    spans = rep["calls"][1]["spans"]
    origin = min((span[2] for span in spans), default=0.0)
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump([{"name": name, "parent": parent, "start_s": start - origin,
                    "end_s": end - origin, "pid": pid}
                   for name, parent, start, end, pid in spans], handle)


def counts_against_expected(metrics: dict, workload: str) -> str:
    """How the structural counts compare with ``expected.json``."""
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)[workload]["counts"]
    differ = {name: (metrics[name], value)
              for name, value in expected.items() if metrics[name] != value}
    if not differ:
        return "structural counts match expected.json"
    return "structural counts differ from expected.json: " + ", ".join(
        f"{name} {got!r} (recorded {want!r})"
        for name, (got, want) in differ.items())


def all_calls(reps):
    return [c for rep in reps if "calls" in rep
            for c in [rep["warmup"], *rep["calls"]]]


def result(reps, metrics: dict, declared) -> dict:
    calls = all_calls(reps)
    failed = sum(c["failed"] for c in calls)
    return {
        "correct": failed == 0 and not any(c["problems"] for c in calls),
        "attempted": sum(c["cells"] for c in calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-delay", type=float, default=0.0,
                        help="stretch Executor.execute by this fraction "
                             "(sensitivity self-test)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no package source under {ROOT}/src",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {names}", file=sys.stderr)
        return 2
    extra = (("--inject-delay", str(args.inject_delay))
             if args.inject_delay else ())

    if args.trace:
        reps = [run_rep(args.workload, args.seed, "trace", extra=extra)]
        metrics = per_layer(reps[0])
        declared = spec["per_layer"]
        write_spans(reps[0], args.workload, args.seed)
    else:
        setups = [run_rep(args.workload, args.seed, "setup")
                  for _ in range(SETUPS)]
        measured = run_rep(args.workload, args.seed, budget_s=args.seconds,
                           extra=extra)
        reps = [*setups, measured]
        metrics = end_to_end(setups, measured)
        declared = spec["end_to_end"]

    out = result(reps, metrics, declared)
    calls = reps[-1]["calls"]
    print(f"workload {args.workload}  seed {args.seed}  interpreters "
          f"{len(reps)}  timed calls {len(calls)}  "
          f"requests/call {calls[0]['requests']}")
    for m in declared:
        print(f"  {m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<28} {out['failed'] / out['attempted']:>14.6g}"
          f" ({out['failed']} of {out['attempted']} cells)")
    if not args.trace:
        print(f"  {'(unscaled setup_s)':<28} "
              f"{metrics['raw_setup_s']:>14.6g} s")
        print(f"  {'(unscaled sim_req_per_s)':<28} "
              f"{metrics['raw_req_per_s']:>14.6g} req/s")
    problems = [p for c in all_calls(reps) for p in c["problems"]]
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    if args.trace:
        print("  self-time split: " + ", ".join(
            f"{bucket} {share:.3f}"
            for bucket, share in metrics["self_split"].items()))
        if args.seed == DEFAULT_SEED:
            print("  " + counts_against_expected(metrics, args.workload))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
