"""Record ``expected.json``: what the default seed must reproduce.

Usage (from the repository root)::

    python3 perfbench/record.py

For each workload at the default seed this makes one traced
repetition and records every cell's digest (checked by every later run
at that seed), the structural counts, which repeat exactly from run to
run (events, engine heap pushes, RNG draws and Python calls per
request), the profiled self-time split by layer and the tracing
overhead.  It refuses to record when any cell breaks an invariant, when
the calls of one repetition disagree, or when the ``fig05-grid``
digests over the worker pool differ from a serial run's.
"""

from __future__ import annotations

import json
import sys

from rep import EXPECTED
from run import per_layer, run_rep
from workloads import DEFAULT_SEED, WORKLOADS

COUNTS = ("engine.events_per_req", "engine.heappush_per_req",
          "rng.draws_per_req", "cell.py_calls_per_req")


def record(name: str) -> dict:
    rep = run_rep(name, DEFAULT_SEED, "trace", extra=("--no-digests",))
    calls = [rep["warmup"], *rep["calls"]]
    problems = [p for call in calls for p in call["problems"]]
    if problems:
        raise SystemExit(f"{name}: cells fail their checks: {problems}")
    digests = calls[0]["digests"]
    if any(call["digests"] != digests for call in calls):
        raise SystemExit(f"{name}: calls of one repetition disagree")
    if WORKLOADS[name].workers:
        serial = run_rep(name, DEFAULT_SEED, extra=(
            "--workers", "0", "--no-digests"))
        if serial["warmup"]["digests"] != digests:
            raise SystemExit(f"{name}: pooled and serial digests differ")
    layers = per_layer(rep)
    return {
        "digests": digests,
        "counts": {count: layers[count] for count in COUNTS},
        "self_split": layers["self_split"],
        "trace.overhead_ratio": layers["trace.overhead_ratio"],
    }


def main() -> int:
    expected = {"seed": DEFAULT_SEED}
    for name in WORKLOADS:
        expected[name] = record(name)
        print(f"{name}: {len(expected[name]['digests'])} cells, "
              f"counts {expected[name]['counts']}")
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
