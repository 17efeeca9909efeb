"""Compare two sets of benchmark runs by the benchmark's own bounds.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl CANDIDATE.jsonl

Each file holds the result lines (the last line ``run.py`` prints) of
several runs of one workload, one per line.  An end-to-end metric is
flagged when the candidate's median is worse than the base's median by
more than the metric's ``bound`` in ``BENCHMARK.json``, taken as a
share of the base median.  Exits 1 when any metric is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

from run import load_spec


def change(base: List[float], candidate: List[float], better: str) -> float:
    """How much worse the candidate median is, as a share of the base's."""
    old = statistics.median(base)
    new = statistics.median(candidate)
    worse_by = (new - old) if better == "lower" else (old - new)
    return worse_by / old


def compare(base: List[dict], candidate: List[dict]) -> Dict[str, tuple]:
    """Every end-to-end metric: ``(worse_by, bound, flagged)``."""
    out = {}
    for metric in load_spec()["end_to_end"]:
        name = metric["name"]
        worse = change([r["metrics"][name]["value"] for r in base],
                       [r["metrics"][name]["value"] for r in candidate],
                       metric["better"])
        out[name] = (worse, metric["bound"], worse > metric["bound"])
    return out


def read(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    verdicts = compare(read(argv[0]), read(argv[1]))
    for name, (worse, bound, flagged) in verdicts.items():
        print(f"{name:<16} worse by {worse:+.3f} (bound {bound})"
              f"{'  FLAGGED' if flagged else ''}")
    return 1 if any(flagged for *_, flagged in verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
