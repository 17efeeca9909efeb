"""Sensitivity self-test of the benchmark and its comparison rule.

For each workload, three interleaved sets of runs: a base set, a clean
set of the same code, and a set in which every ``Executor.execute``
call is stretched by 30% of its own duration (``--inject-delay 0.3``,
wrapped from outside the program).  The clean set must pass the
comparison against the base; the slowed set must be flagged on
``sim_req_per_s``.

It takes several minutes, so it is not collected by the repository's
test suite; run it explicitly from the repository root::

    python3 -m pytest perfbench/selftest_sensitivity.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from compare import compare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (101, 102, 103)
SECONDS = 12
DELAY = 0.3


def run(workload: str, seed: int, delay: float = 0.0) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    if delay:
        command += ["--inject-delay", str(delay)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_executor_delay_is_flagged_and_clean_runs_pass(workload):
    base, clean, slow = [], [], []
    for seed in SEEDS:  # interleaved, so host drift hits every set alike
        base.append(run(workload, seed))
        slow.append(run(workload, seed, DELAY))
        clean.append(run(workload, seed))
    clean_verdict, slow_verdict = compare(base, clean), compare(base, slow)
    print(workload, "clean:", clean_verdict, "slowed:", slow_verdict)
    assert not any(flagged for *_, flagged in clean_verdict.values())
    assert slow_verdict["sim_req_per_s"][2]
