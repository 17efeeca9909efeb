#!/usr/bin/env bash
# One-stop CI / pre-commit gate:
#
#   scripts/check.sh          tier-1 tests + docstring gate + perf probes
#   scripts/check.sh --fast   tests only (skip docstring + perf gates)
#   scripts/check.sh --docs   the above plus the docs build/validation
#
# The perf gate is benchmarks/bench_engine_throughput.py --check: the
# fixed simulation probe cell, the columnar reduce probe, the
# control-plane (pool / policy / queue) probe, the study-layer
# (ResultFrame build/query) probe, the replicated-frame (group_by
# collapse) probe, the fault-injection probe (the probe cell under
# an active chaos schedule), the routing probe (the multi-region
# router's decision cycle under active breakers), the hybrid probe
# (the probe cell spilling from an undersized provisioned fleet to
# serverless), the streaming probe (chunked recorder fold +
# calendar-queue cycle, with flat-RSS and resident-chunk residency
# gates), and the search probe (the successive-halving schedule over
# a 512-candidate closed-form surface), each compared against
# BENCH_engine.json with a 30% regression tolerance.  The chaos,
# failover, hybrid, and halving smokes then run one registered chaos
# scenario, a single-replicate failover-recovery study, a registered
# hybrid spill scenario, and a budgeted navigator-halving search end
# to end through the CLI sweep path, and the flat-RSS smoke (scripts/rss_smoke.py) runs the
# streamed w-1m workload at two request scales and asserts peak RSS
# stays flat in the trace length.  Regenerate the baseline with
# `python benchmarks/bench_engine_throughput.py` on the machine that
# runs the gate.
#
# The docstring gate (scripts/check_docstrings.py) requires every
# public repro.api name documented; the docs gate
# (scripts/build_docs.py) validates the mkdocs nav, internal links,
# and the generated API reference, and builds the site when mkdocs is
# installed.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -q

if [[ "${1:-}" != "--fast" ]]; then
    echo "== docstring coverage (repro.api surface) =="
    python scripts/check_docstrings.py

    echo "== perf gate (engine + columnar + control-plane + frame probes) =="
    python benchmarks/bench_engine_throughput.py --check

    echo "== chaos-scenario smoke (fault injection via the CLI) =="
    python -m repro.experiments.runner sweep chaos-outage --scale 0.3

    echo "== failover smoke (multi-region routing via the CLI) =="
    python -m repro.experiments.runner sweep failover-recovery \
        --scale 0.3 --replicates 1

    echo "== hybrid smoke (spill front door via the CLI) =="
    python -m repro.experiments.runner sweep hybrid-burst --scale 0.3

    echo "== halving smoke (budgeted design-space search via the CLI) =="
    python -m repro.experiments.runner sweep navigator-halving \
        --budget 32 --scale 0.3

    echo "== flat-RSS smoke (streamed w-1m at two scales) =="
    python scripts/rss_smoke.py
fi

if [[ "${1:-}" == "--docs" ]]; then
    echo "== docs build =="
    python scripts/build_docs.py
fi

echo "check.sh: OK"
