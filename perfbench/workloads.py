"""The benchmark's workloads: what each one runs, at which scale.

Every workload is one call into the public API (``repro.api.run`` or
``repro.api.run_study``), made after a set-up phase that imports the
package, loads the registries and expands the cells.  ``prepare``
performs that set-up and returns the timed call; the call returns the
per-cell :class:`~repro.core.results.RunResult` objects (tapped from
outside, see :func:`tap_results`) so the output checks can inspect
every cell.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Tuple

#: The seed whose per-cell digests are recorded in ``expected.json``.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Workload time-compression factor passed to the API.
    scale: float
    #: Worker processes the call may use (0 = serial).
    workers: int


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="trace-w1m",
            why=("one streamed w-1m serverless cell: nearly all work in the "
                 "engine, control plane, RNG and executor; the only "
                 "streaming-recorder, block-arrival, flat-RSS path"),
            scale=0.03,
            workers=0,
        ),
        Workload(
            name="fig05-grid",
            why=("the paper's 72-cell fig05 grid over 2 workers: many short "
                 "table-backed cells, so per-cell build, reduction, frame "
                 "and pool transport costs weigh most"),
            scale=0.01,
            workers=2,
        ),
        Workload(
            name="resilience-library",
            why=("all 16 registered scenarios as one serial study: the only "
                 "faults, retries, shedding, multi-region routing and "
                 "hybrid spill with merged ledgers"),
            scale=0.05,
            workers=0,
        ),
    )
}


def tap_results(call: Callable[[], object]
                ) -> Callable[[], Tuple[object, List]]:
    """Wrap a ``run_study`` call so it also returns every cell's result.

    The study layer hands its cells to ``repro.core.parallel.run_cells``
    (serially or over the pool) and keeps the results private; the tap
    wraps that one module attribute for the duration of the call.
    """
    import repro.core.parallel as parallel

    def tapped():
        original = parallel.run_cells
        results: List = []

        @functools.wraps(original)
        def run_cells(*args, **kwargs):
            out = original(*args, **kwargs)
            results.extend(out)
            return out

        parallel.run_cells = run_cells
        try:
            frame = call()
        finally:
            parallel.run_cells = original
        return frame, results
    return tapped


def prepare(name: str, seed: int, workers: int | None = None):
    """Set up workload ``name``; return ``(timed_call, expected_cells)``.

    ``timed_call()`` returns ``(frame_or_None, [RunResult, ...])``.
    ``workers`` overrides the workload's worker count (the serial/pool
    digest comparison uses it).
    """
    from repro import api

    workload = WORKLOADS[name]
    if workers is None:
        workers = workload.workers
    if name == "trace-w1m":
        spec = api.ScenarioSpec(name="trace-w1m", provider="aws",
                                model="mobilenet", runtime="tf1.15",
                                platform="serverless", workload="w-1m")

        def call():
            return None, [api.run(spec, seed=seed, scale=workload.scale)]
        return call, 1
    if name == "fig05-grid":
        from repro.experiments.base import load_registered_studies
        load_registered_studies()
        study = api.get_study("fig05")
    elif name == "resilience-library":
        study = api.Sweep.from_specs(
            "resilience-library",
            [api.get_scenario(n) for n in api.list_scenarios()])
        study = api.Study(name=study.name, sweeps=study)
    else:
        raise KeyError(f"unknown workload {name!r}; expected one of "
                       f"{sorted(WORKLOADS)}")
    cells = study.cells()
    return tap_results(lambda: api.run_study(
        study, seed=seed, scale=workload.scale, workers=workers)), len(cells)
