"""The stable public surface of the reproduction.

Everything a design-space study needs, in one import::

    from repro.api import ScenarioSpec, Study, Sweep, run, run_study

    # One cell:
    result = run(ScenarioSpec(name="demo", provider="aws",
                              model="mobilenet"), scale=0.2)
    print(result.average_latency, result.cost)

    # A sweep — the paper's memory-size study as three lines of data:
    study = Study(name="memory", sweeps=Sweep(
        name="memory",
        base=ScenarioSpec(name="memory", provider="aws", model="vgg",
                          workload="w-120"),
        axes={"runtime": ("tf1.15", "ort1.4"),
              "memory_gb": (2.0, 4.0, 8.0)},
    ))
    frame = run_study(study, scale=0.1, workers=-1)
    print(frame.pivot(index="runtime", columns="memory_gb",
                      values="avg_latency_s").to_text())

The deeper layers (platforms, the simulation engine, the workload
generator) remain importable from their own modules; this facade only
re-exports the names whose signatures the project keeps stable:
:class:`Study`, :class:`Sweep`, :class:`ResultFrame`,
:class:`ScenarioSpec`, and the :func:`run` / :func:`run_study`
entry points.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.faults import (
    FaultInjector,
    FaultSpec,
    OutageWindow,
    RetryPolicy,
)
from repro.core.results import RunResult
from repro.core.scenario import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_library,
)
from repro.core.study import (
    STANDARD_METRIC_COLUMNS,
    ResultFrame,
    Study,
    Sweep,
    get_study,
    list_studies,
    register_study,
    study_library,
)
from repro.platforms.routing import (
    BackendHealth,
    BackendSnapshot,
    CircuitBreaker,
    LatencyQuantile,
    MultiRegionPlatform,
    RouterMeter,
    choose_priority,
    choose_weighted,
)
from repro.platforms.hybrid import HybridMeter, HybridServingPlatform
from repro.serving.outcome_table import OutcomeReductions
from repro.serving.records import (
    SERVED_BY_DIRECT,
    SERVED_BY_NAMES,
    SERVED_BY_PROVISIONED,
    SERVED_BY_SPILL,
)
from repro.serving.streaming import LatencySketch, OutcomeSummary
from repro.tools.cost_estimator import CostEstimator, DecomposedCostEstimate
from repro.tools.hybrid import (
    HybridPlan,
    HybridPlanner,
    HybridValidation,
    validate_routed_plan,
)
from repro.tools.navigator import (
    DesignSpaceNavigator,
    NavigationConstraints,
    NavigationResult,
)
from repro.tools.search import (
    HalvingResult,
    HalvingRung,
    SearchStudy,
    SuccessiveHalvingSearch,
)
from repro.workload.generator import known_workloads, register_workload_spec
from repro.workload.streaming import StreamedWorkload

__all__ = [
    "BackendHealth",
    "BackendSnapshot",
    "CircuitBreaker",
    "CostEstimator",
    "DecomposedCostEstimate",
    "DesignSpaceNavigator",
    "FaultInjector",
    "FaultSpec",
    "HalvingResult",
    "HalvingRung",
    "HybridMeter",
    "HybridPlan",
    "HybridPlanner",
    "HybridServingPlatform",
    "HybridValidation",
    "LatencyQuantile",
    "LatencySketch",
    "MultiRegionPlatform",
    "NavigationConstraints",
    "NavigationResult",
    "OutageWindow",
    "OutcomeReductions",
    "OutcomeSummary",
    "ResultFrame",
    "RetryPolicy",
    "RouterMeter",
    "SERVED_BY_DIRECT",
    "SERVED_BY_NAMES",
    "SERVED_BY_PROVISIONED",
    "SERVED_BY_SPILL",
    "STANDARD_METRIC_COLUMNS",
    "ScenarioSpec",
    "SearchStudy",
    "StreamedWorkload",
    "Study",
    "SuccessiveHalvingSearch",
    "Sweep",
    "choose_priority",
    "choose_weighted",
    "get_scenario",
    "get_study",
    "known_workloads",
    "list_scenarios",
    "list_studies",
    "register_scenario",
    "register_study",
    "register_workload_spec",
    "run",
    "run_study",
    "scenario_library",
    "study_library",
    "validate_routed_plan",
]


def run(scenario: Union[str, ScenarioSpec], *, seed: int = 7,
        scale: float = 1.0, planner=None) -> RunResult:
    """Run one declarative scenario (spec or registered name).

    The one-call entry point: resolves the spec's deployment and
    workload, simulates the cell, and returns its
    :class:`~repro.core.results.RunResult`::

        from repro.api import run

        result = run("burst-storm", scale=0.2)
        print(result.success_ratio, result.cost)

    Args:
        scenario: A :class:`ScenarioSpec`, or the name of a scenario
            registered with :func:`register_scenario`.
        seed: Random seed for the run (a spec with a pinned
            ``ScenarioSpec.seed`` wins over this).
        scale: Time-compression factor in ``(0, 1]``; 1.0 replays the
            paper's full workloads.
        planner: Optional :class:`~repro.core.planner.Planner` override.

    Returns:
        The cell's :class:`~repro.core.results.RunResult`.
    """
    from repro.core.benchmark import ServingBenchmark
    return ServingBenchmark(seed=seed).run_scenario(scenario, scale=scale,
                                                    planner=planner)


def run_study(study: Union[str, Study, Sweep], *, seed: int = 7,
              scale: float = 1.0, workers: int = 0,
              providers: Optional[Sequence[str]] = None) -> ResultFrame:
    """Run a study (or a bare sweep, or a registered study name).

    Builds a fresh :class:`~repro.experiments.base.ExperimentContext`
    at the given seed / scale / worker count and returns the study's
    :class:`ResultFrame`::

        from repro.api import run_study

        frame = run_study("fig05-replicated", scale=0.1, workers=-1)
        print(frame.replicate_summary().to_text())

    Args:
        study: A :class:`Study`, a bare :class:`Sweep` (wrapped into a
            single-sweep study), or a registered study name.
        seed: Context seed; replicated sweeps derive replicate ``r``'s
            seed as ``seed + r``.
        scale: Time-compression factor in ``(0, 1]``.
        workers: Fan independent cells over this many worker processes
            (0 = serial, -1 = one per core); results are bit-identical
            to serial at any worker count.
        providers: Providers to evaluate; defaults to every provider
            the study's cells reference.

    Returns:
        The study's tidy :class:`ResultFrame` (replicated studies carry
        ``replicate`` / ``seed`` columns — collapse them with
        :meth:`ResultFrame.replicate_summary`).
    """
    from repro.experiments.base import ExperimentContext, load_registered_studies
    if isinstance(study, str):
        load_registered_studies()
        study = get_study(study)
    if isinstance(study, Sweep):
        study = Study(name=study.name, sweeps=study)
    if providers is None:
        providers = tuple(dict.fromkeys(
            cell.spec.provider for cell in study.cells()))
    context = ExperimentContext(seed=seed, scale=scale,
                                providers=tuple(providers), workers=workers)
    return study.run(context)
