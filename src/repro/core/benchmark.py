"""ServingBenchmark: the one-call façade over the evaluation framework.

Typical use::

    from repro import Planner, ServingBenchmark, standard_workload

    planner = Planner()
    deployment = planner.plan("aws", "mobilenet", "tf1.15", "serverless")
    workload = standard_workload("w-40", scale=0.2)

    bench = ServingBenchmark(seed=7)
    result = bench.run(deployment, workload)
    print(result.average_latency, result.success_ratio, result.cost)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from repro.core.executor import Executor
from repro.core.results import RunResult
from repro.core.scenario import ScenarioSpec, get_scenario
from repro.models.profiles import LatencyProfiles
from repro.platforms.base import build_platform
from repro.serving.deployment import Deployment
from repro.serving.outcome_table import OutcomeRecorder
from repro.serving.streaming import DEFAULT_CHUNK_ROWS, ChunkedOutcomeRecorder
from repro.sim import Environment, RandomStreams
from repro.workload.generator import Workload
from repro.workload.requests import RequestPool

__all__ = ["ServingBenchmark"]


@dataclass
class ServingBenchmark:
    """Runs (deployment, workload) experiments on the simulated cloud."""

    seed: int = 7
    profiles: LatencyProfiles = field(default_factory=LatencyProfiles)
    #: Extra simulated time after the last arrival to let requests drain.
    drain_timeout_s: float = 400.0
    #: Random-stream block size (None = RandomStreams' default; 1 disables
    #: buffering).  Any value yields bit-identical draws — the knob exists
    #: for the determinism tests that prove exactly that.
    rng_block_size: Optional[int] = None
    #: Request count at or above which a cell records outcomes through the
    #: streaming chunk ring (flat RSS) instead of one preallocated table.
    #: Workloads that declare themselves streamed always stream.  Every
    #: registered workload below trace scale sits far under the default,
    #: so existing cells keep the bit-identical preallocated fast path.
    streaming_threshold: int = 500_000
    #: Rows per column chunk on the streaming path.
    chunk_rows: int = DEFAULT_CHUNK_ROWS

    def run(self, deployment: Deployment, workload: Workload,
            workload_scale: float = 1.0,
            seed: Optional[int] = None) -> RunResult:
        """Run one experiment and return its result.

        ``seed`` overrides the benchmark's own seed for this cell only —
        the replication path: a replicate cell carries its seed through
        the run cache and the worker pool, and ``seed=self.seed`` is
        bit-identical to passing nothing.
        """
        if seed is None:
            seed = self.seed
        if getattr(workload, "streamed", False):
            # A streamed workload is an immutable description; each run
            # opens its own generation session (blocks are drawn lazily).
            workload = workload.open()
        env = Environment()
        rng = RandomStreams(seed, block_size=self.rng_block_size)
        platform = build_platform(env, deployment, self.profiles, rng)
        pool = RequestPool(
            sample_payload_mb=deployment.model.input_payload_mb,
            pool_size=workload.spec.request_pool_size,
            seed=seed,
        )
        total_requests = sum(len(trace)
                             for trace in workload.client_traces)
        if (getattr(workload, "streamed", False)
                or total_requests >= self.streaming_threshold):
            recorder = ChunkedOutcomeRecorder(
                chunk_rows=self.chunk_rows,
                seal_lag_s=self.drain_timeout_s + 50.0,
            )
        else:
            recorder = OutcomeRecorder(total_requests)
        executor = Executor(env=env, platform=platform, workload=workload,
                            request_pool=pool, rng=rng, recorder=recorder)
        horizon = workload.spec.duration_s + self.drain_timeout_s
        executor.execute(until=horizon)
        end_time = max(executor.last_completion_time, workload.trace.duration)
        usage = platform.finalize(end_time=end_time)
        # Requests still open when the horizon was reached fail, in bulk.
        table = recorder.finalize(horizon)
        metadata = {"events_processed": float(env.events_processed),
                    **recorder.run_metadata()}
        _check_agreement(deployment, workload, usage, table, total_requests,
                         executor.batched_surplus)
        return RunResult(
            deployment=deployment,
            workload_name=workload.name,
            table=table,
            usage=usage,
            duration_s=end_time,
            workload_scale=workload_scale,
            metadata=metadata,
        )

    def run_scenario(self, scenario: Union[str, ScenarioSpec],
                     workload: Optional[Workload] = None,
                     scale: float = 1.0,
                     planner=None) -> RunResult:
        """Run one declarative scenario (by spec or registered name).

        The scenario's workload reference is resolved (and compressed to
        ``scale``, further multiplied by the spec's pinned
        :attr:`~repro.core.scenario.ScenarioSpec.fidelity` when set)
        unless an explicit ``workload`` is supplied — the tools pass one
        when they evaluate candidates against a shared target workload.
        """
        spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
        deployment = spec.deployment(planner)
        if workload is None:
            # build_workload folds the spec's fidelity into the scale.
            workload = spec.build_workload(seed=self.seed, scale=scale)
        if spec.fidelity is not None:
            scale = scale * spec.fidelity
        return self.run(deployment, workload, workload_scale=scale,
                        seed=spec.seed)

    def run_scenarios(self, scenarios: Iterable[Union[str, ScenarioSpec]],
                      scale: float = 1.0, workers: int = 0,
                      planner=None) -> Dict[str, RunResult]:
        """Run several scenarios, keyed by scenario name.

        Workload references are deduplicated, so scenarios that share a
        workload generate (and, with ``workers`` > 1, ship) it once.
        Scenario names must be distinct — the results are keyed by them.
        """
        specs = [get_scenario(s) if isinstance(s, str) else s
                 for s in scenarios]
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names
                                 if names.count(name) > 1})
            raise ValueError(f"scenario names must be distinct, got "
                             f"duplicates: {duplicates}")
        workloads: Dict[tuple, Workload] = {}
        cells = []
        for spec in specs:
            key = (spec.workload,
                   self.seed if spec.seed is None else spec.seed,
                   spec.fidelity)
            if key not in workloads:
                workloads[key] = spec.build_workload(seed=self.seed,
                                                     scale=scale)
            cell_scale = (scale * spec.fidelity
                          if spec.fidelity is not None else scale)
            cells.append((spec.deployment(planner), workloads[key],
                          cell_scale, spec.seed))
        if workers and workers != 1 and len(cells) > 1:
            from repro.core.parallel import run_cells
            results = run_cells(self, cells, workers)
        else:
            results = [self.run(deployment, workload, cell_scale, seed=seed)
                       for deployment, workload, cell_scale, seed in cells]
        return {spec.name: result for spec, result in zip(specs, results)}

    def run_many(self, deployments: Iterable[Deployment],
                 workload: Workload,
                 workload_scale: float = 1.0,
                 workers: int = 0) -> List[RunResult]:
        """Run the same workload against several deployments.

        ``workers`` > 1 fans the independent cells out over that many
        worker processes (see :mod:`repro.core.parallel`); results are
        bit-identical to serial mode because every cell reseeds its own
        RNG from this benchmark's seed.
        """
        deployments = list(deployments)
        if workers and workers != 1 and len(deployments) > 1:
            from repro.core.parallel import run_cells
            return run_cells(self, [(d, workload, workload_scale)
                                    for d in deployments], workers)
        return [self.run(deployment, workload, workload_scale)
                for deployment in deployments]

    def run_matrix(self, deployments: Iterable[Deployment],
                   workloads: Iterable[Workload],
                   workload_scale: float = 1.0,
                   workers: int = 0) -> Dict[str, List[RunResult]]:
        """Run every deployment under every workload, keyed by workload name.

        With ``workers`` > 1 the whole (deployment, workload) grid is
        flattened and fanned out at once, so the pool stays busy even
        when individual workloads have few deployments.
        """
        deployments = list(deployments)
        workloads = list(workloads)
        if workers and workers != 1 and len(deployments) * len(workloads) > 1:
            from repro.core.parallel import run_cells
            cells = [(deployment, workload, workload_scale)
                     for workload in workloads for deployment in deployments]
            flat = run_cells(self, cells, workers)
            results = {}
            for index, workload in enumerate(workloads):
                start = index * len(deployments)
                results[workload.name] = flat[start:start + len(deployments)]
            return results
        return {workload.name: self.run_many(deployments, workload,
                                             workload_scale)
                for workload in workloads}


def _check_agreement(deployment: Deployment, workload: Workload,
                     usage, table, total_requests: int,
                     batched_surplus: int) -> None:
    """Raise unless a finished run's ledger and outcomes agree.

    Two integer compares per cell: the platform's ``completed`` ledger
    bucket equals the recorded success count, and the outcome store
    holds one row per issued request.  The ledger counts a client-side
    batch as one request, so the executor's ``batched_surplus`` (the
    extra members of successful batches) is added back first.
    """
    completed = usage.notes.get("completed")
    problems = []
    if completed is None or (completed + batched_surplus
                             != table.success_count):
        problems.append(f"ledger completed={completed} (+{batched_surplus} "
                        f"batched) but {table.success_count} successful "
                        f"outcomes")
    if table.count != total_requests:
        problems.append(f"{table.count} outcome rows for "
                        f"{total_requests} issued requests")
    if problems:
        raise RuntimeError(f"{deployment.label}@{workload.name}: "
                           + "; ".join(problems))
