"""Run results: the raw material the analyzer works on.

A :class:`RunResult` carries its outcomes in one of the two outcome
stores: a columnar :class:`~repro.serving.outcome_table.OutcomeTable`,
or, for trace-scale (streaming) runs, the
:class:`~repro.serving.streaming.OutcomeSummary` their chunks folded
into.  Both answer through the one reduction surface,
:class:`~repro.serving.outcome_table.OutcomeReductions`, so every
headline metric here simply asks ``result.table``; nothing depends on
which store holds the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

from repro.core.metrics import LatencyStats
from repro.platforms.base import PlatformUsage
from repro.serving.deployment import Deployment
from repro.serving.outcome_table import OutcomeTable
from repro.serving.streaming import OutcomeSummary

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Everything produced by one (deployment, workload) experiment."""

    deployment: Deployment
    workload_name: str
    #: Columnar per-request outcomes — or, for streaming (trace-scale)
    #: runs, the :class:`OutcomeSummary` their folded chunks reduced
    #: into.  Both expose the same reductions.
    table: Union[OutcomeTable, OutcomeSummary]
    usage: PlatformUsage
    #: Simulated wall-clock length of the experiment (last completion).
    duration_s: float
    #: Fraction of the paper's full workload that was replayed (1.0 = full).
    workload_scale: float = 1.0
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def streaming(self) -> bool:
        """True when this result carries an :class:`OutcomeSummary`
        (streaming reductions) instead of a full outcome table."""
        return isinstance(self.table, OutcomeSummary)

    # -- headline metrics -----------------------------------------------------
    @property
    def total_requests(self) -> int:
        """Number of client requests issued."""
        return self.table.count

    @property
    def success_ratio(self) -> float:
        """Fraction of requests that succeeded (the paper's SR metric)."""
        return self.table.success_ratio

    @property
    def average_latency(self) -> float:
        """Mean end-to-end latency of the *successful* requests (paper metric)."""
        return self.table.average_latency

    @property
    def cost(self) -> float:
        """Total cost of the experiment in dollars."""
        return self.usage.cost

    @property
    def cold_start_ratio(self) -> float:
        """Fraction of successful requests served by a cold instance."""
        return self.table.cold_start_ratio

    def latency_stats(self) -> LatencyStats:
        """Distributional statistics over successful-request latencies.

        Streaming results serve quantiles from the latency sketch
        (accurate to ~0.4 %); full tables compute them exactly.
        """
        return self.table.latency_stats()

    # -- transport -------------------------------------------------------------
    def to_transport(self) -> Tuple:
        """Compact worker-to-parent payload (everything but the deployment).

        The deployment object is the one piece of a result the parent
        already holds (it shipped it to the worker in the first place),
        and the only piece that is an arbitrary object graph; everything
        else is the packed outcome store (see :meth:`OutcomeTable.packed`;
        an :class:`OutcomeSummary` packs to itself, being already a small
        fixed-size reduction) and small dicts.
        """
        return (self.workload_name, self.table.packed(), self.usage,
                self.duration_s, self.workload_scale, self.metadata)

    @classmethod
    def from_transport(cls, payload: Tuple,
                       deployment: Deployment) -> "RunResult":
        """Rebuild a result from :meth:`to_transport` plus the local deployment."""
        workload_name, packed, usage, duration_s, scale, metadata = payload
        table = (packed if isinstance(packed, OutcomeSummary)
                 else OutcomeTable.from_packed(packed))
        return cls(deployment=deployment, workload_name=workload_name,
                   table=table, usage=usage,
                   duration_s=duration_s, workload_scale=scale,
                   metadata=metadata)

    # -- presentation ---------------------------------------------------------
    @property
    def label(self) -> str:
        """Short identifier: deployment label plus workload name."""
        return f"{self.deployment.label}@{self.workload_name}"

    def as_row(self) -> Dict[str, object]:
        """A flat dictionary suitable for result tables."""
        return {
            "provider": self.deployment.provider.name,
            "platform": self.deployment.config.platform,
            "model": self.deployment.model.name,
            "runtime": self.deployment.runtime.key,
            "workload": self.workload_name,
            "requests": self.total_requests,
            "avg_latency_s": round(self.average_latency, 4),
            "success_ratio": round(self.success_ratio, 4),
            "cost_usd": round(self.cost, 4),
            "cold_starts": self.usage.cold_starts,
            "instances": self.usage.instances_created,
            "workload_scale": self.workload_scale,
        }
