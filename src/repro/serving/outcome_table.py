"""Columnar request outcomes and the one reduction surface.

Every run records its outcomes as numpy columns (struct of arrays): one
row per issued request, written by :class:`OutcomeRecorder` and read as
an :class:`OutcomeTable`.  Trace-scale runs fold the same columns, chunk
by chunk, into a :class:`~repro.serving.streaming.OutcomeSummary`
instead of keeping them resident.

Both stores answer the same questions through one surface,
:class:`OutcomeReductions`.  Each store supplies a few primitives: the
request count, tallies (successes, cold successes, attempts, degraded
and spilled requests), successes within a latency target, and the
per-bin success timeline.  Every ratio, the SLO attainment,
``availability`` and ``time_to_recover`` are defined once over those
primitives.  Only the latency reductions (mean, distribution, per-path
mean) differ by store: the table reduces the exact column, the summary
its running sums and :class:`~repro.serving.streaming.LatencySketch`.

The write side is one column block, :class:`_ColumnBlock`: the column
layout, its allocation, reset, table view and the serve-field writer.
The flat recorder is one block sized to the workload; the streaming
ring recycles fixed-size blocks.  ``RequestOutcome`` objects only live
while their request is in flight.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.metrics import LatencyStats
from repro.serving.records import SERVED_BY_SPILL, RequestOutcome, Stage

__all__ = ["OutcomeReductions", "OutcomeTable", "OutcomeRecorder"]

#: Column order of the per-stage latency matrix.
STAGE_ORDER = Stage.ORDER
_STAGE_INDEX: Dict[str, int] = {name: i for i, name in enumerate(STAGE_ORDER)}
_N_STAGES = len(STAGE_ORDER)

#: The outcome column layout: ``(name, dtype, default)`` per column.
#: ``stages`` is the ``(rows, len(Stage.ORDER))`` breakdown matrix.
_COLUMNS = (
    ("request_id", np.int64, 0),
    ("client_id", np.int32, 0),
    ("send_time", np.float64, 0.0),
    ("completion_time", np.float64, np.nan),
    ("success", np.bool_, False),
    ("cold_start", np.bool_, False),
    ("instance_id", np.int64, -1),
    ("billed_duration_s", np.float64, 0.0),
    ("inferences", np.int32, 1),
    ("error_code", np.int16, 0),
    ("attempts", np.int32, 1),
    ("served_by", np.int8, 0),
    ("stages", np.float64, 0.0),
)
_COLUMN_NAMES = tuple(name for name, _dtype, _fill in _COLUMNS)


def _default_column(name: str, dtype, fill, rows: int) -> np.ndarray:
    """A ``rows``-long column holding its default value."""
    shape = (rows, _N_STAGES) if name == "stages" else rows
    if fill == 0:
        # Zeroed pages are lazily committed: unused capacity costs no RSS.
        return np.zeros(shape, dtype=dtype)
    return np.full(shape, fill, dtype=dtype)


class OutcomeReductions:
    """The reductions every outcome store answers, each defined once.

    A store supplies the primitives (:attr:`count`,
    :attr:`success_count`, :attr:`cold_on_success`,
    :attr:`attempts_total`, :attr:`degraded_count`, :attr:`spill_count`,
    :meth:`successes_within` and :meth:`success_timeline`) plus the
    latency reductions (:attr:`average_latency`, :meth:`latency_stats`,
    :meth:`path_latency_mean`).  The ratios and timeline reductions here
    are computed from the primitives alone, so a
    :class:`~repro.core.results.RunResult` answers the same way whichever
    store holds its outcomes.
    """

    # -- headline ratios ------------------------------------------------------
    @property
    def success_ratio(self) -> float:
        """Fraction of requests that succeeded (the paper's SR metric)."""
        count = self.count
        return self.success_count / count if count else 0.0

    @property
    def cold_start_ratio(self) -> float:
        """Fraction of successful requests served by a cold instance."""
        successes = self.success_count
        return self.cold_on_success / successes if successes else 0.0

    def attempts_mean(self) -> float:
        """Mean submission attempts per request (retry amplification).

        1.0 means no request was retried; under chaos schedules with
        client-side retries this is the plottable amplification factor.
        An empty store reports 1.0.
        """
        count = self.count
        return self.attempts_total / count if count else 1.0

    def degraded_ratio(self) -> float:
        """Fraction of all requests served in brownout (degraded) mode.

        Degraded completions are *successes* carrying the reserved error
        label ``"degraded"`` (the router served them from the cheaper
        brownout backend instead of shedding).  0.0 when the run never
        browned out and on an empty store.
        """
        count = self.count
        return self.degraded_count / count if count else 0.0

    def spill_ratio(self) -> float:
        """Fraction of all requests a hybrid front door spilled to serverless.

        0.0 on non-hybrid runs (every request keeps the direct code), on
        hybrid runs whose provisioned fleet never saturated, and on an
        empty store.
        """
        count = self.count
        return self.spill_count / count if count else 0.0

    # -- SLO and timeline reductions ------------------------------------------
    def slo_attainment(self, target_s: float) -> float:
        """Fraction of *all* requests served successfully within ``target_s``.

        The service-level objective of the chaos studies: failed,
        timed-out, and shed requests all count against attainment, not
        just slow successes.  An empty store attains vacuously (1.0).
        """
        count = self.count
        return self.successes_within(target_s) / count if count else 1.0

    def availability(self, bin_s: float = 10.0,
                     min_success_ratio: float = 0.5) -> float:
        """Fraction of time bins in which the service was *available*.

        A bin is available when the success ratio of the requests sent
        in it reaches ``min_success_ratio``; bins with no traffic count
        as available (nothing was refused).  This is the outage-visible
        metric: a 30 s dark window under 5 s bins costs ~6 bins of
        availability regardless of how many requests piled into it.
        """
        edges, requests, successes = self.success_timeline(bin_s)
        if len(edges) == 0:
            return 1.0
        active = requests > 0
        if not active.any():
            return 1.0
        ratio = successes[active] / requests[active]
        available = int((ratio >= min_success_ratio).sum())
        available += int((~active).sum())
        return available / len(edges)

    def time_to_recover(self, after_s: float, bin_s: float = 10.0,
                        min_success_ratio: float = 0.5) -> float:
        """Seconds from ``after_s`` until service is healthy again.

        Scans the :meth:`success_timeline` for the first bin starting at
        or after ``after_s`` (the end of an outage window) that carries
        traffic and meets ``min_success_ratio``; returns the gap between
        ``after_s`` and that bin's left edge — 0.0 when the first bin
        after the outage is already healthy.  Returns NaN when the
        service never recovers within the recorded horizon.
        """
        edges, requests, successes = self.success_timeline(bin_s)
        for index in range(len(edges)):
            if edges[index] + bin_s <= after_s:
                continue
            if requests[index] == 0:
                continue
            if successes[index] / requests[index] >= min_success_ratio:
                return float(max(edges[index] - after_s, 0.0))
        return float("nan")


class OutcomeTable(OutcomeReductions):
    """Struct-of-arrays over one run's request outcomes.

    Columns (all length ``count``):

    * ``request_id``   int64
    * ``client_id``    int32
    * ``send_time``    float64 (seconds)
    * ``completion_time`` float64 (NaN while unfinished)
    * ``success``      bool
    * ``cold_start``   bool
    * ``instance_id``  int64 (-1 = never assigned)
    * ``billed_duration_s`` float64
    * ``inferences``   int32
    * ``error_code``   int16 (index into ``error_names``; 0 = no error)
    * ``attempts``     int32 (submission attempts; 1 = no retries)
    * ``served_by``    int8 (hybrid path code; 0 = direct, 1 =
      provisioned fleet, 2 = serverless spill)
    * ``stages``       float64 matrix of shape (count, len(Stage.ORDER))

    Every reduction is a masked numpy reduction over these columns;
    latency quantiles are exact.
    """

    def __init__(self, request_id, client_id, send_time, completion_time,
                 success, cold_start, instance_id, billed_duration_s,
                 inferences, error_code, stages,
                 error_names: Sequence[str] = ("",), attempts=None,
                 served_by=None):
        self.request_id = request_id
        self.client_id = client_id
        self.send_time = send_time
        self.completion_time = completion_time
        self.success = success
        self.cold_start = cold_start
        self.instance_id = instance_id
        self.billed_duration_s = billed_duration_s
        self.inferences = inferences
        self.error_code = error_code
        self.stages = stages
        self.error_names: List[str] = list(error_names)
        if attempts is None:
            attempts = np.ones(self.count, dtype=np.int32)
        self.attempts = attempts
        if served_by is None:
            served_by = np.zeros(self.count, dtype=np.int8)
        self.served_by = served_by

    # -- shape ----------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of recorded requests."""
        return int(self.send_time.shape[0])

    def __len__(self) -> int:
        return self.count

    # -- derived columns -------------------------------------------------------
    @property
    def latency(self) -> np.ndarray:
        """End-to-end latency per request (NaN where unfinished)."""
        return self.completion_time - self.send_time

    def successful_latencies(self) -> np.ndarray:
        """Latencies of the successful requests (the paper's headline set)."""
        return self.latency[self.success]

    def stage_column(self, stage: str) -> np.ndarray:
        """Accumulated seconds in one breakdown stage, per request."""
        return self.stages[:, _STAGE_INDEX[stage]]

    def error_strings(self) -> List[str]:
        """Per-request error messages ('' for plain successful requests;
        successful brownout completions carry ``"degraded"``)."""
        names = self.error_names
        return [names[code] for code in self.error_code.tolist()]

    # -- reduction primitives -------------------------------------------------
    @property
    def success_count(self) -> int:
        """Number of successful requests."""
        return int(self.success.sum())

    @property
    def cold_on_success(self) -> int:
        """Number of successful requests served by a cold instance."""
        return int(self.cold_start[self.success].sum())

    @property
    def attempts_total(self) -> int:
        """Submission attempts summed over every request."""
        return int(self.attempts.sum())

    @property
    def degraded_count(self) -> int:
        """Successful requests carrying the ``"degraded"`` label."""
        try:
            code = self.error_names.index("degraded")
        except ValueError:
            return 0
        return int((self.success & (self.error_code == code)).sum())

    @property
    def spill_count(self) -> int:
        """Requests a hybrid front door spilled to serverless."""
        return int((self.served_by == SERVED_BY_SPILL).sum())

    def successes_within(self, target_s: float) -> int:
        """Successful requests whose latency is at most ``target_s``."""
        return int((self.success & (self.latency <= target_s)).sum())

    def success_timeline(self, bin_s: float = 10.0):
        """Per-time-bin request and success counts (by send time).

        Returns ``(edges, requests, successes)``: bin left edges from 0
        to the last send time in ``bin_s`` steps, and two aligned count
        arrays.  The shared binning behind :meth:`availability` and
        :meth:`time_to_recover`.
        """
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        if self.count == 0:
            empty = np.zeros(0)
            return empty, empty.astype(np.int64), empty.astype(np.int64)
        bins = int(np.floor(self.send_time.max() / bin_s)) + 1
        index = np.minimum((self.send_time / bin_s).astype(np.int64),
                           bins - 1)
        requests = np.bincount(index, minlength=bins)
        successes = np.bincount(index[self.success], minlength=bins)
        edges = np.arange(bins) * bin_s
        return edges, requests, successes

    # -- latency reductions ---------------------------------------------------
    @property
    def average_latency(self) -> float:
        """Mean latency of the *successful* requests (0.0 if none)."""
        latencies = self.successful_latencies()
        if latencies.size == 0:
            return 0.0
        return float(latencies.mean())

    def latency_stats(self) -> LatencyStats:
        """Exact distributional statistics over successful latencies."""
        return LatencyStats.from_values(self.successful_latencies())

    def path_latency_mean(self, served_by: int) -> float:
        """Mean successful latency of one hybrid path (NaN when unserved).

        ``served_by`` is a :data:`~repro.serving.records.SERVED_BY_NAMES`
        code; the reduction mirrors the headline ``avg_latency_s`` but
        restricted to the requests that path completed successfully.
        """
        mask = self.success & (self.served_by == served_by)
        if not mask.any():
            return float("nan")
        return float(self.latency[mask].mean())

    # -- mutation (benchmark-internal) ----------------------------------------
    def fail_unfinished(self, horizon: float,
                        error: str = "unfinished") -> int:
        """Mark still-open requests as failed at ``horizon`` (vectorised).

        Returns the number of requests so marked.  Mirrors the per-object
        ``outcome.finish(max(horizon, send_time), success=False)`` the
        benchmark used to apply in a Python loop.
        """
        open_mask = np.isnan(self.completion_time)
        n_open = int(open_mask.sum())
        if n_open == 0:
            return 0
        self.completion_time[open_mask] = np.maximum(
            horizon, self.send_time[open_mask])
        self.success[open_mask] = False
        self.error_code[open_mask] = _intern_error(self.error_names, error)
        return n_open

    # -- wire format -----------------------------------------------------------
    def packed(self) -> dict:
        """A compact lossless encoding for cross-process transport.

        Applied tricks (all exactly invertible):

        * ``request_id`` is elided when it equals ``arange(count)`` (the
          executor's normal sequential numbering);
        * integer columns travel as int32, booleans as ``packbits`` bit
          arrays;
        * columns that are mostly zero (billed duration on server
          platforms, the cold-only stage columns) travel as
          ``(indices, values)`` pairs; all-default columns vanish.
        """
        count = self.count
        packed: dict = {"count": count, "errors": self.error_names}
        if not np.array_equal(self.request_id,
                              np.arange(count, dtype=np.int64)):
            packed["request_id"] = self.request_id.astype(np.int64)
        packed["client_id"] = self.client_id.astype(np.int32)
        packed["send_time"] = self.send_time
        packed["completion_time"] = self.completion_time
        packed["success"] = np.packbits(self.success)
        if self.cold_start.any():
            packed["cold_start"] = np.packbits(self.cold_start)
        if (self.instance_id >= 0).any():
            packed["instance_id"] = self.instance_id.astype(np.int32)
        if (self.inferences != 1).any():
            packed["inferences"] = self.inferences.astype(np.int32)
        if self.error_code.any():
            packed["error_code"] = self.error_code
        if (self.attempts != 1).any():
            packed["attempts"] = self.attempts.astype(np.int32)
        if self.served_by.any():
            packed["served_by"] = self.served_by.astype(np.int8)
        packed["billed_duration_s"] = _pack_sparse(self.billed_duration_s)
        packed["stages"] = [_pack_sparse(self.stages[:, i])
                            for i in range(_N_STAGES)]
        return packed

    @classmethod
    def from_packed(cls, packed: dict) -> "OutcomeTable":
        """Rebuild a table from :meth:`packed` output (exact inverse)."""
        count = packed["count"]
        columns = {}
        for name, dtype, fill in _COLUMNS:
            value = packed.get(name)
            if name == "stages":
                value = np.zeros((count, _N_STAGES), dtype=np.float64)
                for stage_index, column in enumerate(packed["stages"]):
                    value[:, stage_index] = _unpack_sparse(column, count)
            elif name == "billed_duration_s":
                value = _unpack_sparse(value, count)
            elif value is None:
                # An elided column holds only its default value.
                value = _default_column(name, dtype, fill, count)
            elif dtype is np.bool_:
                value = np.unpackbits(value, count=count).astype(bool)
            else:
                value = value.astype(dtype, copy=False)
            columns[name] = value
        if "request_id" not in packed:
            # Elided because it was the executor's sequential numbering.
            columns["request_id"] = np.arange(count, dtype=np.int64)
        return cls(**columns, error_names=packed["errors"])

    # -- determinism -----------------------------------------------------------
    def column_hash(self) -> str:
        """SHA-256 over every column's bytes (golden-hash determinism tests).

        Equal hashes mean bit-identical runs: same times, same successes,
        same stage breakdowns, same error assignments.
        """
        digest = hashlib.sha256()
        for column in (self.request_id, self.client_id, self.send_time,
                       self.completion_time, self.success, self.cold_start,
                       self.instance_id, self.billed_duration_s,
                       self.inferences, self.error_code, self.stages):
            digest.update(np.ascontiguousarray(column).tobytes())
        if (self.attempts != 1).any():
            # Retried runs hash their attempts column; retry-free runs
            # skip it so historical golden digests stay valid.
            digest.update(np.ascontiguousarray(self.attempts).tobytes())
        if self.served_by.any():
            # Same rule for the hybrid path column: only hybrid runs
            # (the only producers of non-zero codes) hash it.
            digest.update(np.ascontiguousarray(self.served_by).tobytes())
        digest.update("\x00".join(self.error_names).encode("utf-8"))
        return digest.hexdigest()


def _pack_sparse(column: np.ndarray):
    """Shrink a float column: None (all zero) / scalar (constant) /
    (indices, values) (mostly zero) / dense ndarray."""
    nonzero = np.flatnonzero(column)
    if nonzero.size == 0:
        return None
    first = column[0]
    if nonzero.size == column.size and (column == first).all():
        # e.g. the HANDLER stage: a per-run constant on every request.
        return float(first)
    if nonzero.size * 3 < column.size:  # 12B/entry sparse vs 8B/entry dense
        return (nonzero.astype(np.int32), column[nonzero])
    return column


def _unpack_sparse(packed, count: int) -> np.ndarray:
    """Inverse of :func:`_pack_sparse`."""
    if packed is None:
        return np.zeros(count, dtype=np.float64)
    if isinstance(packed, float):
        return np.full(count, packed, dtype=np.float64)
    if isinstance(packed, tuple):
        column = np.zeros(count, dtype=np.float64)
        indices, values = packed
        column[indices] = values
        return column
    return packed


def _intern_error(names: List[str], error: str) -> int:
    """Index of ``error`` in the vocabulary, appending it if new."""
    try:
        return names.index(error)
    except ValueError:
        names.append(error)
        return len(names) - 1


class _ColumnBlock:
    """One preallocated block of outcome columns and its serve-field writer.

    The write-side storage of both recorders: :class:`OutcomeRecorder`
    is one block sized to the workload, and the streaming ring
    (:class:`~repro.serving.streaming.ChunkedOutcomeRecorder`) recycles
    fixed-size blocks.  ``error_names`` is the vocabulary ``error_code``
    indexes; the blocks of one ring share their recorder's list.
    """

    __slots__ = _COLUMN_NAMES + ("error_names",)

    def __init__(self, rows: int, error_names: Optional[List[str]] = None):
        for name, dtype, fill in _COLUMNS:
            setattr(self, name, _default_column(name, dtype, fill, rows))
        self.error_names: List[str] = ([""] if error_names is None
                                       else error_names)

    def reset(self) -> None:
        """Restore every column's default value (for block reuse)."""
        for name, _dtype, fill in _COLUMNS:
            getattr(self, name)[:] = fill

    def view(self, rows: int) -> OutcomeTable:
        """The block's first ``rows`` rows as an :class:`OutcomeTable`.

        The columns are zero-copy views: do not keep the table past a
        reuse of the block.
        """
        return OutcomeTable(
            **{name: getattr(self, name)[:rows] for name in _COLUMN_NAMES},
            error_names=self.error_names)

    def write_serve_fields(self, row: int, outcome: RequestOutcome) -> None:
        """Write the fields a request accrues while being served."""
        if outcome.error:
            self.error_code[row] = _intern_error(self.error_names,
                                                 outcome.error)
        if outcome.success:
            self.success[row] = True
        if outcome.cold_start:
            self.cold_start[row] = True
        if outcome.instance_id is not None:
            self.instance_id[row] = outcome.instance_id
        if outcome.billed_duration_s:
            self.billed_duration_s[row] = outcome.billed_duration_s
        if outcome.attempts != 1:
            self.attempts[row] = outcome.attempts
        if outcome.served_by:
            self.served_by[row] = outcome.served_by
        breakdown = outcome.breakdown
        if breakdown:
            stages = self.stages
            index = _STAGE_INDEX
            for name, seconds in breakdown.items():
                stages[row, index[name]] = seconds


class OutcomeRecorder(_ColumnBlock):
    """Preallocated write side of an :class:`OutcomeTable`.

    Sized from the workload's known request count; grows geometrically in
    the (unusual) case more requests are issued than the hint promised.
    ``capacity`` is honoured exactly (it used to be silently clamped to a
    minimum of 16, which made chunk accounting off-by-up-to-15 for tiny
    cells); a zero-capacity recorder simply grows on first registration.
    """

    __slots__ = ("_capacity", "_count", "_inflight")

    def __init__(self, capacity: int):
        self._capacity = max(int(capacity), 0)
        self._count = 0
        _ColumnBlock.__init__(self, self._capacity)
        #: Registered-but-uncommitted outcomes; their partial state
        #: (accrued stages, instance assignment) is flushed by
        #: :meth:`table` so requests that never complete keep the fields
        #: they did accumulate.
        self._inflight: Dict[int, RequestOutcome] = {}

    def __len__(self) -> int:
        return self._count

    def _grow(self) -> None:
        new_capacity = max(self._capacity * 2, 16)
        for name, dtype, fill in _COLUMNS:
            grown = _default_column(name, dtype, fill, new_capacity)
            grown[:self._capacity] = getattr(self, name)
            setattr(self, name, grown)
        self._capacity = new_capacity

    # -- write path ------------------------------------------------------------
    def register(self, outcome: RequestOutcome) -> int:
        """Record a freshly issued request; returns its row index."""
        row = self._count
        if row >= self._capacity:
            self._grow()
        self._count = row + 1
        outcome.row = row
        self._inflight[row] = outcome
        self.request_id[row] = outcome.request_id
        self.client_id[row] = outcome.client_id
        self.send_time[row] = outcome.send_time
        if outcome.inferences != 1:
            self.inferences[row] = outcome.inferences
        return row

    def commit(self, outcome: RequestOutcome) -> None:
        """Record a finished request's completion-time fields.

        Safe to call again for the same outcome (e.g. when a serverless
        invocation still runs — and bills — after its client already gave
        up at the 300 s deadline): the row is simply rewritten with the
        later state.
        """
        row = outcome.row
        self._inflight.pop(row, None)
        self.completion_time[row] = outcome.completion_time
        self.write_serve_fields(row, outcome)

    # -- read side -------------------------------------------------------------
    def table(self) -> OutcomeTable:
        """The recorded outcomes as a trimmed :class:`OutcomeTable`.

        Flushes the partial state (accrued network/queue stages, instance
        assignment) of registered-but-never-committed requests first, so
        unfinished rows carry everything their in-flight objects did.
        """
        for row, outcome in self._inflight.items():
            self.write_serve_fields(row, outcome)
        return self.view(self._count)

    def finalize(self, horizon: float,
                 error: str = "unfinished") -> OutcomeTable:
        """The run's table, with requests still open at ``horizon`` failed.

        The end-of-run read side both recorders share: :meth:`table`,
        then :meth:`OutcomeTable.fail_unfinished`.
        """
        table = self.table()
        table.fail_unfinished(horizon, error)
        return table

    def run_metadata(self) -> Dict[str, float]:
        """Recorder counters for the run's metadata (none for a flat block)."""
        return {}
