"""The trace-scale streaming plane: chunk ring, reductions, calendar, shm.

Four guarantees of the streaming engine are pinned here:

* **Chunk-ring equality** — the chunks the streaming ring folds, at any
  chunk size, concatenate to columns bit-identical to the preallocated
  ``OutcomeRecorder``'s (same ``column_hash``), and each folded chunk
  survives the ``packed()`` wire format losslessly.
* **Streaming reductions** — a cell run through the streaming path
  (``OutcomeSummary`` folds, no full table) reproduces every standard
  reduction: counts, ratios, and timelines exactly; sketch quantiles and
  SLO attainment within one sketch bin.
* **Calendar-queue bit-identity** — forcing the heap-to-bucket migration
  at tiny thresholds changes neither the outcome columns nor the event
  count of a cell.
* **Shared-memory transport** — ``pack_arrays``/``unpack_arrays`` round
  payloads through a shm segment bit-identically, and a worker pool
  forced onto the segment path matches serial hashes.

Plus the streamed workload generator (block-by-block arrivals equal to
the materialised trace) and the recorder's exact-capacity contract.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.benchmark as benchmark_module
import repro.sim.engine as engine
from repro.core.benchmark import ServingBenchmark
from repro.core.results import RunResult
from repro.core.shm import ShmPayload, pack_arrays, unpack_arrays
from repro.core.study import _standard_metrics
from repro.serving.outcome_table import (
    _COLUMN_NAMES,
    OutcomeRecorder,
    OutcomeTable,
)
from repro.serving.streaming import (
    ChunkedOutcomeRecorder,
    LatencySketch,
    OutcomeSummary,
)
from repro.workload.generator import (
    WorkloadSpec,
    generate_workload,
    standard_workload,
    workload_spec,
)
from repro.workload.splitter import merge_traces
from repro.workload.streaming import PIECE_ARRIVALS, StreamedWorkload

SEED = 5


@pytest.fixture(scope="module")
def reference_result(tiny_w40):
    """One preallocated-path cell shared by the equality tests."""
    from repro.core.planner import Planner
    deployment = Planner().plan("aws", "mobilenet", "tf1.15", "serverless")
    return ServingBenchmark(seed=SEED).run(deployment, tiny_w40), deployment


class _KeepingSummary(OutcomeSummary):
    """A summary that also keeps a copy of every chunk it folds."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def fold(self, table):
        self.chunks.append({name: getattr(table, name).copy()
                            for name in _COLUMN_NAMES})
        super().fold(table)


def _streamed_chunks(monkeypatch, deployment, workload, chunk_rows):
    """Run a cell through the streaming ring; return its folded chunks
    as tables (in fold order) and the ring's error vocabulary."""
    rings = []

    def keeping_ring(**kwargs):
        rings.append(ChunkedOutcomeRecorder(summary=_KeepingSummary(),
                                            **kwargs))
        return rings[-1]

    monkeypatch.setattr(benchmark_module, "ChunkedOutcomeRecorder",
                        keeping_ring)
    ServingBenchmark(seed=SEED, streaming_threshold=0,
                     chunk_rows=chunk_rows).run(deployment, workload)
    ring, = rings
    names = ring.error_names
    return ([OutcomeTable(**chunk, error_names=names)
             for chunk in ring.summary.chunks], names)


class TestChunkRingEquality:
    @pytest.mark.parametrize("chunk_rows", [7, 256, 4096, 1_000_000])
    def test_any_chunk_size_matches_preallocated_hash(self, monkeypatch,
                                                      reference_result,
                                                      tiny_w40,
                                                      chunk_rows):
        result, deployment = reference_result
        chunks, names = _streamed_chunks(monkeypatch, deployment, tiny_w40,
                                         chunk_rows)
        joined = OutcomeTable(
            **{name: np.concatenate([getattr(chunk, name)
                                     for chunk in chunks])
               for name in _COLUMN_NAMES},
            error_names=names)
        assert joined.column_hash() == result.table.column_hash()

    def test_sealed_chunks_survive_packed_round_trip(self, monkeypatch,
                                                     reference_result,
                                                     tiny_w40):
        result, deployment = reference_result
        chunks, _names = _streamed_chunks(monkeypatch, deployment, tiny_w40,
                                          chunk_rows=256)
        assert len(chunks) > 1
        assert sum(chunk.count for chunk in chunks) == result.table.count
        for chunk in chunks:
            rebuilt = OutcomeTable.from_packed(chunk.packed())
            assert rebuilt.column_hash() == chunk.column_hash()

    def test_finalize_flushes_in_flight_rows_like_the_flat_recorder(self):
        """A row still open at the horizon keeps its accrued serve state
        and fails with ``"unfinished"`` on both recorders."""
        from repro.serving.records import RequestOutcome, Stage
        flat = OutcomeRecorder(capacity=2)
        ring = ChunkedOutcomeRecorder(chunk_rows=4,
                                      summary=_KeepingSummary())
        for recorder in (flat, ring):
            outcome = RequestOutcome(request_id=0, client_id=0,
                                     send_time=1.0)
            recorder.register(outcome)
            outcome.add_stage(Stage.NETWORK, 0.25)
            outcome.instance_id = 3
        table = flat.finalize(10.0)
        chunk, = ring.finalize(10.0).chunks
        folded = OutcomeTable(**chunk, error_names=ring.error_names)
        assert folded.column_hash() == table.column_hash()
        assert table.stage_column(Stage.NETWORK)[0] == 0.25
        assert table.instance_id[0] == 3
        assert table.completion_time[0] == 10.0 and not table.success[0]
        assert table.error_names[table.error_code[0]] == "unfinished"

    def test_commit_after_fold_is_a_hard_error(self):
        from repro.serving.records import RequestOutcome
        recorder = ChunkedOutcomeRecorder(chunk_rows=4, seal_lag_s=0.0)
        outcomes = []
        for index in range(8):
            outcome = RequestOutcome(request_id=index, client_id=0,
                                     send_time=float(index))
            recorder.register(outcome)
            outcomes.append(outcome)
        for outcome in outcomes:
            outcome.completion_time = outcome.send_time + 100.0
            outcome.success = True
            recorder.commit(outcome)
        # Both chunks full+committed and aged past the (zero) lag: folded.
        assert recorder.summary.chunks_folded >= 1
        late = outcomes[0]
        with pytest.raises(RuntimeError, match="folded"):
            recorder.commit(late)


class TestStreamingReductions:
    @pytest.fixture(scope="class")
    def pair(self, tiny_w40):
        """The same cell through the preallocated and streaming paths."""
        from repro.core.planner import Planner
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        full = ServingBenchmark(seed=SEED).run(deployment, tiny_w40)
        streamed = ServingBenchmark(seed=SEED, streaming_threshold=0,
                                    chunk_rows=128).run(deployment,
                                                        tiny_w40)
        return full, streamed

    def test_streaming_flag_and_summary_type(self, pair):
        full, streamed = pair
        assert not full.streaming
        assert streamed.streaming
        assert isinstance(streamed.table, OutcomeSummary)
        # No per-request rows survive a streamed run.
        assert not hasattr(streamed.table, "send_time")

    def test_exact_reductions_match(self, pair):
        full, streamed = pair
        summary = streamed.table
        table = full.table
        assert summary.count == table.count
        assert streamed.success_ratio == full.success_ratio
        assert streamed.cold_start_ratio == full.cold_start_ratio
        assert summary.attempts_mean() == table.attempts_mean()
        assert summary.degraded_ratio() == table.degraded_ratio()

    def test_latency_within_sketch_resolution(self, pair):
        full, streamed = pair
        assert streamed.average_latency == pytest.approx(
            full.average_latency, rel=1e-9)
        sketch_stats = streamed.latency_stats()
        exact_stats = full.latency_stats()
        for name in ("p50", "p99"):
            assert getattr(sketch_stats, name) == pytest.approx(
                getattr(exact_stats, name), rel=0.02)
        assert abs(streamed.table.slo_attainment(1.0)
                   - full.table.slo_attainment(1.0)) <= 0.01

    def test_timeline_and_availability_exact(self, pair):
        full, streamed = pair
        edges, requests, successes = streamed.table.success_timeline(10.0)
        ref_edges, ref_requests, ref_successes = (
            full.table.success_timeline(10.0))
        # The streaming timeline spans the folded range, which may pad
        # past the reference's last bin; the shared prefix is exact.
        n = len(ref_requests)
        assert np.array_equal(edges[:n + 1], ref_edges[:n + 1])
        assert np.array_equal(requests[:n], ref_requests[:n])
        assert np.array_equal(successes[:n], ref_successes[:n])
        assert int(requests.sum()) == int(ref_requests.sum())
        assert int(successes.sum()) == int(ref_successes.sum())

    def test_non_integer_multiple_bin_rejected(self, pair):
        _full, streamed = pair
        with pytest.raises(ValueError):
            streamed.table.success_timeline(1.5)

    def test_mid_run_sealing_bounds_residency(self):
        from repro.serving.records import RequestOutcome
        recorder = ChunkedOutcomeRecorder(chunk_rows=128, seal_lag_s=20.0)
        rows = 128 * 36
        for index in range(rows):
            send = index * 0.5  # one chunk spans 64 s >> the 20 s lag
            outcome = RequestOutcome(request_id=index, client_id=0,
                                     send_time=send)
            recorder.register(outcome)
            outcome.completion_time = send + 0.05
            outcome.success = True
            recorder.commit(outcome)
        summary = recorder.finalize(rows * 0.5 + 1.0)
        assert summary.count == rows
        assert summary.chunks_folded == 36
        # Chunks recycled mid-run: residency stayed far under the total.
        assert recorder.peak_resident_chunks <= 4

    def test_transport_round_trip_preserves_digest(self, pair, tiny_w40):
        _full, streamed = pair
        transport = streamed.to_transport()
        rebuilt = RunResult.from_transport(transport, streamed.deployment)
        assert rebuilt.streaming
        assert rebuilt.table.digest() == streamed.table.digest()
        assert rebuilt.success_ratio == streamed.success_ratio


#: Relative width of one :class:`LatencySketch` bin (~0.4 %).
_SKETCH_BIN = (LatencySketch().hi / LatencySketch().lo) ** (
    1.0 / LatencySketch().bins)

#: (platform, chunk rows) of each full/streamed pair: the serverless and
#: hybrid cells folded over many 128-row chunks, and the hybrid cell
#: folded in one chunk (where even the float means reduce identically).
_PARITY_CELLS = [("serverless", 128), ("hybrid", 128), ("hybrid", 1 << 20)]


@pytest.fixture(scope="module", params=_PARITY_CELLS,
                ids=lambda cell: f"{cell[0]}-chunk{cell[1]}")
def parity_pair(request, tiny_w40):
    """One cell through the preallocated table and the streaming ring."""
    from repro.core.planner import Planner
    platform, chunk_rows = request.param
    overrides = ({"hybrid_provisioned_instances": 1}
                 if platform == "hybrid" else {})
    deployment = Planner().plan("aws", "mobilenet", "tf1.15", platform,
                                **overrides)
    full = ServingBenchmark(seed=SEED).run(deployment, tiny_w40)
    streamed = ServingBenchmark(seed=SEED, streaming_threshold=0,
                                chunk_rows=chunk_rows).run(deployment,
                                                           tiny_w40)
    return full, streamed, chunk_rows


class TestReductionParity:
    """Both outcome stores answer the shared reduction surface alike."""

    def test_reductions_agree(self, parity_pair):
        full, streamed, chunk_rows = parity_pair
        table, summary = full.table, streamed.table
        assert not full.streaming and streamed.streaming
        # Integer tallies: exact.
        assert summary.success_ratio == table.success_ratio
        assert summary.cold_start_ratio == table.cold_start_ratio
        assert summary.attempts_mean() == table.attempts_mean()
        assert summary.degraded_ratio() == table.degraded_ratio()
        assert summary.spill_ratio() == table.spill_ratio()
        for got, want in zip(summary.success_timeline(10.0),
                             table.success_timeline(10.0)):
            assert np.array_equal(got, want)
        for bin_s in (5.0, 10.0):
            assert summary.availability(bin_s) == table.availability(bin_s)
            for after_s in (0.0, 30.0):
                assert (np.array_equal(summary.time_to_recover(after_s, bin_s),
                                       table.time_to_recover(after_s, bin_s),
                                       equal_nan=True))
        # Latency means: running sums.  Folded in one chunk they reduce
        # the same values in the same order as the table (bit-identical);
        # over many chunks only float summation order differs.
        rel = 0.0 if chunk_rows >= table.count else 1e-12
        for code in range(3):
            got = summary.path_latency_mean(code)
            want = table.path_latency_mean(code)
            assert (np.isnan(got) and np.isnan(want)) or \
                got == pytest.approx(want, rel=rel, abs=0.0)
        # Quantiles and SLO attainment: within one sketch bin.
        sketch, exact = summary.latency_stats(), table.latency_stats()
        for name in ("p50", "p90", "p95", "p99"):
            assert getattr(sketch, name) == pytest.approx(
                getattr(exact, name), rel=_SKETCH_BIN - 1.0)
        for target_s in (0.5, 1.0, 5.0):
            assert (table.slo_attainment(target_s)
                    <= summary.slo_attainment(target_s)
                    <= table.slo_attainment(target_s * _SKETCH_BIN))

    def test_standard_metrics_keys_agree(self, parity_pair):
        full, streamed, _chunk_rows = parity_pair
        assert (list(_standard_metrics(streamed))
                == list(_standard_metrics(full)))


class TestLatencySketch:
    def test_quantiles_within_bin_resolution(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(mean=-2.0, sigma=0.8, size=20_000)
        sketch = LatencySketch()
        sketch.add(values)
        for q in (50.0, 90.0, 99.0):
            assert sketch.quantile(q) == pytest.approx(
                float(np.percentile(values, q)), rel=0.01)
        assert sketch.mean == pytest.approx(float(values.mean()), rel=1e-9)
        assert sketch.std == pytest.approx(float(values.std()), rel=1e-6)

    def test_extremes_clamped_to_observed_range(self):
        sketch = LatencySketch()
        sketch.add(np.array([0.5]))
        assert sketch.quantile(0.0) == 0.5
        assert sketch.quantile(100.0) == 0.5


class TestBucketCalendar:
    def test_pop_order_matches_heap(self):
        import heapq
        rng = np.random.default_rng(11)
        times = rng.uniform(0.0, 100.0, 5_000)
        entries = [(float(t), 1, seq, None, True, None)
                   for seq, t in enumerate(times)]
        heap = list(entries)
        heapq.heapify(heap)
        calendar = engine.BucketCalendar(width=0.64, start_key=0)
        for entry in entries:
            calendar.push(entry)
        order = [calendar.pop() for _ in range(len(entries))]
        assert order == [heapq.heappop(heap) for _ in range(len(entries))]
        assert calendar.size == 0

    def test_forced_migration_is_bit_identical(self, monkeypatch,
                                               reference_result, tiny_w40):
        result, deployment = reference_result
        for threshold in (16, 128):
            monkeypatch.setattr(engine, "_BUCKET_THRESHOLD", threshold)
            bucketed = ServingBenchmark(seed=SEED).run(deployment, tiny_w40)
            assert (bucketed.table.column_hash()
                    == result.table.column_hash())
            assert (bucketed.metadata["events_processed"]
                    == result.metadata["events_processed"])


class TestShmTransport:
    def test_round_trip_is_bit_identical(self, reference_result):
        result, deployment = reference_result
        transport = result.to_transport()
        packed = pack_arrays(transport, min_bytes=0)
        assert isinstance(packed, ShmPayload)
        rebuilt = RunResult.from_transport(unpack_arrays(packed), deployment)
        assert rebuilt.table.column_hash() == result.table.column_hash()

    def test_small_payloads_stay_plain(self, reference_result):
        result, _deployment = reference_result
        transport = result.to_transport()
        assert pack_arrays(transport) is transport  # under SHM_MIN_BYTES

    def test_disabled_by_environment(self, monkeypatch, reference_result):
        monkeypatch.setenv("REPRO_SHM", "0")
        result, _deployment = reference_result
        transport = result.to_transport()
        assert pack_arrays(transport, min_bytes=0) is transport

    def test_worker_pool_on_segment_path_matches_serial(self, monkeypatch,
                                                        tiny_w40):
        from repro.core.planner import Planner
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        planner = Planner()
        deployments = [planner.plan("aws", "mobilenet", "tf1.15", platform)
                       for platform in ("serverless", "cpu_server")]
        bench = ServingBenchmark(seed=SEED)
        serial = bench.run_many(deployments, tiny_w40)
        pooled = bench.run_many(deployments, tiny_w40, workers=2)
        for left, right in zip(serial, pooled):
            assert left.table.column_hash() == right.table.column_hash()


class TestStreamedWorkload:
    def test_small_spec_matches_materialised_exactly(self):
        spec = workload_spec("w-40").compressed(0.3)
        materialised = generate_workload(spec, seed=SEED)
        session = StreamedWorkload(spec=spec, seed=SEED).open()
        for reference, streamed in zip(materialised.client_traces,
                                       session.client_traces):
            assert len(reference) == len(streamed)
            assert list(reference.times) == list(streamed)

    def test_oversized_intervals_keep_exact_counts(self):
        spec = WorkloadSpec(name="big", high_rate=400.0, low_rate=50.0,
                            target_requests=3 * PIECE_ARRIVALS,
                            duration_s=900.0)
        session = StreamedWorkload(spec=spec, seed=SEED).open()
        counts = [sum(1 for _ in trace) for trace in session.client_traces]
        assert sum(counts) == spec.target_requests

    def test_registered_scale_family(self):
        for name, total in (("w-1m", 1_000_000), ("w-10m", 10_000_000)):
            spec = workload_spec(name)
            assert spec.streamed and spec.family == "scale"
            assert spec.target_requests == total
            workload = standard_workload(name, seed=SEED)
            assert isinstance(workload, StreamedWorkload)
            assert workload.count == total

    def test_listing_groups_scale_family(self, capsys):
        from repro.experiments.runner import _print_listing
        _print_listing()
        output = capsys.readouterr().out
        assert "[scale]" in output
        scale_block = output.split("[scale]", 1)[1]
        assert "w-1m" in scale_block and "w-10m" in scale_block

    def test_streamed_cell_runs_end_to_end(self):
        from repro.core.planner import Planner
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        workload = standard_workload("w-1m", seed=SEED, scale=0.01)
        result = ServingBenchmark(seed=SEED).run(deployment, workload,
                                                 workload_scale=0.01)
        assert result.streaming
        assert result.total_requests == 10_000
        assert result.success_ratio > 0.5


class TestExactCapacity:
    def test_capacity_is_not_padded(self):
        for capacity in (0, 1, 7, 100):
            recorder = OutcomeRecorder(capacity)
            assert recorder._capacity == capacity

    def test_grow_from_zero(self):
        from repro.serving.records import RequestOutcome
        recorder = OutcomeRecorder(0)
        for index in range(40):
            outcome = RequestOutcome(request_id=index, client_id=0,
                                     send_time=float(index))
            recorder.register(outcome)
            outcome.completion_time = float(index) + 0.5
            outcome.success = True
            recorder.commit(outcome)
        table = recorder.table()
        assert table.count == 40
        assert bool(table.success.all())
