"""Golden-hash determinism tests for the columnar outcome pipeline.

The columnar rework leans on two exact-equivalence guarantees:

* block-buffered random draws serve the *same per-stream sequence* as
  scalar draws, at any block size (``RandomStreams`` pre-draws standard
  variates and scales them with the exact operations numpy applies
  internally);
* parallel cells are bit-identical to serial cells (every cell reseeds
  its own streams, and the packed transport encoding is lossless).

Both are asserted here as SHA-256 hashes over every outcome column of a
fixed-seed w-40 cell — if any draw, any completion time, or any stage
attribution shifts by one ULP, the hashes diverge.
"""

import pickle

import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.planner import Planner
from repro.serving.outcome_table import OutcomeTable
from repro.sim import RandomStreams
from repro.workload.generator import standard_workload

SEED = 5


def _outcome_objects(table):
    """One ``RequestOutcome`` per row: the object-per-request layout the
    columns replaced, rebuilt here only to measure its pickle size."""
    from repro.serving.outcome_table import STAGE_ORDER
    from repro.serving.records import RequestOutcome
    outcomes = []
    for index in range(table.count):
        completion = float(table.completion_time[index])
        instance = int(table.instance_id[index])
        outcomes.append(RequestOutcome(
            request_id=int(table.request_id[index]),
            client_id=int(table.client_id[index]),
            send_time=float(table.send_time[index]),
            completion_time=None if completion != completion else completion,
            success=bool(table.success[index]),
            error=table.error_names[int(table.error_code[index])],
            cold_start=bool(table.cold_start[index]),
            instance_id=None if instance < 0 else instance,
            billed_duration_s=float(table.billed_duration_s[index]),
            inferences=int(table.inferences[index]),
            breakdown={name: float(seconds) for name, seconds
                       in zip(STAGE_ORDER, table.stages[index]) if seconds},
            attempts=int(table.attempts[index]),
            served_by=int(table.served_by[index]),
        ))
    return outcomes


@pytest.fixture(scope="module")
def w40_cell():
    return (Planner().plan("aws", "mobilenet", "tf1.15", "serverless"),
            standard_workload("w-40", seed=SEED, scale=0.05))


def _run_hash(deployment, workload, block_size):
    bench = ServingBenchmark(seed=SEED, rng_block_size=block_size)
    return bench.run(deployment, workload).table.column_hash()


class TestBlockSizeInvariance:
    def test_buffered_draws_match_unbuffered_run(self, w40_cell):
        """Identical outcome columns before/after block-buffered draws."""
        deployment, workload = w40_cell
        unbuffered = _run_hash(deployment, workload, block_size=1)
        for block_size in (7, 1024):
            assert _run_hash(deployment, workload, block_size) == unbuffered

    def test_stream_sequences_identical_at_any_block_size(self):
        for block_size in (3, 256):
            reference = RandomStreams(SEED, block_size=1)
            streams = RandomStreams(SEED, block_size=block_size)
            for _ in range(600):
                assert (streams.lognormal_around("jitter", 0.05, 0.08)
                        == reference.lognormal_around("jitter", 0.05, 0.08))
                assert (streams.exponential("dwell", 2.0)
                        == reference.exponential("dwell", 2.0))
                assert (streams.uniform("pull", 0.0, 1.0)
                        == reference.uniform("pull", 0.0, 1.0))
                assert (streams.choice("pick", 200)
                        == reference.choice("pick", 200))

    def test_lognormal_sum_matches_repeated_draws(self):
        summed = RandomStreams(SEED)
        repeated = RandomStreams(SEED)
        for count in (1, 2, 5):
            expected = sum(repeated.lognormal_around("x", 0.1, 0.2)
                           for _ in range(count))
            assert summed.lognormal_sum("x", 0.1, 0.2, count) == expected


class TestSerialParallelEquality:
    def test_worker_pool_produces_identical_columns(self, w40_cell):
        """Fixed-seed serial and workers=4 runs: bit-identical columns."""
        _deployment, workload = w40_cell
        planner = Planner()
        deployments = [planner.plan("aws", "mobilenet", "tf1.15", platform)
                       for platform in ("serverless", "cpu_server",
                                        "managed_ml", "gpu_server")]
        bench = ServingBenchmark(seed=SEED)
        serial = bench.run_many(deployments, workload)
        parallel = bench.run_many(deployments, workload, workers=4)
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost
            assert left.duration_s == right.duration_s
            assert left.usage.cold_starts == right.usage.cold_starts


class TestSeedAxisDeterminism:
    """The replication layer's exact-equivalence guarantees.

    A replicated sweep pins one seed per cell (``ScenarioSpec.seed``)
    and routes it through the run cache and the worker pool; these tests
    assert, via the same column hashes as above, that (a) pinning the
    runner's own seed changes nothing — replicate 0 of a K-replicate
    sweep is bit-identical to the unreplicated cell — and (b) fanning
    replicate cells over workers is bit-identical to running them
    serially.
    """

    def test_pinned_seed_matches_benchmark_seed_run(self, w40_cell):
        """seed=SEED override == the plain run at benchmark seed SEED."""
        deployment, workload = w40_cell
        bench = ServingBenchmark(seed=SEED)
        plain = bench.run(deployment, workload)
        pinned = bench.run(deployment, workload, seed=SEED)
        assert pinned.table.column_hash() == plain.table.column_hash()
        assert pinned.cost == plain.cost

    def test_replicate_zero_is_bit_identical_to_unreplicated_cell(self):
        """Sweep(seeds=(context seed,)) reproduces the plain study cell."""
        from repro.api import ScenarioSpec, Study, Sweep, run_study

        base = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        plain = run_study(Study(name="plain", sweeps=Sweep(
            name="plain", base=base)), seed=SEED, scale=0.05)
        single = run_study(Study(name="single", sweeps=Sweep(
            name="single", base=base, seeds=(SEED,))), seed=SEED, scale=0.05)
        replicated = run_study(Study(name="rep", sweeps=Sweep(
            name="rep", base=base, replicates=3)), seed=SEED, scale=0.05)
        reference = plain.row(0)
        for frame in (single, replicated.where(replicate=0)):
            row = frame.row(0)
            assert row["seed"] == SEED
            for metric in ("requests", "success_ratio", "avg_latency_s",
                           "p99_latency_s", "cost_usd", "cold_starts",
                           "duration_s"):
                assert row[metric] == reference[metric], metric

    def test_replicated_worker_fanout_matches_serial(self):
        """workers=4 replicate cells: same golden hashes as serial."""
        from repro.core.scenario import ScenarioSpec
        from repro.experiments.base import ExperimentContext

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        specs = [spec.with_seed(SEED + r, name=f"det/r{r}")
                 for r in range(4)]

        def run_all(workers):
            context = ExperimentContext(seed=SEED, scale=0.05,
                                        workers=workers)
            context.prefetch_specs(specs)
            return [context.run_scenario(s) for s in specs]

        serial = run_all(workers=0)
        parallel = run_all(workers=4)
        hashes = set()
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost
            hashes.add(left.table.column_hash())
        # The seeds genuinely vary the runs: all four hashes distinct.
        assert len(hashes) == len(specs)

    def test_seed_travels_in_cell_key(self):
        from repro.core.scenario import ScenarioSpec

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        assert "seed=" not in spec.cell_key
        pinned = spec.with_seed(11)
        assert pinned.cell_key == spec.cell_key + "/seed=11"
        assert pinned.with_seed(None).cell_key == spec.cell_key
        assert pinned.as_row()["seed"] == 11

    def test_fidelity_travels_in_cell_key(self):
        from repro.core.scenario import ScenarioSpec

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        assert "fidelity=" not in spec.cell_key
        short = spec.with_seed(11).with_fidelity(0.25)
        assert short.cell_key == spec.cell_key + "/seed=11/fidelity=0.25"
        assert short.as_row()["fidelity"] == 0.25
        # Full length normalises to None, so full-fidelity cell keys are
        # unchanged from before the knob existed.
        assert spec.with_fidelity(1.0).cell_key == spec.cell_key
        assert spec.with_fidelity(None).cell_key == spec.cell_key
        with pytest.raises(ValueError, match="fidelity"):
            spec.with_fidelity(0.0)
        with pytest.raises(ValueError, match="fidelity"):
            spec.with_fidelity(1.5)


class TestFidelityDeterminism:
    """Rung-0 short-horizon cells are ordinary cells, bit for bit.

    The halving search's cache-reuse story rests on this: a spec pinned
    to ``fidelity=f`` must produce byte-identical outcome columns to the
    same spec run through :func:`repro.api.run` with the scale folded by
    hand — serially and through the worker pool.
    """

    FIDELITY = 0.5
    SCALE = 0.1

    def test_rung0_cell_matches_api_run_at_same_fidelity(self):
        """spec@fidelity through api.run == hand-folded scale, same hashes."""
        from repro.api import ScenarioSpec, run

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet",
                            seed=SEED)
        rung0 = run(spec.with_fidelity(self.FIDELITY), seed=SEED,
                    scale=self.SCALE)
        folded = run(spec, seed=SEED, scale=self.SCALE * self.FIDELITY)
        assert rung0.table.column_hash() == folded.table.column_hash()
        assert rung0.cost == folded.cost
        assert rung0.workload_scale == folded.workload_scale

    def test_rung0_context_run_matches_api_run(self):
        """The context path (run cache, prefetch) == the api.run path."""
        from repro.api import ScenarioSpec, run
        from repro.experiments.base import ExperimentContext

        spec = ScenarioSpec(name="det", provider="aws", model="mobilenet",
                            seed=SEED).with_fidelity(self.FIDELITY)
        context = ExperimentContext(seed=SEED, scale=self.SCALE)
        via_context = context.run_scenario(spec)
        via_api = run(spec, seed=SEED, scale=self.SCALE)
        assert via_context.table.column_hash() == via_api.table.column_hash()
        assert via_context.cost == via_api.cost

    def test_rung0_worker_fanout_matches_serial(self):
        """Short-horizon cells over workers=2: same golden hashes."""
        from repro.core.scenario import ScenarioSpec
        from repro.experiments.base import ExperimentContext

        base = ScenarioSpec(name="det", provider="aws", model="mobilenet")
        specs = [base.with_seed(SEED + r, name=f"det/r{r}")
                 .with_fidelity(self.FIDELITY) for r in range(3)]

        def run_all(workers):
            context = ExperimentContext(seed=SEED, scale=self.SCALE,
                                        workers=workers)
            context.prefetch_specs(specs)
            return [context.run_scenario(s) for s in specs]

        serial = run_all(workers=0)
        parallel = run_all(workers=2)
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost


class TestPackedTransport:
    def test_packed_round_trip_is_lossless(self, w40_cell):
        deployment, workload = w40_cell
        result = ServingBenchmark(seed=SEED).run(deployment, workload)
        wire = pickle.dumps(result.table.packed())
        restored = OutcomeTable.from_packed(pickle.loads(wire))
        assert restored.column_hash() == result.table.column_hash()

    def test_packed_is_smaller_than_object_pickles(self, w40_cell):
        deployment, workload = w40_cell
        result = ServingBenchmark(seed=SEED).run(deployment, workload)
        packed = len(pickle.dumps(result.to_transport()))
        legacy = len(pickle.dumps(_outcome_objects(result.table)))
        # The margin widens with request count (per-table overhead is
        # constant); at this tiny 750-request cell it is already ~1.9x.
        assert packed < legacy * 0.6


class TestLateAndPartialCommits:
    def test_timed_out_requests_keep_serve_side_fields(self, monkeypatch,
                                                       w40_cell):
        """A request served *after* its client gave up still records the
        instance assignment, billed duration, and predict stage (the
        platform re-commits the row through the executor's sink)."""
        import repro.platforms.serverless as serverless_module
        monkeypatch.setattr(serverless_module, "_FUNCTION_TIMEOUT_S", 0.05)
        deployment, workload = w40_cell
        result = ServingBenchmark(seed=SEED).run(deployment, workload)
        table = result.table
        timeout_code = table.error_names.index("timeout")
        timed_out = table.error_code == timeout_code
        assert timed_out.any()
        served_late = timed_out & (table.instance_id >= 0)
        assert served_late.any()
        assert (table.billed_duration_s[served_late] > 0).all()
        assert (table.stage_column("predict")[served_late] > 0).all()

    def test_unfinished_requests_keep_partial_stages(self):
        """Registered-but-never-completed rows flush their accrued state."""
        from repro.serving.outcome_table import OutcomeRecorder
        from repro.serving.records import RequestOutcome, Stage

        recorder = OutcomeRecorder(capacity=2)
        outcome = RequestOutcome(request_id=0, client_id=0, send_time=1.0)
        recorder.register(outcome)
        outcome.add_stage(Stage.NETWORK, 0.25)
        outcome.instance_id = 3
        table = recorder.table()
        assert table.stage_column(Stage.NETWORK)[0] == 0.25
        assert table.instance_id[0] == 3
        assert table.completion_time[0] != table.completion_time[0]  # NaN


class TestObjectViewConsistency:
    def test_metrics_match_object_view(self, w40_cell):
        """Masked reductions agree with plain-Python reference arithmetic
        over the columns as lists."""
        deployment, workload = w40_cell
        result = ServingBenchmark(seed=SEED).run(deployment, workload)
        table = result.table
        success = table.success.tolist()
        latency = (table.completion_time - table.send_time).tolist()
        cold_start = table.cold_start.tolist()
        assert result.total_requests == len(success)
        successes = [i for i, ok in enumerate(success) if ok]
        assert result.success_ratio == len(successes) / len(success)
        assert result.average_latency == pytest.approx(
            sum(latency[i] for i in successes) / len(successes))
        cold = sum(1 for i in successes if cold_start[i])
        assert result.cold_start_ratio == cold / len(successes)
        # Stage attributions are non-negative.
        for row in table.stages[:50].tolist():
            for seconds in row:
                assert seconds >= 0.0
