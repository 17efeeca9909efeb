"""Tests for the fault-injection subsystem (core/faults + platform wiring).

Four layers:

* **Spec**: `FaultSpec` / `RetryPolicy` construction from `ServiceConfig`
  knobs — inactive at the defaults, validated when set.
* **Pool**: `InstancePool.kill` semantics — any live state, O(1)
  counters exact, billing stopped at the kill, idempotent.
* **Platform**: crashes, outages, storms, transient errors, and load
  shedding on the real serverless / endpoint platforms, including the
  admission-model split (serverless re-queues in-flight work, endpoints
  fail it back to the client).
* **Determinism**: fault draws come from dedicated named streams, so a
  chaos cell is bit-identical across worker pools, and the SLO
  reductions read a known timeline correctly.
"""

import math

import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.executor import Executor
from repro.core.faults import (
    BACKOFF_STREAM,
    FaultInjector,
    FaultSpec,
    OutageWindow,
    RetryPolicy,
)
from repro.core.planner import Planner
from repro.platforms.base import build_platform
from repro.platforms.pool import InstancePool, InstanceState
from repro.serving.deployment import ServiceConfig
from repro.serving.outcome_table import OutcomeRecorder, OutcomeTable
from repro.serving.records import RequestOutcome
from repro.sim import Environment, RandomStreams
from repro.workload.requests import RequestPool

SEED = 5


def run_platform(deployment, workload, seed=SEED):
    """Run a cell and return (platform, table) for fleet introspection.

    `ServingBenchmark.run` does not expose the platform, and these
    tests assert on pool counters (`killed`, `ready`, ...) after the
    run, so they drive the executor directly the way the benchmark does.
    """
    env = Environment()
    rng = RandomStreams(seed)
    platform = build_platform(env, deployment, rng=rng)
    pool = RequestPool(sample_payload_mb=deployment.model.input_payload_mb,
                       pool_size=workload.spec.request_pool_size, seed=seed)
    executor = Executor(env=env, platform=platform, workload=workload,
                        request_pool=pool, rng=rng)
    table = executor.run(until=workload.spec.duration_s + 400.0)
    table.fail_unfinished(workload.spec.duration_s + 400.0)
    return platform, table


def error_counts(table):
    counts = {}
    for error in table.error_strings():
        if error:
            counts[error] = counts.get(error, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_default_config_builds_no_spec(self):
        assert FaultSpec.from_config(ServiceConfig()) is None

    def test_each_knob_activates_the_spec(self):
        for overrides in ({"crash_mtbf_s": 60.0},
                          {"outage_start_s": 10.0},
                          {"storm_times_s": (5.0,)},
                          {"request_error_rate": 0.1}):
            spec = FaultSpec.from_config(ServiceConfig(**overrides))
            assert spec is not None and spec.active, overrides

    def test_outage_window_covers_half_open_interval(self):
        window = OutageWindow(start_s=10.0, duration_s=5.0)
        assert window.end_s == 15.0
        assert not window.covers(9.999)
        assert window.covers(10.0)
        assert window.covers(14.999)
        assert not window.covers(15.0)

    def test_config_validates_fault_knobs(self):
        for bad in ({"crash_mtbf_s": 0.0},
                    {"outage_start_s": -1.0},
                    {"outage_fraction": 1.5},
                    {"request_error_rate": 1.0},
                    {"retry_attempts": 0},
                    {"request_timeout_s": 0.0},
                    {"shed_watermark": -1},
                    {"storm_times_s": (-5.0,)}):
            with pytest.raises(ValueError):
                ServiceConfig(**bad)

    def test_storm_times_are_hashable(self):
        config = ServiceConfig(storm_times_s=[5.0, 10.0])
        assert config.storm_times_s == (5.0, 10.0)
        hash(config)


class TestRetryPolicy:
    def test_disabled_below_two_attempts(self):
        assert RetryPolicy.from_config(ServiceConfig()) is None
        policy = RetryPolicy.from_config(ServiceConfig(retry_attempts=3))
        assert policy is not None and policy.attempts == 3

    def test_backoff_is_capped_jittered_exponential(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.1, max_delay_s=0.4)
        rng = RandomStreams(SEED)
        for attempt in range(1, 6):
            ceiling = min(0.4, 0.1 * 2 ** (attempt - 1))
            for _ in range(50):
                delay = policy.backoff(rng, attempt)
                assert 0.0 <= delay <= ceiling

    def test_backoff_uses_its_own_named_stream(self):
        policy = RetryPolicy(attempts=3, base_delay_s=0.1, max_delay_s=1.0)
        streams, reference = RandomStreams(SEED), RandomStreams(SEED)
        draws = [policy.backoff(streams, 2) for _ in range(5)]
        expected = [reference.uniform(BACKOFF_STREAM, 0.0, 0.2)
                    for _ in range(5)]
        assert draws == expected


# ---------------------------------------------------------------------------
# Pool kill semantics
# ---------------------------------------------------------------------------

class TestPoolKill:
    def _pool(self):
        return InstancePool(Environment(), keep_records=True)

    def test_kill_busy_instance_keeps_counters_exact(self):
        pool = self._pool()
        instance = pool.launch(warm=True)
        pool.mark_busy(instance)
        pool.env.run(until=10.0)
        pool.kill(instance)
        assert instance.state == InstanceState.RETIRED
        assert not instance.alive
        assert (pool.busy, pool.idle, pool.warming) == (0, 0, 0)
        assert (pool.alive, pool.ready) == (0, 0)
        assert (pool.retired, pool.killed) == (1, 1)

    def test_kill_covers_every_live_state(self):
        pool = self._pool()
        warming = pool.launch(warm=False)
        idle = pool.launch(warm=True)
        busy = pool.launch(warm=True)
        pool.mark_busy(busy)
        for instance in (warming, idle, busy):
            pool.kill(instance)
        assert (pool.warming, pool.idle, pool.busy, pool.alive) == (0, 0, 0, 0)
        assert pool.killed == 3

    def test_kill_stops_instance_hour_billing_at_kill_time(self):
        pool = self._pool()
        instance = pool.launch(warm=True)
        pool.env.run(until=30.0)
        pool.kill(instance)
        assert instance.retire_time == 30.0
        pool.env.run(until=100.0)
        assert pool.instance_seconds(end_time=100.0) == 30.0

    def test_kill_warming_instance_racing_concurrent_scale_out(self):
        # Chaos kills a warming instance while a second scale-out
        # launch is already in flight: the counters must track the two
        # instances independently and billing must stay exact for both.
        pool = self._pool()
        victim = pool.launch(warm=False)
        pool.env.run(until=1.0)
        replacement = pool.launch(warm=False)  # scale-out in flight
        pool.kill(victim)                      # strikes mid-bring-up
        assert (pool.warming, pool.alive) == (1, 1)
        assert (pool.killed, pool.retired) == (1, 1)
        pool.mark_ready(replacement)           # the in-flight launch lands
        assert (pool.warming, pool.idle, pool.ready) == (0, 1, 1)
        pool.env.run(until=10.0)
        pool.retire(replacement)
        # The victim billed [0 s, 1 s); the replacement [1 s, 10 s).
        assert pool.instance_seconds(end_time=10.0) == pytest.approx(10.0)

    def test_double_kill_and_kill_after_retire_are_noops(self):
        pool = self._pool()
        instance = pool.launch(warm=True)
        pool.kill(instance)
        pool.kill(instance)
        assert (pool.retired, pool.killed, pool.alive) == (1, 1, 0)
        retired = pool.launch(warm=True)
        pool.retire(retired)
        pool.kill(retired)
        assert pool.killed == 1


class TestInjectorUnits:
    def test_injector_skips_dead_instances(self):
        env = Environment()
        spec = FaultSpec(outage=OutageWindow(start_s=5.0, duration_s=5.0))
        pool = InstancePool(env, keep_records=True)
        killed = []
        injector = FaultInjector(env, spec, RandomStreams(SEED),
                                 kill=killed.append)
        instance = pool.launch(warm=True)
        injector.watch(instance)
        pool.retire(instance)  # dies of natural causes before the outage
        env.run(until=20.0)
        assert killed == []

    def test_storm_flushes_fire_in_order(self):
        env = Environment()
        spec = FaultSpec(storm_times_s=(4.0, 9.0))
        flushes = []
        injector = FaultInjector(env, spec, RandomStreams(SEED),
                                 kill=lambda instance: None,
                                 flush=lambda: flushes.append(env.now))
        injector.start()
        env.run(until=20.0)
        assert flushes == [4.0, 9.0]


# ---------------------------------------------------------------------------
# Platform integration
# ---------------------------------------------------------------------------

class TestServerlessFaults:
    def test_crashes_requeue_in_flight_work(self, tiny_w40):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless", crash_mtbf_s=20.0)
        platform, table = run_platform(deployment, tiny_w40)
        assert platform.pool.killed > 0
        # Pull-model admission: the crashed sandbox's request goes back
        # into the work queue, so no request is lost to the crash.
        notes = platform.meter.conservation_notes()
        assert notes["submitted"] == table.count
        assert notes["completed"] == int(table.success.sum())
        assert notes["submitted"] == (
            notes["completed"] + notes["failed"] + notes["rejected"]
            + notes["timed_out"] + notes["shed"])

    def test_storms_force_extra_cold_starts(self, tiny_w40):
        planner = Planner()
        quiet = planner.plan("aws", "mobilenet", "tf1.15", "serverless")
        stormy = planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                              storm_times_s=(10.0, 25.0))
        _, quiet_table = run_platform(quiet, tiny_w40)
        stormy_platform, stormy_table = run_platform(stormy, tiny_w40)
        assert stormy_platform.pool.killed > 0
        assert (int(stormy_table.cold_start.sum())
                > int(quiet_table.cold_start.sum()))

    def test_transient_errors_surface_and_retries_absorb_them(self, tiny_w40):
        planner = Planner()
        flaky = planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                             request_error_rate=0.1)
        _, flaky_table = run_platform(flaky, tiny_w40)
        flaky_errors = error_counts(flaky_table)
        assert flaky_errors.get("transient_error", 0) > 0
        resilient = planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                                 request_error_rate=0.1, retry_attempts=4)
        _, resilient_table = run_platform(resilient, tiny_w40)
        flaky_ratio = flaky_table.success.sum() / flaky_table.count
        resilient_ratio = (resilient_table.success.sum()
                           / resilient_table.count)
        assert resilient_ratio > flaky_ratio
        assert resilient_ratio > 0.99


class TestEndpointFaults:
    def test_outage_kills_fleet_and_sheds_load(self, tiny_w40):
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "managed_ml",
            outage_start_s=10.0, outage_duration_s=15.0,
            outage_fraction=1.0, shed_watermark=1)
        platform, table = run_platform(deployment, tiny_w40)
        assert platform.pool.killed > 0
        errors = error_counts(table)
        # Slot-model admission: in-flight work on the dead instance
        # fails back to the client, and the watermark sheds while no
        # instance is ready.
        assert errors.get("instance_crash", 0) > 0
        assert errors.get("shed", 0) > 0
        notes = platform.meter.finalize(
            pool=platform.pool, end_time=platform.env.now,
            queue=platform.queue).notes
        assert notes["submitted"] == (
            notes["completed"] + notes["failed"] + notes["rejected"]
            + notes["timed_out"] + notes["shed"])
        assert notes["shed"] == errors["shed"]

    def test_killed_instance_stops_billing_at_the_kill(self, tiny_w40):
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "cpu_server",
            outage_start_s=10.0, outage_duration_s=5.0, outage_fraction=1.0)
        platform, _table = run_platform(deployment, tiny_w40)
        killed = [record for record in platform.pool.records
                  if record.retire_time is not None]
        assert killed
        assert all(record.retire_time >= 10.0 for record in killed)
        # Accrual caps at the kill, not the end of the run.
        horizon = platform.env.now
        accrued = platform.pool.instance_seconds(end_time=horizon)
        naive = sum(horizon - record.launch_time
                    for record in platform.pool.records)
        assert accrued < naive

    def test_kill_during_warming_never_corrupts_counters(self, tiny_w40):
        # The outage window overlaps the autoscaler's relaunches, so
        # some kills land on WARMING instances whose bring-up completes
        # into nothing afterwards.
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "managed_ml",
            outage_start_s=5.0, outage_duration_s=40.0, outage_fraction=1.0)
        platform, _table = run_platform(deployment, tiny_w40)
        pool = platform.pool
        states = {}
        for record in pool.records:
            states[record.state] = states.get(record.state, 0) + 1
        assert pool.warming == states.get(InstanceState.WARMING, 0)
        assert pool.idle == states.get(InstanceState.IDLE, 0)
        assert pool.busy == states.get(InstanceState.BUSY, 0)
        assert pool.retired == states.get(InstanceState.RETIRED, 0)
        assert pool.alive == pool.warming + pool.idle + pool.busy


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestFaultDeterminism:
    def test_chaos_cells_identical_across_worker_pool(self, tiny_w40):
        planner = Planner()
        deployments = [
            planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                         crash_mtbf_s=30.0, retry_attempts=3),
            planner.plan("aws", "mobilenet", "tf1.15", "managed_ml",
                         outage_start_s=10.0, outage_duration_s=15.0,
                         outage_fraction=1.0, shed_watermark=1,
                         retry_attempts=2),
            planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                         storm_times_s=(10.0, 25.0),
                         request_error_rate=0.05),
        ]
        bench = ServingBenchmark(seed=SEED)
        serial = bench.run_many(deployments, tiny_w40)
        parallel = bench.run_many(deployments, tiny_w40, workers=3)
        for left, right in zip(serial, parallel):
            assert left.table.column_hash() == right.table.column_hash()
            assert left.cost == right.cost

    def test_same_seed_same_chaos_different_seed_different_chaos(self, tiny_w40):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless", crash_mtbf_s=30.0)
        bench = ServingBenchmark(seed=SEED)
        first = bench.run(deployment, tiny_w40).table.column_hash()
        again = bench.run(deployment, tiny_w40).table.column_hash()
        other = ServingBenchmark(seed=SEED + 1).run(
            deployment, tiny_w40).table.column_hash()
        assert first == again
        assert first != other


# ---------------------------------------------------------------------------
# SLO reductions
# ---------------------------------------------------------------------------

class TestSLOReductions:
    def _table(self, rows):
        """Build a table from (send_time, success) pairs, 0.5 s latency."""
        recorder = OutcomeRecorder(len(rows))
        for index, (send, success) in enumerate(rows):
            outcome = RequestOutcome(request_id=index, client_id=0,
                                     send_time=send)
            recorder.register(outcome)
            outcome.finish(send + 0.5, success,
                           "" if success else "instance_crash")
            recorder.commit(outcome)
        return recorder.table()

    def test_slo_attainment_counts_failures_against_the_target(self):
        table = self._table([(0.0, True), (1.0, True),
                             (2.0, False), (3.0, False)])
        assert table.slo_attainment(1.0) == 0.5
        assert table.slo_attainment(0.1) == 0.0

    def test_empty_table_is_vacuously_healthy(self):
        table = self._table([])
        assert table.slo_attainment(1.0) == 1.0
        assert table.availability() == 1.0

    def test_availability_counts_dark_bins(self):
        # Bins of 10 s over [0, 50): healthy, dead, empty, healthy, dead.
        rows = ([(1.0, True), (2.0, True)]
                + [(11.0, False), (12.0, False)]
                + [(31.0, True)]
                + [(41.0, False), (42.0, True), (43.0, False)])
        table = self._table(rows)
        assert table.availability(bin_s=10.0) == pytest.approx(3 / 5)
        with pytest.raises(ValueError):
            table.availability(bin_s=0.0)

    def test_time_to_recover_finds_first_healthy_bin(self):
        rows = [(5.0, True), (15.0, False), (25.0, False), (35.0, True)]
        table = self._table(rows)
        assert table.time_to_recover(10.0, bin_s=10.0) == 20.0
        # Already healthy at the probe time.
        assert table.time_to_recover(0.0, bin_s=10.0) == 0.0

    def test_time_to_recover_nan_when_never_healthy_again(self):
        rows = [(5.0, True), (15.0, False), (25.0, False)]
        table = self._table(rows)
        assert math.isnan(table.time_to_recover(10.0, bin_s=10.0))

    def test_time_to_recover_at_the_last_recorded_bin_is_finite(self):
        # The only healthy bin is the final one of the horizon: the
        # scan must reach it and report a finite gap, not the NaN
        # never-recovered sentinel.
        rows = [(5.0, True), (15.0, False), (25.0, False),
                (35.0, False), (45.0, True)]
        table = self._table(rows)
        ttr = table.time_to_recover(10.0, bin_s=10.0)
        assert not math.isnan(ttr)
        assert ttr == 30.0


class TestAttemptsColumn:
    def _table(self, attempts_per_row):
        recorder = OutcomeRecorder(len(attempts_per_row))
        for index, attempts in enumerate(attempts_per_row):
            outcome = RequestOutcome(request_id=index, client_id=0,
                                     send_time=float(index))
            recorder.register(outcome)
            outcome.attempts = attempts
            outcome.finish(index + 0.5, True)
            recorder.commit(outcome)
        return recorder.table()

    def test_recorder_commits_the_attempts_column(self):
        table = self._table([1, 3, 2])
        assert table.attempts.tolist() == [1, 3, 2]
        assert table.attempts_mean() == pytest.approx(2.0)
        assert int(table.attempts[1]) == 3

    def test_retry_free_attempts_preserve_historical_hashes(self):
        # An all-ones attempts column is the pre-column default: it
        # must hash identically to a table that never touched it.
        explicit = self._table([1, 1, 1])
        implicit_recorder = OutcomeRecorder(3)
        for index in range(3):
            outcome = RequestOutcome(request_id=index, client_id=0,
                                     send_time=float(index))
            implicit_recorder.register(outcome)
            outcome.finish(index + 0.5, True)
            implicit_recorder.commit(outcome)
        assert explicit.column_hash() == implicit_recorder.table().column_hash()

    def test_retried_attempts_are_part_of_the_digest(self):
        assert (self._table([1, 1]).column_hash()
                != self._table([1, 2]).column_hash())

    def test_packed_roundtrip_preserves_and_elides_attempts(self):
        retried = self._table([1, 4, 2])
        packed = retried.packed()
        assert "attempts" in packed
        rebuilt = OutcomeTable.from_packed(packed)
        assert rebuilt.attempts.tolist() == [1, 4, 2]
        assert rebuilt.column_hash() == retried.column_hash()
        plain = self._table([1, 1, 1])
        assert "attempts" not in plain.packed()
        assert (OutcomeTable.from_packed(plain.packed()).attempts.tolist()
                == [1, 1, 1])

    def test_retry_wrapper_commits_attempts_end_to_end(self, tiny_w40):
        deployment = Planner().plan(
            "aws", "mobilenet", "tf1.15", "serverless",
            request_error_rate=0.2, retry_attempts=4)
        _, table = run_platform(deployment, tiny_w40)
        assert int(table.attempts.max()) > 1
        assert table.attempts_mean() > 1.0
        # The headline reduction matches the raw column.
        assert table.attempts_mean() == pytest.approx(
            float(table.attempts.mean()))
