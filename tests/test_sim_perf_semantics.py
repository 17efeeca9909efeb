"""Semantics guarded by the fast-path engine optimisations.

The hot-path rework (tombstone cancellation, direct process resumption,
O(1) platform accounting, parallel cell fan-out) must not change any
observable behaviour.  These tests pin down the contracts:

* :meth:`Event.cancel` semantics before/after processing and inside
  :meth:`Environment.race`, including tombstone reclamation.
* The serverless platform's O(1) alive counter agrees with a
  brute-force scan over every instance ever created.
* ``run_matrix(workers=N)`` returns results identical to serial mode.
"""

import pytest

from repro.core.benchmark import ServingBenchmark
from repro.core.executor import Executor
from repro.core.planner import Planner
from repro.platforms.serverless import ServerlessPlatform
from repro.sim import Environment, RandomStreams, SimulationError
from repro.workload.generator import standard_workload
from repro.workload.requests import RequestPool


class TestCancellableTimers:
    def test_cancel_before_trigger_time_suppresses_callbacks(self, env):
        fired = []
        timeout = env.timeout(5.0)
        timeout.callbacks.append(lambda event: fired.append(env.now))
        assert timeout.cancel() is True
        assert timeout.cancelled
        env.timeout(10.0)  # keep the run going past the cancelled entry
        env.run()
        assert fired == []
        assert env.now == 10.0

    def test_cancel_after_processed_is_noop(self, env):
        timeout = env.timeout(1.0)
        env.run()
        assert timeout.processed
        assert timeout.cancel() is False
        assert not timeout.cancelled

    def test_cancel_returns_false_on_second_call(self, env):
        timeout = env.timeout(1.0)
        assert timeout.cancel() is True
        assert timeout.cancel() is False

    def test_cancelled_event_cannot_be_triggered(self, env):
        event = env.event()
        event.cancel()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("boom"))

    def test_cancel_loser_of_any_of_race(self, env):
        """The platform pattern: cancel the guard timer after winning."""
        log = []

        def proc():
            fast = env.timeout(1.0, value="fast")
            guard = env.timeout(300.0, value="guard")
            winner = yield env.race(fast, guard)
            assert winner is fast
            guard.cancel()
            log.append(env.now)

        env.process(proc())
        env.run()
        # The dead 300 s guard must not extend the run.
        assert log == [1.0]
        assert env.now < 300.0

    def test_cancel_member_before_any_of_fires(self, env):
        results = []

        def proc():
            early = env.timeout(2.0, value="early")
            late = env.timeout(8.0, value="late")
            early.cancel()
            winner = yield env.race(early, late)
            results.append((env.now, winner is early, winner is late))

        env.process(proc())
        env.run()
        # The cancelled member never counts as fired.
        assert results == [(8.0, False, True)]

    def test_yield_cancelled_event_rejected(self, env):
        timeout = env.timeout(1.0)
        timeout.cancel()

        def proc():
            yield timeout

        # The first step runs inline, so yielding a cancelled event as
        # the first yield is rejected at the env.process() call itself.
        with pytest.raises(SimulationError):
            env.process(proc())

    def test_yield_cancelled_event_rejected_mid_process(self, env):
        timeout = env.timeout(1.0)
        timeout.cancel()

        def proc():
            yield env.timeout(0.5)
            yield timeout

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_tombstones_are_reclaimed(self, env):
        """Mass cancellation must not leave the heap full of corpses."""
        timeouts = [env.timeout(100.0 + i) for i in range(500)]
        for timeout in timeouts:
            timeout.cancel()
        # Compaction keeps the calendar proportional to live entries.
        assert len(env._queue) < 200
        env.timeout(1.0)
        env.run()
        assert env.now == pytest.approx(1.0)

    def test_peek_skips_tombstones(self, env):
        first = env.timeout(1.0)
        env.timeout(5.0)
        first.cancel()
        assert env.peek() == 5.0

    def test_step_skips_tombstones(self, env):
        first = env.timeout(1.0)
        env.timeout(5.0)
        first.cancel()
        env.step()
        assert env.now == 5.0


class TestAliveCounterConsistency:
    def _run_serverless(self, monkeypatch, workload):
        """Run one serverless experiment, capturing every instance."""
        tracked = []
        original = ServerlessPlatform._instance_loop

        def spy(self, instance, prewarmed, first_request=None):
            tracked.append(instance)
            return original(self, instance, prewarmed, first_request)

        monkeypatch.setattr(ServerlessPlatform, "_instance_loop", spy)
        env = Environment()
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        platform = ServerlessPlatform(env, deployment,
                                      rng=RandomStreams(3))
        pool = RequestPool(
            sample_payload_mb=deployment.model.input_payload_mb,
            pool_size=workload.spec.request_pool_size, seed=3)
        executor = Executor(env=env, platform=platform, workload=workload,
                            request_pool=pool, rng=RandomStreams(3))
        executor.run(until=workload.spec.duration_s + 400.0)
        return platform, tracked

    def test_alive_counter_matches_brute_force_scan(self, monkeypatch,
                                                    tiny_w40):
        platform, tracked = self._run_serverless(monkeypatch, tiny_w40)
        assert tracked, "expected at least one instance"
        brute_force = sum(1 for instance in tracked if instance.alive)
        assert platform.pool.alive == brute_force
        assert platform.pool.created == len(tracked)
        # The gauge's last recorded value is the O(1) counter.
        assert platform.pool.gauge.value == platform.pool.alive

    def test_usage_counts_match_tracked_instances(self, monkeypatch,
                                                  tiny_w40):
        platform, tracked = self._run_serverless(monkeypatch, tiny_w40)
        usage = platform.finalize()
        assert usage.instances_created == len(tracked)
        assert usage.peak_instances <= len(tracked)
        assert usage.peak_instances >= 1


class TestParallelEquality:
    def _key_metrics(self, result):
        return (result.total_requests, result.success_ratio,
                result.average_latency, result.cost,
                result.usage.instances_created, result.usage.cold_starts,
                result.table.completion_time.tolist())

    def test_run_matrix_parallel_identical_to_serial(self):
        planner = Planner()
        deployments = [planner.plan("aws", "mobilenet", "tf1.15", platform)
                       for platform in ("serverless", "cpu_server")]
        workloads = [standard_workload("w-40", seed=11, scale=0.04)]
        bench = ServingBenchmark(seed=11)
        serial = bench.run_matrix(deployments, workloads)
        parallel = bench.run_matrix(deployments, workloads, workers=4)
        assert serial.keys() == parallel.keys()
        for name in serial:
            assert len(serial[name]) == len(parallel[name])
            for left, right in zip(serial[name], parallel[name]):
                assert self._key_metrics(left) == self._key_metrics(right)

    def test_run_many_parallel_identical_to_serial(self):
        planner = Planner()
        deployments = [planner.plan("gcp", "mobilenet", "tf1.15", platform)
                       for platform in ("serverless", "managed_ml")]
        workload = standard_workload("w-40", seed=13, scale=0.04)
        bench = ServingBenchmark(seed=13)
        serial = bench.run_many(deployments, workload)
        parallel = bench.run_many(deployments, workload, workers=2)
        for left, right in zip(serial, parallel):
            assert self._key_metrics(left) == self._key_metrics(right)

    def test_run_records_events_processed(self, tiny_w40):
        deployment = Planner().plan("aws", "mobilenet", "tf1.15",
                                    "serverless")
        result = ServingBenchmark(seed=5).run(deployment, tiny_w40)
        assert result.metadata["events_processed"] > 0
