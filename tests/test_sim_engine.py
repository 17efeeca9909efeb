"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError, engine
from repro.sim.engine import Race, Timeout


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_timeout_advances_clock(self, env):
        log = []

        def proc():
            yield env.timeout(5.0)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [5.0]

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_run_until_stops_early(self, env):
        log = []

        def proc():
            yield env.timeout(10.0)
            log.append("late")

        env.process(proc())
        env.run(until=5.0)
        assert log == []
        assert env.now == 5.0

    def test_run_until_before_now_rejected(self, env):
        env.run(until=3.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_events_processed_in_time_order(self, env):
        order = []

        def proc(delay, name):
            yield env.timeout(delay)
            order.append(name)

        env.process(proc(3.0, "c"))
        env.process(proc(1.0, "a"))
        env.process(proc(2.0, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, env):
        order = []

        def proc(name):
            yield env.timeout(1.0)
            order.append(name)

        for name in "abc":
            env.process(proc(name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_timeout_carries_value(self, env):
        seen = []

        def proc():
            value = yield env.timeout(1.0, value="payload")
            seen.append(value)

        env.process(proc())
        env.run()
        assert seen == ["payload"]

    def test_peek_reports_next_event_time(self, env):
        env.timeout(4.0)
        assert env.peek() == 4.0

    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_step_without_events_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestEvents:
    def test_event_succeed_delivers_value(self, env):
        event = env.event()
        received = []

        def waiter():
            value = yield event
            received.append(value)

        def trigger():
            yield env.timeout(2.0)
            event.succeed(42)

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert received == [42]

    def test_event_cannot_trigger_twice(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_event_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_failed_event_raises_in_process(self, env):
        event = env.event()
        caught = []

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        def trigger():
            yield env.timeout(1.0)
            event.fail(RuntimeError("boom"))

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert caught == ["boom"]

    def test_unhandled_failure_propagates(self, env):
        def failing():
            yield env.timeout(1.0)
            raise ValueError("unhandled")

        env.process(failing())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()


class TestProcesses:
    def test_process_return_value(self, env):
        def child():
            yield env.timeout(1.0)
            return "done"

        results = []

        def parent():
            value = yield env.process(child())
            results.append(value)

        env.process(parent())
        env.run()
        assert results == ["done"]

    def test_process_is_alive_until_finished(self, env):
        def child():
            yield env.timeout(5.0)

        proc = env.process(child())
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yield_non_event_rejected_at_process_creation(self, env):
        """The first step runs inline, so a bad first yield surfaces at
        the env.process() call itself, not later inside run()."""
        def bad():
            yield 42

        with pytest.raises(SimulationError):
            env.process(bad())

    def test_yield_non_event_rejected_after_first_step(self, env):
        def bad():
            yield env.timeout(1.0)
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_first_step_runs_inline(self, env):
        log = []

        def proc():
            log.append(env.now)
            yield env.timeout(1.0)
            log.append(env.now)

        env.process(proc())
        assert log == [0.0]  # first segment already ran
        env.run()
        assert log == [0.0, 1.0]

    def test_inline_start_restores_active_process(self, env):
        observed = []

        def child():
            yield env.timeout(1.0)

        def parent():
            env.process(child())
            observed.append(env.active_process)
            yield env.timeout(2.0)

        parent_proc = env.process(parent())
        env.run()
        assert observed == [parent_proc]

    def test_interrupt_reaches_process(self, env):
        caught = []

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                caught.append(interrupt.cause)

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt("stop")

        victim_proc = env.process(victim())
        env.process(attacker(victim_proc))
        env.run()
        assert caught == ["stop"]

    def test_interrupt_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1.0)

        proc = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_nested_processes(self, env):
        trace = []

        def grandchild():
            yield env.timeout(1.0)
            trace.append("grandchild")
            return 3

        def child():
            value = yield env.process(grandchild())
            trace.append("child")
            return value * 2

        def parent():
            value = yield env.process(child())
            trace.append(("parent", value))

        env.process(parent())
        env.run()
        assert trace == ["grandchild", "child", ("parent", 6)]


class TestConditions:
    def test_condition_classes_exported(self):
        assert Race is not None and Timeout is not None
        assert {"Race", "Timeout"} <= set(engine.__all__)
        assert "AnyOf" not in engine.__all__ and "AllOf" not in engine.__all__
