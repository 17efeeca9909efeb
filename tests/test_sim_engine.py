"""Unit tests for the discrete-event simulation engine."""

import random

import numpy as np
import pytest

from repro.sim import (EXPIRED, Environment, GuardQueue, Interrupt,
                       SimulationError, engine)
from repro.sim.engine import Race, Timeout


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_clock_cannot_start_elsewhere(self):
        with pytest.raises(TypeError):
            Environment(initial_time=float("nan"))

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

    def test_nan_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(float("nan"))

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

    def test_run_until_nan_rejected(self, env):
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=float("nan"))
        assert env.now == 0.0

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

    @pytest.mark.parametrize("trigger", ["succeed", "fail"])
    def test_trigger_fires_now_never_in_the_past(self, env, trigger):
        event = env.event()
        payload = "x" if trigger == "succeed" else RuntimeError("x")
        log = []

        def proc():
            yield 5.0
            with pytest.raises(TypeError):
                getattr(event, trigger)(payload, delay=-3.0)
            assert not event.triggered
            try:
                value = yield getattr(event, trigger)(payload)
            except RuntimeError as error:
                value = error
            log.append((env.now, value))

        env.process(proc())
        env.run()
        assert log == [(5.0, payload)]

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


class TestPlainSleeps:
    """``yield <float>``: a wait with no event object behind it."""

    @staticmethod
    def _clock_log(env, wait):
        log = []

        def proc():
            for delay in (1.0, 0.0, 2.5):
                yield wait(delay)
                log.append(env.now)

        env.process(proc())
        env.run()
        return log, env.events_processed

    def test_sleep_advances_clock_like_timeout(self):
        slept = self._clock_log(Environment(), lambda delay: delay)
        timed = Environment()
        assert slept == self._clock_log(timed, timed.timeout)
        assert slept == ([1.0, 1.0, 3.5], 3)

    def test_sleep_counted_once_in_events_processed(self, env):
        def proc():
            yield 1.0

        env.process(proc())
        env.run()
        assert env.events_processed == 1

    @pytest.mark.parametrize("first", ["sleep", "timeout"])
    def test_tie_with_timeout_pops_in_program_order(self, env, first):
        order = []

        def sleeper():
            yield 1.0
            order.append("sleep")

        def waiter():
            yield env.timeout(1.0)
            order.append("timeout")

        starts = {"sleep": sleeper, "timeout": waiter}
        second = "timeout" if first == "sleep" else "sleep"
        env.process(starts[first]())
        env.process(starts[second]())
        env.process(starts[first]())
        env.run()
        assert order == [first, second, first]

    def test_interrupt_during_sleep_matches_timeout(self):
        """Interrupt delivery and the stale entry behave as a Timeout's."""
        def scenario(use_sleep):
            env = Environment()
            log = []

            def victim():
                try:
                    yield 5.0 if use_sleep else env.timeout(5.0)
                except Interrupt as interrupt:
                    log.append(("caught", env.now, interrupt.cause))
                value = yield env.event()
                log.append(("resumed", env.now, value))

            def attacker(target):
                yield env.timeout(1.0)
                target.interrupt("stop")

            env.process(attacker(env.process(victim())))
            env.run()
            return log, env.events_processed

        slept = scenario(use_sleep=True)
        assert slept == scenario(use_sleep=False)
        assert slept[0][0] == ("caught", 1.0, "stop")

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_invalid_sleep_rejected(self, env, delay):
        def bad():
            yield 1.0
            yield delay

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    @pytest.mark.parametrize("delay", [1, True, np.float64(1.0)])
    def test_only_exact_float_sleeps(self, env, delay):
        def bad():
            yield delay

        with pytest.raises(SimulationError):
            env.process(bad())


def _guarded_program(seed, use_guards, delay=2.0):
    """Waiters guard events that a trigger succeeds at random times.

    Every time is a multiple of 0.5, so triggers tie exactly with
    deadlines and with other NORMAL entries.  ``use_guards`` picks a
    :class:`GuardQueue` or the ``Timeout`` + ``Race`` + ``cancel``
    pattern it replaces; both must give the same trajectory.
    """
    rnd = random.Random(seed)
    env = Environment()
    guards = GuardQueue(env, delay)
    pending = []
    log = []

    def waiter(pid):
        for _ in range(6):
            yield 0.5 * rnd.randrange(4)
            event = env.event()
            pending.append(event)
            if use_guards:
                guard = guards.arm(event)
                expired = (yield event) is EXPIRED
                if not expired:
                    guards.cancel(guard)
            else:
                deadline = env.timeout(delay)
                expired = (yield env.race(event, deadline)) is not event
                if not expired:
                    deadline.cancel()
            log.append((env.now, pid, expired, event.triggered))

    def trigger():
        for _ in range(30):
            yield 0.5 * rnd.randrange(6)
            live = [event for event in pending if not event.triggered]
            if live:
                rnd.choice(live).succeed()

    for pid in range(12):
        env.process(waiter(pid))
    for _ in range(6):
        env.process(trigger())
    env.run()
    return log, next(env._sequence)


class TestGuardQueue:
    SEEDS = range(6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_timeout_race_cancel(self, seed):
        guarded = _guarded_program(seed, use_guards=True)
        assert guarded == _guarded_program(seed, use_guards=False)

    def test_program_covers_every_outcome(self):
        outcomes = {(expired, triggered)
                    for seed in self.SEEDS
                    for _now, _pid, expired, triggered
                    in _guarded_program(seed, use_guards=True)[0]}
        # Served, expired, and expired over a same-instant trigger.
        assert outcomes == {(False, True), (True, False), (True, True)}

    @staticmethod
    def _waiter(env, guards, log, name, event, cancel=True):
        def proc():
            guard = guards.arm(event)
            value = yield event
            log.append((env.now, name, value is EXPIRED))
            if value is not EXPIRED and cancel:
                guards.cancel(guard)
        return env.process(proc())

    def test_cancel_non_head_guard(self, env):
        guards = GuardQueue(env, 5.0)
        log = []
        events = [env.event() for _ in range(3)]

        def start():
            for name, event in zip("abc", events):
                self._waiter(env, guards, log, name, event)
                yield 1.0

        def serve_b():
            yield 1.5
            events[1].succeed()

        env.process(start())
        env.process(serve_b())
        env.run()
        assert log == [(1.5, "b", False), (5.0, "a", True), (7.0, "c", True)]

    def test_arm_again_from_inside_a_firing(self, env):
        guards = GuardQueue(env, 2.0)
        log = []

        def proc():
            for _ in range(3):
                event = env.event()
                guards.arm(event)
                value = yield event
                log.append((env.now, value))

        env.process(proc())
        env.run()
        assert log == [(2.0, EXPIRED), (4.0, EXPIRED), (6.0, EXPIRED)]
        assert not guards._guards

    def test_interrupt_while_guarded_handler_cancels(self, env):
        guards = GuardQueue(env, 3.0)
        log = []

        def victim():
            event = env.event()
            guard = guards.arm(event)
            try:
                yield event
            except Interrupt as interrupt:
                guards.cancel(guard)
                log.append((env.now, interrupt.cause))
            yield 10.0
            log.append((env.now, "slept"))

        def attacker(target):
            yield 1.0
            target.interrupt("kill")

        env.process(attacker(env.process(victim())))
        env.run()
        assert log == [(1.0, "kill"), (11.0, "slept")]

    def test_stale_tick_resumes_nothing(self, env):
        guards = GuardQueue(env, 4.0)
        log = []
        event = env.event()
        self._waiter(env, guards, log, "a", event)

        def serve():
            yield 1.0
            event.succeed()

        env.process(serve())
        env.run(until=2.0)
        assert log == [(1.0, "a", False)] and not guards._guards
        assert env.peek() == 4.0  # the stale tick is still on the calendar
        processed = env.events_processed
        env.run()
        assert log == [(1.0, "a", False)]
        assert env.now == 4.0 and env.events_processed == processed + 1
        assert env.peek() == float("inf")

    def test_guard_outliving_its_processed_event_raises(self, env):
        guards = GuardQueue(env, 4.0)
        log = []
        event = env.event()
        self._waiter(env, guards, log, "a", event, cancel=False)

        def serve():
            yield 1.0
            event.succeed()

        env.process(serve())
        with pytest.raises(SimulationError, match="processed event"):
            env.run()
        assert log == [(1.0, "a", False)]

    def test_arm_outside_a_process_raises(self, env):
        with pytest.raises(SimulationError):
            GuardQueue(env, 1.0).arm(env.event())

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_invalid_delay_rejected(self, env, delay):
        with pytest.raises(SimulationError):
            GuardQueue(env, delay)
