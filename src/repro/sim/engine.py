"""Core discrete-event simulation engine.

The engine follows the classic event-calendar design: a binary heap of
``(time, priority, sequence, event)`` entries is popped in order, each
popped event runs its callbacks, and callbacks may schedule further
events.  Processes are plain Python generators that ``yield`` events (or
a ``float`` delay, a plain sleep); the :class:`Process` wrapper resumes
the generator whenever the yielded event triggers.

The heap is the only calendar: live entries track concurrency, not
trace length (a full w-10m serverless cell peaks near 1.2k entries), so
an O(log n) push never outgrows it.

The engine is intentionally small but complete enough to model serving
platforms: timeouts, triggerable events, process interruption,
first-of-two races (:class:`Race`) and fixed-delay guard timers
(:class:`GuardQueue`, the deadline and keep-alive every request runs
under).

Performance notes
-----------------
This module is the hot path of every experiment (a full w-200 run pops
millions of calendar entries), so it trades a little uniformity for
speed:

* Every event class uses ``__slots__``; with hundreds of thousands of
  live events per run, per-instance ``__dict__`` allocation dominated
  both memory and attribute-access time.

* Process resumption has a dedicated fast path.  Interrupting a
  process and resuming it off an already-processed event used to
  allocate a throwaway :class:`Event` whose only job was to carry
  ``(ok, value)`` to :meth:`Process._resume`.  These now push a raw
  6-tuple ``(time, priority, sequence, process, ok, value)`` onto the
  calendar, and the scheduler resumes the generator directly.

* Plain sleeps: a wait nothing else observes is ``yield delay`` with
  an exact ``float`` delay (``yield 42`` is still an error; a negative
  or NaN delay raises :class:`SimulationError`).  :meth:`Process._step`
  pushes a raw resume entry, NORMAL priority, drawing its sequence
  number where ``env.timeout()`` would have, so the pop order is
  unchanged and no :class:`Timeout`, callbacks list or ``_resume``
  hop is paid.  After an interrupt the entry is still popped, counted
  and resumes the generator, exactly as a stale ``Timeout`` does.

* Starting a process runs its first step *inline*: the generator
  advances to its first ``yield`` within ``env.process()`` itself
  instead of through an URGENT calendar entry — one calendar entry per
  process saved.  The contract is that a new process's first segment
  runs synchronously, ahead of anything else scheduled at the current
  time.  For the common pattern (a segment that creates processes and
  otherwise only schedules NORMAL events) this is indistinguishable
  from the old URGENT-entry start, because the scheduler drains URGENT
  entries before resuming user code; the one observable difference is
  a segment that calls ``interrupt()`` (which enqueues an URGENT
  resume) *before* ``env.process()`` — the new process's first segment
  now runs before that interrupt is delivered, where it used to run
  after.  A corollary: yielding a non-event (or a cancelled event) as
  the *first* yield raises :class:`SimulationError` at the
  ``env.process()`` call site rather than later inside
  :meth:`Environment.run`.

Guard queues
------------
Request deadlines and keep-alives are :class:`GuardQueue` entries, not
``Timeout`` + ``Race`` pairs.  Every guard at one site shares one delay
and is armed at a non-decreasing ``now``, so deadline order is arm order
and the earliest live guard is the head of a FIFO.
:meth:`GuardQueue.arm` draws its sequence number where ``env.timeout()``
would have and appends ``[deadline, seq, process, event]``; the queue
keeps at most one raw calendar entry, the *tick*, keyed
``(deadline, NORMAL, seq)`` of the head it was pushed for.  When the
tick pops and that head is still queued, it fires: the process's
resume callback leaves the event and the process resumes with
:data:`EXPIRED`.  Either way the tick re-arms at the new head's own
key, never earlier than the pop, so pops happen exactly where the
``Timeout`` entries would have.  :meth:`GuardQueue.cancel` only marks
the guard dead and drops dead heads; a tick whose head was cancelled is
*stale*, resumes nothing and is counted in ``events_processed`` (about
one per delay window).

Tombstone cancellation
----------------------
Timers whose delay varies per request (hedge timers) or that carry
callbacks (fault timers) are ``Timeout`` events, cancellable via
lazy-deletion tombstones.  A binary heap cannot remove an arbitrary
entry cheaply, so :meth:`Event.cancel` does not touch the heap at all:
it marks the event cancelled, drops its callbacks, and leaves the entry
in place as a *tombstone*.  When the scheduler later pops a tombstone it
skips it without running callbacks or advancing ``events_processed``.
The environment counts outstanding tombstones and rebuilds the heap once
they outnumber the live entries, so a pathological cancel-heavy workload
stays O(live) in memory.  Cancellation semantics:

* ``cancel()`` on a pending entry returns ``True``; the callbacks never
  run, ``ok`` becomes ``None``, and ``cancelled`` is ``True``.
* ``cancel()`` on an already-processed event is a no-op returning
  ``False``.
* A cancelled event never wins a :class:`Race` (its ``ok`` is
  ``None``), and yielding a cancelled event from a process is a
  :class:`SimulationError`.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "Race",
    "GuardQueue",
    "EXPIRED",
    "Environment",
]

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent events (process resumption), processed before
#: ordinary events scheduled at the same simulated time.
URGENT = 0

#: Tombstone compaction threshold: never rebuild below this many.
_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An event that may be triggered once and then calls its callbacks.

    Events and ``float`` delays are all a process may ``yield``.  An
    event is *triggered* when a value (or an exception) has been
    scheduled for it, and *processed* once its callbacks have run.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_defused", "_cancelled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._defused = False
        self._cancelled = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to occur."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """Whether the event was withdrawn before its callbacks ran."""
        return self._cancelled

    @property
    def ok(self) -> Optional[bool]:
        """``True`` on success, ``False`` on failure, ``None`` if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if not self._triggered:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully at the current time."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if self._cancelled:
            raise SimulationError("event has been cancelled")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._sequence), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception at the current time."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if self._cancelled:
            raise SimulationError("event has been cancelled")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def cancel(self) -> bool:
        """Withdraw the event before its callbacks run (tombstone it).

        Returns ``True`` if the event was still pending and is now dead,
        ``False`` if its callbacks had already run (too late to cancel).
        The calendar entry, if any, stays in the heap as a tombstone and
        is skipped (and reclaimed) when the scheduler reaches it.
        """
        if self.callbacks is None:
            return False
        self.callbacks = None
        self._ok = None
        self._cancelled = True
        if self._triggered:
            env = self.env
            env._tombstones += 1
            if (env._tombstones > _MIN_TOMBSTONES
                    and env._tombstones * 2 > len(env._queue)):
                env._compact()
        return True

    # -- internal ---------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks is None:
            return
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self._cancelled else
                 "processed" if self.processed else
                 "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers after a fixed delay.

    A process that only waits yields a ``float`` delay instead (a plain
    sleep), and a guard whose delay is fixed per site is a
    :class:`GuardQueue` entry.  A ``Timeout`` is for waits that must be
    events: raced with a per-request delay (hedge timers), cancelled,
    carrying a value or given callbacks (fault timers).  A timer that
    usually loses its race should be :meth:`~Event.cancel`-ed by the
    winner so the calendar does not fill up with dead entries.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:
            raise SimulationError(f"invalid timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        heappush(env._queue,
                 (env._now + delay, NORMAL, next(env._sequence), self))


class Process(Event):
    """Wraps a generator and resumes it whenever the yielded event fires.

    The process itself is an event: it triggers when the generator returns
    (successfully, with the generator's return value) or raises.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator")
        Event.__init__(self, env)
        self._generator = generator
        # Run the first step inline: no calendar entry, and a bad first
        # yield (non-event) surfaces here, at the env.process() call.
        # _step() always leaves env._active_process at None, so the
        # caller's identity is restored explicitly (process creation may
        # happen inside another process's segment).
        outer = env._active_process
        try:
            self._step(True, None)
        finally:
            env._active_process = outer

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        self.env._schedule_resume(self, False, Interrupt(cause))

    # -- internal ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Callback interface: resume off a triggered event."""
        if event._ok:
            self._step(True, event._value)
        else:
            # Mark the failure as handled by this process.
            event._defused = True
            self._step(False, event._value)

    def _step(self, ok: bool, value: Any) -> None:
        """Advance the generator one yield with ``(ok, value)``."""
        env = self.env
        env._active_process = self
        try:
            if ok:
                result = self._generator.send(value)
            else:
                result = self._generator.throw(value)
        except StopIteration as stop:
            self._triggered = True
            self._ok = True
            self._value = stop.value
            env._active_process = None
            # Successful completion dispatches its waiters synchronously
            # instead of through an URGENT calendar entry: one entry per
            # request saved, and everyone interested has already attached
            # (attachment happens while the process is still pending).
            # Failures (below) still travel through the calendar so the
            # scheduler's unhandled-failure check can surface them.
            callbacks, self.callbacks = self.callbacks, None
            if callbacks:
                for callback in callbacks:
                    callback(self)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate as failure
            self._triggered = True
            self._ok = False
            self._value = exc
            env._active_process = None
            env._schedule(self, priority=URGENT)
            return
        env._active_process = None

        if result.__class__ is float:
            # Plain sleep: a raw resume entry, taking its sequence number
            # where env.timeout() would have.
            if not result >= 0:
                raise SimulationError(f"invalid sleep delay: {result!r}")
            heappush(env._queue, (env._now + result, NORMAL,
                                  next(env._sequence), self, True, None))
            return
        if not isinstance(result, Event):
            raise SimulationError(
                f"process yielded a non-event value: {result!r}")
        if result.callbacks is None:
            if result._cancelled:
                raise SimulationError("process yielded a cancelled event")
            # The event already happened; resume immediately without
            # allocating a fresh Event (the old slow path).
            env._schedule_resume(self, result._ok, result._value)
        else:
            result.callbacks.append(self._resume)


class Race(Event):
    """First of two events (a hedge timer against the primary attempt).

    ``Race`` triggers with the **winning event** as its value; a failed
    member fails the race (and is defused), and a cancelled member never
    wins.

    The win is handed to the race's waiters *synchronously*, inside the
    winning event's own callback cascade, instead of travelling through
    an extra calendar entry: the waiter resumes within the winner's pop,
    i.e. ahead of other events scheduled at the exact same timestamp.
    Only a race built over an already-processed winner triggers through
    the calendar.  Both events must belong to this environment.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, env: "Environment", a: Event, b: Event):
        Event.__init__(self, env)
        if a.env is not env or b.env is not env:
            raise SimulationError(
                "cannot mix events of different environments")
        self._a = a
        self._b = b
        # Already-processed failed members are defused at construction;
        # an already-processed ok member wins outright (through the
        # calendar).
        winner = None
        a_done = a.callbacks is None
        b_done = b.callbacks is None
        if a_done:
            if a._ok is False:
                a._defused = True
            elif a._ok:
                winner = a
        if b_done:
            if b._ok is False:
                b._defused = True
            elif winner is None and b._ok:
                winner = b
        if winner is not None:
            self.succeed(winner)
            return
        observe = self._observe
        if not a_done:
            a.callbacks.append(observe)
        if not b_done:
            b.callbacks.append(observe)

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if event._ok is False:
            event._defused = True
            self.fail(event._value)
            return
        # Synchronous win: trigger and run the waiters in place.
        self._triggered = True
        self._ok = True
        self._value = event
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


class _Expired:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EXPIRED"


#: What a guarded process resumes with when its guard fires first.
EXPIRED = _Expired()


class GuardQueue:
    """Guard timers of one owner that all share one fixed ``delay``.

    The active process arms the event it is about to yield; if the event
    is not processed ``delay`` seconds later, the process resumes with
    :data:`EXPIRED`.  The winner (or an interrupt handler) must cancel
    the guard: one firing over a processed event is an error.
    """

    __slots__ = ("env", "delay", "_guards", "_armed")

    def __init__(self, env: "Environment", delay: float):
        if not delay >= 0:
            raise SimulationError(f"invalid guard delay: {delay!r}")
        self.env = env
        self.delay = delay
        self._guards: deque = deque()
        self._armed = False

    def arm(self, event: Event) -> list:
        """Guard ``event`` for the active process; returns the guard."""
        env = self.env
        process = env._active_process
        if process is None:
            raise SimulationError("arm() must be called from a process")
        seq = next(env._sequence)
        guard = [env._now + self.delay, seq, process, event]
        self._guards.append(guard)
        if not self._armed:
            self._armed = True
            heappush(env._queue, (guard[0], NORMAL, seq, self, True, seq))
        return guard

    def cancel(self, guard: list) -> None:
        """Withdraw ``guard`` (a no-op once it has fired)."""
        guard[2] = None
        guards = self._guards
        while guards and guards[0][2] is None:
            guards.popleft()

    def _step(self, ok: bool, seq: int) -> None:
        """The tick: fire the head it was pushed for, then re-arm."""
        guards = self._guards
        fired = guards.popleft() if guards and guards[0][1] == seq else None
        while guards and guards[0][2] is None:
            guards.popleft()
        if guards:
            head = guards[0]
            heappush(self.env._queue,
                     (head[0], NORMAL, head[1], self, True, head[1]))
        else:
            self._armed = False
        if fired is not None:
            process, event = fired[2], fired[3]
            if event.callbacks is None:
                raise SimulationError(
                    "guard outlived its processed event (uncancelled)")
            event.callbacks.remove(process._resume)
            process._step(True, EXPIRED)


class Environment:
    """The simulation environment: clock, calendar, and process factory."""

    __slots__ = ("_now", "_queue", "_sequence", "_active_process",
                 "_tombstones", "events_processed")

    def __init__(self):
        self._now = 0.0
        self._queue: list = []
        self._sequence = count()
        self._active_process: Optional[Process] = None
        #: Cancelled entries still sitting in the heap (lazy deletion).
        self._tombstones = 0
        #: Number of calendar entries executed (tombstones excluded).
        self.events_processed = 0

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a new process, started at the current time."""
        return Process(self, generator)

    def race(self, a: Event, b: Event) -> Race:
        """First-of-two event (value = the winning event)."""
        return Race(self, a, b)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL) -> None:
        heappush(self._queue,
                 (self._now, priority, next(self._sequence), event))

    def _schedule_resume(self, process: Process, ok: bool, value: Any) -> None:
        """Fast path: resume ``process`` at the current time, no Event."""
        heappush(self._queue,
                 (self._now, URGENT, next(self._sequence), process, ok, value))

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (keeps memory O(live)).

        Rebuilds in place, because ``run()`` holds a local reference to
        the list.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if len(entry) == 6 or not entry[3]._cancelled]
        heapify(queue)
        self._tombstones = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the calendar is empty."""
        queue = self._queue
        while queue:
            entry = queue[0]
            if len(entry) == 4 and entry[3]._cancelled:
                heappop(queue)
                self._tombstones -= 1
                continue
            return entry[0]
        return float("inf")

    def step(self) -> None:
        """Process exactly one event from the calendar (skipping tombstones)."""
        queue = self._queue
        while queue:
            entry = heappop(queue)
            if len(entry) == 6:
                self._now = entry[0]
                self.events_processed += 1
                entry[3]._step(entry[4], entry[5])
                return
            event = entry[3]
            if event._cancelled:
                self._tombstones -= 1
                continue
            self._now = entry[0]
            self.events_processed += 1
            event._run_callbacks()
            if event._ok is False and not event._defused:
                # Unhandled failure: surface it rather than silently
                # dropping it.
                raise event._value
            return
        raise SimulationError("no more events to process")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar is exhausted or ``until`` is reached."""
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"until ({until!r}) must be a time >= now ({self._now!r})")
        # Inlined step() loop: popping, tombstone skipping, and callback
        # dispatch in one frame is worth ~25% wall-clock on full runs.
        limit = float("inf") if until is None else until
        queue = self._queue
        pop = heappop
        processed = 0
        try:
            while queue:
                if queue[0][0] > limit:
                    self._now = until
                    return
                entry = pop(queue)
                if len(entry) == 6:
                    self._now = entry[0]
                    processed += 1
                    entry[3]._step(entry[4], entry[5])
                    continue
                event = entry[3]
                if event._cancelled:
                    self._tombstones -= 1
                    continue
                self._now = entry[0]
                processed += 1
                callbacks = event.callbacks
                if callbacks is not None:
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
            if until is not None:
                self._now = until
        finally:
            self.events_processed += processed
