"""Core discrete-event simulation engine.

The engine follows the classic event-calendar design: a binary heap of
``(time, priority, sequence, event)`` entries is popped in order, each
popped event runs its callbacks, and callbacks may schedule further
events.  Processes are plain Python generators that ``yield`` events; the
:class:`Process` wrapper resumes the generator whenever the yielded event
triggers.

The engine is intentionally small but complete enough to model serving
platforms: timeouts, triggerable events, process interruption, and
first-of-two races (:class:`Race`, the guard-timer pattern every
request uses).

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

* Scheduled entries are cancellable via lazy-deletion tombstones (see
  below), so platforms can withdraw the overwhelmingly-dead guard
  timers (request timeouts, keep-alives) that otherwise rot in the heap
  for hundreds of simulated seconds.

Tombstone cancellation
----------------------
A binary heap cannot remove an arbitrary entry cheaply, so
:meth:`Event.cancel` does not touch the heap at all: it marks the event
cancelled, drops its callbacks, and leaves the entry in place as a
*tombstone*.  When the scheduler later pops a tombstone it skips it
without running callbacks or advancing ``events_processed``.  The
environment counts outstanding tombstones and rebuilds the heap once
they outnumber the live entries, so a pathological cancel-heavy
workload stays O(live) in memory.  Cancellation semantics:

* ``cancel()`` on a pending entry returns ``True``; the callbacks never
  run, ``ok`` becomes ``None``, and ``cancelled`` is ``True``.
* ``cancel()`` on an already-processed event is a no-op returning
  ``False``.
* A cancelled event never wins a :class:`Race` (its ``ok`` is
  ``None``), and yielding a cancelled event from a process is a
  :class:`SimulationError`.

Calendar-bucket queue
---------------------
A single binary heap costs O(log n) per push/pop, which starts to matter
when millions of entries are live at once.  When the heap grows past
``bucket_threshold`` entries the environment migrates — once, in place —
to a :class:`BucketCalendar`: entries are spread across fixed-width time
buckets (future buckets are plain append lists, O(1) push), and only the
bucket currently being drained is heapified.  Entries are full
``(time, priority, sequence, ...)`` tuples in both structures and the
bucket boundaries respect time order, so the pop sequence — and
therefore every golden hash — is **bit-identical** to the heap's.  The
default threshold is far above what any registered workload keeps live
(the streaming runs pop entries as fast as they push them), so the heap
remains the everyday fast path; the threshold can be forced low via the
``REPRO_BUCKET_THRESHOLD`` environment variable or the
``Environment(bucket_threshold=...)`` argument (the bit-identity tests
do exactly that).
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, List, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "Race",
    "BucketCalendar",
    "Environment",
]

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent events (process resumption), processed before
#: ordinary events scheduled at the same simulated time.
URGENT = 0

#: Tombstone compaction threshold: never rebuild below this many.
_MIN_TOMBSTONES = 64

#: Live-entry count at which the environment migrates from the binary
#: heap to the bucket calendar (override: REPRO_BUCKET_THRESHOLD).
_BUCKET_THRESHOLD = int(os.environ.get("REPRO_BUCKET_THRESHOLD", "500000"))

#: Target mean entries per bucket when the migration picks a width.
_BUCKET_FAN = 32.0

#: Floor on the bucket width (guards a zero-span calendar).
_MIN_BUCKET_WIDTH = 1e-6


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An event that may be triggered once and then calls its callbacks.

    Events are the only objects a process may ``yield``.  An event is
    *triggered* when a value (or an exception) has been scheduled for it,
    and *processed* once its callbacks have run.
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
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` time units."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if self._cancelled:
            raise SimulationError("event has been cancelled")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        entry = (env._now + delay, NORMAL, next(env._sequence), self)
        if env._calendar is None:
            queue = env._queue
            heappush(queue, entry)
            if len(queue) >= env._bucket_threshold:
                env._migrate_to_buckets()
        else:
            env._calendar.push(entry)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if self._cancelled:
            raise SimulationError("event has been cancelled")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        entry = (env._now + delay, NORMAL, next(env._sequence), self)
        if env._calendar is None:
            queue = env._queue
            heappush(queue, entry)
            if len(queue) >= env._bucket_threshold:
                env._migrate_to_buckets()
        else:
            env._calendar.push(entry)
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
            calendar = env._calendar
            live = len(env._queue) if calendar is None else calendar.size
            if (env._tombstones > _MIN_TOMBSTONES
                    and env._tombstones * 2 > live):
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

    Guard timers that usually lose their race (request deadlines,
    keep-alives) should be :meth:`~Event.cancel`-ed by the winner so the
    calendar does not fill up with dead entries.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        entry = (env._now + delay, NORMAL, next(env._sequence), self)
        if env._calendar is None:
            queue = env._queue
            heappush(queue, entry)
            if len(queue) >= env._bucket_threshold:
                env._migrate_to_buckets()
        else:
            env._calendar.push(entry)


class Process(Event):
    """Wraps a generator and resumes it whenever the yielded event fires.

    The process itself is an event: it triggers when the generator returns
    (successfully, with the generator's return value) or raises.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator")
        Event.__init__(self, env)
        self._generator = generator
        self._target: Optional[Event] = None
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
        self._target = result


class Race(Event):
    """First of two events: the guard-timer race.

    Every simulated request runs two of these (response vs request
    deadline on the client, queue-get vs keep-alive on the instance).
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


class BucketCalendar:
    """A calendar queue: fixed-width time buckets behind the heap's contract.

    Entries are the same ``(time, priority, sequence, ...)`` tuples the
    heap holds.  The bucket of an entry is ``int(time / width)``; pushes
    into the bucket currently being drained (or any earlier time — which
    can only happen for zero-delay entries at the clock) go into that
    bucket's heap, pushes into future buckets are O(1) list appends.  A
    future bucket is heapified once, when the drain cursor reaches it.
    Because buckets partition time and ties resolve through the same
    tuple comparison the heap used, the pop order is bit-identical to a
    single heap over the same pushes.
    """

    __slots__ = ("width", "size", "_current", "_current_key", "_buckets",
                 "_future_keys")

    def __init__(self, width: float, start_key: int):
        if width <= 0:
            raise SimulationError(f"bucket width must be positive: {width!r}")
        self.width = width
        self.size = 0
        self._current: List[tuple] = []
        self._current_key = start_key
        self._buckets: dict[int, List[tuple]] = {}
        self._future_keys: List[int] = []

    def __len__(self) -> int:
        return self.size

    def push(self, entry: tuple) -> None:
        """Insert one calendar entry (time is ``entry[0]``)."""
        key = int(entry[0] / self.width)
        if key <= self._current_key:
            heappush(self._current, entry)
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [entry]
                heappush(self._future_keys, key)
            else:
                bucket.append(entry)
        self.size += 1

    def _advance(self) -> List[tuple]:
        """The current bucket, cursor moved forward until it is non-empty.

        Caller must ensure ``size`` > 0 (some bucket holds an entry).
        """
        current = self._current
        while not current:
            key = heappop(self._future_keys)
            current = self._buckets.pop(key)
            heapify(current)
            self._current = current
            self._current_key = key
        return current

    def min_time(self) -> float:
        """Time of the earliest entry, or ``inf`` when empty."""
        if not self.size:
            return float("inf")
        return self._advance()[0][0]

    def pop(self) -> tuple:
        """Remove and return the earliest entry (``size`` must be > 0)."""
        current = self._advance()
        self.size -= 1
        return heappop(current)

    def compact(self) -> int:
        """Drop tombstoned entries from every bucket; returns live count.

        Empty buckets keep their (already-queued) key — the drain cursor
        skips them — so the future-key heap never needs surgery.
        """
        def live(entries: List[tuple]) -> List[tuple]:
            return [entry for entry in entries
                    if len(entry) == 6 or not entry[3]._cancelled]

        current = live(self._current)
        heapify(current)
        self._current = current
        size = len(current)
        for key, bucket in self._buckets.items():
            kept = live(bucket)
            self._buckets[key] = kept
            size += len(kept)
        self.size = size
        return size


class Environment:
    """The simulation environment: clock, calendar, and process factory."""

    __slots__ = ("_now", "_queue", "_sequence", "_active_process",
                 "_tombstones", "events_processed", "_calendar",
                 "_bucket_threshold")

    def __init__(self, initial_time: float = 0.0,
                 bucket_threshold: Optional[int] = None):
        self._now = float(initial_time)
        self._queue: list = []
        self._sequence = count()
        self._active_process: Optional[Process] = None
        #: Cancelled entries still sitting in the heap (lazy deletion).
        self._tombstones = 0
        #: Number of calendar entries executed (tombstones excluded).
        self.events_processed = 0
        #: Bucket calendar, installed once the heap outgrows the
        #: threshold (None = everyday binary-heap mode).
        self._calendar: Optional[BucketCalendar] = None
        self._bucket_threshold = (_BUCKET_THRESHOLD if bucket_threshold is None
                                  else int(bucket_threshold))

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
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        entry = (self._now + delay, priority, next(self._sequence), event)
        if self._calendar is None:
            queue = self._queue
            heappush(queue, entry)
            if len(queue) >= self._bucket_threshold:
                self._migrate_to_buckets()
        else:
            self._calendar.push(entry)

    def _schedule_resume(self, process: Process, ok: bool, value: Any) -> None:
        """Fast path: resume ``process`` at the current time, no Event."""
        entry = (self._now, URGENT, next(self._sequence), process, ok, value)
        if self._calendar is None:
            queue = self._queue
            heappush(queue, entry)
            if len(queue) >= self._bucket_threshold:
                self._migrate_to_buckets()
        else:
            self._calendar.push(entry)

    def _migrate_to_buckets(self) -> None:
        """One-way migration of the live heap into a bucket calendar.

        The width targets ``_BUCKET_FAN`` entries per bucket over the
        span of the entries currently live; ``run()``'s heap loop sees
        the emptied queue and falls through to the bucket loop.
        """
        queue = self._queue
        if not queue:
            return
        low = self._now
        high = max(entry[0] for entry in queue)
        width = max((high - low) * _BUCKET_FAN / len(queue),
                    _MIN_BUCKET_WIDTH)
        calendar = BucketCalendar(width, int(low / width))
        push = calendar.push
        for entry in queue:
            push(entry)
        queue.clear()
        self._calendar = calendar

    def _compact(self) -> None:
        """Rebuild the calendar without tombstones (keeps memory O(live)).

        Heap mode rebuilds in place, because ``run()`` holds a local
        reference to the list; bucket mode compacts bucket by bucket.
        """
        calendar = self._calendar
        if calendar is not None:
            calendar.compact()
        else:
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
        calendar = self._calendar
        if calendar is not None:
            while calendar.size:
                current = calendar._advance()
                entry = current[0]
                if len(entry) == 4 and entry[3]._cancelled:
                    heappop(current)
                    calendar.size -= 1
                    self._tombstones -= 1
                    continue
                return entry[0]
        return float("inf")

    def step(self) -> None:
        """Process exactly one event from the calendar (skipping tombstones)."""
        while True:
            queue = self._queue
            if queue:
                entry = heappop(queue)
            else:
                calendar = self._calendar
                if calendar is None or not calendar.size:
                    raise SimulationError("no more events to process")
                entry = calendar.pop()
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

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar is exhausted or ``until`` is reached."""
        if until is not None and until < self._now:
            raise SimulationError(
                f"until ({until!r}) must not be before now ({self._now!r})")
        # Inlined step() loop: popping, tombstone skipping, and callback
        # dispatch in one frame is worth ~25% wall-clock on full runs.
        # Two inlined loops, actually: the heap loop and the bucket loop.
        # A migration mid-run empties the heap in place, so the heap loop
        # falls through and the outer loop enters the bucket loop (the
        # migration is one-way — the outer loop runs at most twice).
        limit = float("inf") if until is None else until
        pop = heappop
        processed = 0
        try:
            while True:
                queue = self._queue
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
                calendar = self._calendar
                if calendar is None or not calendar.size:
                    break
                advance = calendar._advance
                while calendar.size:
                    current = advance()
                    if current[0][0] > limit:
                        self._now = until
                        return
                    entry = pop(current)
                    calendar.size -= 1
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
