"""A fixed calibration kernel that tracks how fast this host runs now.

Shared hosts drift: on a 2-core VM the same simulation call took
anywhere from 1.4 s to 2.2 s within one minute, in stretches of tens of
seconds, and two sets of ten ``trace-w1m`` runs half an hour apart had
unscaled medians of 14.1k and 27.1k req/s.  The kernel below slows down
and speeds up with the host.  Timing it right before and right after
each benchmark call and scaling the call's rate by
``kernel_s / REFERENCE_S`` brought those two medians within 5% of each
other; set-up times are scaled by the run's median kernel time the same
way.  The kernel never changes with the program under test: it is a
small pure-Python event loop (heap, attribute and dict traffic, like
the simulator's hot path) plus a little numpy.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Kernel seconds that define the reference host speed (about this
#: kernel's median on a 2-core 2.1 GHz Xeon VM).
REFERENCE_S = 0.3


class _Job:
    __slots__ = ("ident", "due", "work")

    def __init__(self, ident: int, due: float):
        self.ident = ident
        self.due = due
        self.work = 0


def _event_loop(events: int) -> int:
    calendar = []
    jobs = {}
    seq = 0
    total = 0

    def finish(job):
        jobs.pop(job.ident & 1023, None)
        return job.work

    for ident in range(64):
        job = _Job(ident, ident * 0.5)
        jobs[ident & 1023] = job
        heapq.heappush(calendar, (job.due, seq, job))
        seq += 1
    for _ in range(events):
        due, _seq, job = heapq.heappop(calendar)
        job.work += 1
        if job.work % 7 == 0:
            total += finish(job)
            job = _Job(job.ident + 64, due)
            jobs[job.ident & 1023] = job
        heapq.heappush(calendar, (due + ((job.ident * 2654435761) % 997)
                                  * 1e-3, seq, job))
        seq += 1
    return total


def _columns(rounds: int) -> float:
    values = np.arange(4096, dtype=np.float64)
    acc = 0.0
    for _ in range(rounds):
        values = np.sort(values[::-1] * 1.0001)
        acc += float(values[values > 2048.0].sum())
    return acc


def kernel_seconds() -> float:
    """Host seconds one pass of the fixed kernel takes right now."""
    start = time.perf_counter()
    _event_loop(330_000)
    _columns(900)
    return time.perf_counter() - start
