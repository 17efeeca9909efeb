"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of each layer with
spans (name, parent span, start, end, process id), kept in memory; pool
workers (forked from the traced process) ship their spans back
alongside each cell's payload.  In ``profile`` mode it also runs
``cProfile``: one profiler per simulated cell and one around everything
else the call does.  Profiles are reduced to self time per layer bucket
plus a few call counts.  Profiled calls run their cells serially: a
pool worker's first cell pays once-per-process costs, and which cell
that is varies from run to run, so pooled call counts would not repeat
exactly.

Nothing under ``src/`` is changed: every hook is a module or class
attribute swapped for a wrapper for the duration of one call.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import os
import pickle
import pstats
import time
from collections import defaultdict
from typing import Dict, List

#: Self time is bucketed by the first matching path fragment.
BUCKETS = (
    ("engine", "/repro/sim/engine.py"),
    ("rng", "/repro/sim/randomness.py"),
    ("executor", "/repro/core/executor.py"),
    ("platforms", "/repro/platforms/"),
    ("serving", "/repro/serving/"),
    ("workload", "/repro/workload/"),
    ("pool", "/repro/core/parallel.py"),
    ("pool", "/repro/core/shm.py"),
    ("study", "/repro/core/study.py"),
    ("study", "/repro/core/results.py"),
    ("study", "/repro/experiments/"),
    ("repro_other", "/repro/"),
)

#: The ``RandomStreams`` methods that draw a value.
DRAW_METHODS = ("exponential", "uniform", "lognormal_around",
                "lognormal_sum", "choice")

HEAPPUSH = "<built-in method _heapq.heappush>"

#: Marks a pool payload that carries worker trace records.
_TAG = "perfbench-trace"


def bucket_of(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    for bucket, fragment in BUCKETS:
        if fragment in path:
            return bucket
    return "other"


def reduce_profile(profiler: cProfile.Profile) -> Dict[str, object]:
    """Self time per bucket, total calls, engine heappushes, RNG draws.

    Built-in functions have no file of their own; their self time is
    charged to the bucket of each caller.
    """
    stats = pstats.Stats(profiler).stats
    buckets: Dict[str, float] = defaultdict(float)
    calls = heappush = draws = 0
    for (filename, _line, func), (_cc, nc, tt, _ct, callers) in stats.items():
        calls += nc
        if filename == "~":
            for caller, (c_nc, _c_cc, c_tt, _c_ct) in callers.items():
                bucket = bucket_of(caller[0])
                buckets[bucket] += c_tt
                if func == HEAPPUSH and bucket == "engine":
                    heappush += c_nc
            continue
        bucket = bucket_of(filename)
        buckets[bucket] += tt
        if bucket == "rng" and func in DRAW_METHODS:
            # Calls from outside RandomStreams (lognormal_sum draws
            # through lognormal_around).
            draws += sum(c_nc for caller, (c_nc, *_rest) in callers.items()
                         if bucket_of(caller[0]) != "rng")
    return {"buckets": dict(buckets), "calls": calls,
            "heappush": heappush, "draws": draws}


class Tracer:
    """Spans around each layer's public calls, optionally with cProfile."""

    def __init__(self, profile: bool = False):
        self.profile = profile
        self.spans: List[tuple] = []
        self.cell_profiles: List[Dict[str, object]] = []
        self.worker_records: List[Dict[str, object]] = []
        self.outer = cProfile.Profile() if profile else None
        self.worker_init = 0.0
        self._stack: List[str] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[tuple] = []

    # -- spans -------------------------------------------------------------
    def _span(self, name: str, fn, outermost: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and tracer._depth[name]:
                return fn(*args, **kwargs)
            tracer._depth[name] += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(name)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer.spans.append((name, parent, start, end, os.getpid()))
        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original_function)``."""
        static = inspect.getattr_static(owner, attr)
        self._undo.append((owner, attr, static))
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(make(static.__func__)))
        else:
            setattr(owner, attr, make(static))

    def wrap(self, owner, attr: str, name: str,
             outermost: bool = False) -> None:
        self._patch(owner, attr,
                    lambda fn: self._span(name, fn, outermost))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every hook.  Platform classes are found by subclass
        walk, so the workload must have run once (the warm-up call)
        to import every platform module it uses."""
        import repro.core.benchmark as benchmark
        import repro.core.parallel as parallel
        import repro.core.shm as shm
        import repro.workload.generator as generator
        from repro.core.executor import Executor
        from repro.core.results import RunResult
        from repro.core.study import ResultFrame, Study
        from repro.platforms.base import ServingPlatform
        from repro.serving.outcome_table import OutcomeRecorder, OutcomeTable
        from repro.serving.streaming import ChunkedOutcomeRecorder
        from repro.workload.streaming import StreamSession

        self.wrap(Executor, "execute", "executor.simulate")
        self.wrap(benchmark, "build_platform", "platforms.build")
        for cls in dict.fromkeys(_subclasses(ServingPlatform)):
            if "finalize" in vars(cls):
                self.wrap(cls, "finalize", "platforms.finalize",
                          outermost=True)
        self.wrap(OutcomeRecorder, "table", "serving.finalize", True)
        self.wrap(OutcomeTable, "fail_unfinished", "serving.finalize", True)
        self.wrap(ChunkedOutcomeRecorder, "finalize", "serving.finalize",
                  True)
        self.wrap(generator, "generate_workload", "workload.gen")
        self.wrap(StreamSession, "__init__", "workload.gen")
        self.wrap(StreamSession, "advance", "workload.gen")
        self.wrap(ResultFrame, "from_results", "study.frame_build")
        self.wrap(Study, "run", "study.run")
        self._patch(benchmark.ServingBenchmark, "run", self._cell)
        self.wrap(parallel, "run_cells", "pool.run_cells")
        self._patch(parallel, "_init_worker", self._init_worker)
        self._patch(parallel, "_run_cell_pooled", self._run_cell_pooled)
        self._patch(shm, "unpack_arrays", self._unpack)
        self.wrap(RunResult, "from_transport", "pool.unpack")

    def _cell(self, fn):
        span = self._span("cell", fn)
        if not self.profile:
            return span

        @functools.wraps(fn)
        def cell(*args, **kwargs):
            self.outer.disable()
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                return span(*args, **kwargs)
            finally:
                profiler.disable()
                self.cell_profiles.append(reduce_profile(profiler))
                self.outer.enable()
        return cell

    def _unpack(self, fn):
        """Parent-side unpacking; strips the worker records first."""
        span = self._span("pool.unpack", fn)

        @functools.wraps(fn)
        def unpack(payload, *args, **kwargs):
            if (isinstance(payload, tuple) and len(payload) == 3
                    and payload[0] == _TAG):
                self.worker_records.append(payload[2])
                payload = payload[1]
            return span(payload, *args, **kwargs)
        return unpack

    # -- pool workers (forked from the traced process) -----------------------
    def _init_worker(self, fn):
        @functools.wraps(fn)
        def init(*args, **kwargs):
            self.spans.clear()
            self.worker_init = time.monotonic()
            return fn(*args, **kwargs)
        return init

    def _run_cell_pooled(self, fn):
        from repro.core.shm import ShmPayload

        @functools.wraps(fn)
        def run_cell(payload):
            packed = fn(payload)
            size = len(pickle.dumps(packed))
            shm = isinstance(packed, ShmPayload)
            if shm:
                size += packed.total_bytes
            record = {"spans": list(self.spans), "init": self.worker_init,
                      "pid": os.getpid(), "transport_bytes": size,
                      "shm": shm}
            self.spans.clear()
            return (_TAG, packed, record)
        return run_cell

    # -- the traced call -----------------------------------------------------
    def run(self, call):
        """Run ``call()`` with every hook installed; return its value."""
        self.install()
        try:
            if not self.profile:
                return call()
            self.outer.enable()
            try:
                return call()
            finally:
                self.outer.disable()
        finally:
            self.uninstall()

    def all_spans(self) -> List[tuple]:
        spans = list(self.spans)
        for record in self.worker_records:
            spans.extend(record["spans"])
        return spans


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
