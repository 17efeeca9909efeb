"""Discrete-event simulation kernel.

This package is the substrate that every simulated cloud component is
built on.  It provides a small, generator-based process model in the
spirit of SimPy:

* :class:`~repro.sim.engine.Environment` — the event loop and clock.
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Timeout` /
  :class:`~repro.sim.engine.Process` — the things a process can ``yield``.
* :class:`~repro.sim.resources.Resource` and
  :class:`~repro.sim.resources.Store` — capacity-limited resources and
  FIFO object stores used to model servers and queues.
* :class:`~repro.sim.monitor.TimeSeriesMonitor` and friends — measurement
  helpers used by the analyzer.
* :class:`~repro.sim.randomness.RandomStreams` — reproducible, purpose-keyed
  random number streams.

The engine is deterministic: given the same seed and the same sequence of
scheduled events it always produces the same trajectory, which is what
makes the paper's experiments reproducible in CI.
"""

from repro.sim.engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.monitor import CounterMonitor, GaugeMonitor, TimeSeriesMonitor
from repro.sim.randomness import RandomStreams
from repro.sim.resources import Request, Resource, Store

__all__ = [
    "CounterMonitor",
    "Environment",
    "Event",
    "GaugeMonitor",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "TimeSeriesMonitor",
    "Timeout",
]
