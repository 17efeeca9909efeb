"""Executor: simulated load-generating clients (paper Figure 3).

The executor owns the client side of an experiment.  Each client replays
its share of the workload: it waits for the next arrival time, picks a
request uniformly at random from the request pool, sends it to the
platform, and records the outcome.  Client-side batching (Figure 17) and
the Figure 12c/12d micro-benchmark knobs (samples per request, inferences
per request) are applied here because they are client decisions, not
platform ones.

Outcomes are recorded columnar: every issued request is registered with
the run's recorder (a preallocated
:class:`~repro.serving.outcome_table.OutcomeRecorder`, or the streaming
chunk ring) and committed into its columns the moment it completes, so
the per-request Python objects only live while their request is in
flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.faults import RetryPolicy
from repro.platforms.base import ServingPlatform
from repro.platforms.batching import BatchAccumulator
from repro.serving.outcome_table import OutcomeRecorder, OutcomeTable
from repro.serving.records import RequestOutcome
from repro.sim import Environment, RandomStreams
from repro.workload.generator import Workload
from repro.workload.requests import RequestPool

__all__ = ["Executor"]


@dataclass
class Executor:
    """Replays a workload against a serving platform."""

    env: Environment
    platform: ServingPlatform
    workload: Workload
    request_pool: RequestPool
    rng: RandomStreams
    #: Columnar outcome store; created by :meth:`run` (or lazily).
    recorder: Optional[OutcomeRecorder] = None
    _next_request_id: int = 0
    _last_completion: float = 0.0
    #: Successful requests beyond one per successful batch invocation:
    #: the platform ledger counts a client-side batch as one request.
    batched_surplus: int = field(default=0, init=False)
    _commit = None  # bound recorder.commit, cached for the hot callback
    #: Client-side retry policy (None unless the config enables retries).
    _retry: Optional[RetryPolicy] = None

    # -- public ---------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> OutcomeTable:
        """Run the experiment to completion and return the outcome table."""
        return self.execute(until=until).table()

    def execute(self, until: Optional[float] = None) -> OutcomeRecorder:
        """Run the experiment to completion and return the recorder.

        The caller reads the run through the recorder's ``finalize()``
        (both recorders have one; the streaming
        :class:`~repro.serving.streaming.ChunkedOutcomeRecorder` has no
        ``table()``).  Any pre-set ``self.recorder`` with the
        ``register``/``commit`` write API is used as-is; otherwise a
        preallocated recorder sized to the workload is created.
        """
        if self.recorder is None:
            capacity = sum(len(trace) for trace in self.workload.client_traces)
            self.recorder = OutcomeRecorder(capacity)
        self._commit = self.recorder.commit
        self._retry = RetryPolicy.from_config(self.platform.config)
        self.platform.outcome_sink = self._late_commit
        self.platform.start()
        for client_id, trace in enumerate(self.workload.client_traces):
            self.env.process(self._client(client_id, trace))
        self.env.run(until=until)
        return self.recorder

    @property
    def last_completion_time(self) -> float:
        """Completion time of the last finished request (0 if none)."""
        return self._last_completion

    # -- clients ---------------------------------------------------------------
    def _client(self, client_id: int, trace):
        config = self.platform.config
        batcher = BatchAccumulator(config.batch_size)
        last_index = len(trace) - 1
        previous = 0.0
        timeout = self.env.timeout
        register = self.recorder.register
        single = config.batch_size == 1
        # The resilient path is chosen once per client, not per request:
        # with retries off the hot path is byte-for-byte the old one.
        send = (self._send_single if self._retry is None
                else self._send_resilient)
        for index, arrival in enumerate(trace):
            gap = arrival - previous
            previous = arrival
            if gap > 0:
                yield timeout(gap)
            outcome = self._new_outcome(client_id)
            register(outcome)
            if single:
                send(outcome)
            else:
                batch = batcher.add(outcome)
                if batch is None and index == last_index:
                    batch = batcher.flush()
                if batch:
                    self.env.process(self._send_batch(client_id, batch))

    def _new_outcome(self, client_id: int) -> RequestOutcome:
        config = self.platform.config
        outcome = RequestOutcome(
            request_id=self._next_request_id,
            client_id=client_id,
            send_time=self.env.now,
            inferences=config.inferences_per_request,
        )
        self._next_request_id += 1
        return outcome

    def _payload_mb(self) -> float:
        config = self.platform.config
        template = self.request_pool.pick(self.rng)
        return template.payload_mb * config.samples_per_request

    def _send_single(self, outcome: RequestOutcome) -> None:
        """Submit one request, recording its completion time when done.

        Completion is observed via a callback on the platform's request
        process rather than a wrapper process: with one wrapper per
        request the executor alone used to add three calendar entries
        per request to the hot path.
        """
        payload = self._payload_mb()
        response = self.platform.model.output_payload_mb
        process = self.platform.submit(outcome, payload, response)
        process.callbacks.append(
            lambda _event, outcome=outcome: self._note_completion(outcome))

    def _send_resilient(self, outcome: RequestOutcome) -> None:
        """Submit with retry/backoff (one wrapper process per request).

        Only used when the config enables retries — the wrapper process
        costs a few calendar entries per request, which the no-retry
        fast path avoids.
        """
        self.env.process(self._resilient_request(outcome))

    def _resilient_request(self, outcome: RequestOutcome):
        """Retry loop: capped exponential backoff under a timeout budget.

        Each attempt is a full platform submission (the conservation
        ledger counts every attempt).  After a failed attempt the next
        try is delayed by the policy's jittered backoff; retrying stops
        when the attempts are exhausted or when the next backoff would
        overrun the per-request timeout budget.  The budget is enforced
        *between* attempts — an attempt already in flight runs to its
        platform-side deadline (which ``request_timeout_s`` tightens).
        """
        policy = self._retry
        payload = self._payload_mb()
        response = self.platform.model.output_payload_mb
        budget = self.platform.config.request_timeout_s
        deadline = (outcome.send_time + budget
                    if budget is not None else None)
        attempt = 1
        while True:
            yield self.platform.submit(outcome, payload, response)
            if outcome.success or attempt >= policy.attempts:
                break
            delay = policy.backoff(self.rng, attempt)
            if deadline is not None and self.env.now + delay > deadline:
                break
            yield self.env.timeout(delay)
            outcome.reopen()
            attempt += 1
        outcome.attempts = attempt
        self._note_completion(outcome)

    def _send_batch(self, client_id: int, batch: List[RequestOutcome]):
        """Send one invocation carrying a whole client-side batch."""
        config = self.platform.config
        carrier = RequestOutcome(
            request_id=self._next_request_id,
            client_id=client_id,
            send_time=self.env.now,
            inferences=len(batch) * config.inferences_per_request,
        )
        self._next_request_id += 1
        payload = self._payload_mb() * len(batch)
        response = self.platform.model.output_payload_mb * len(batch)
        yield self.platform.submit(carrier, payload, response)
        if carrier.success:
            self.batched_surplus += len(batch) - 1
        for member in batch:
            member.cold_start = carrier.cold_start
            member.instance_id = carrier.instance_id
            member.breakdown = dict(carrier.breakdown)
            member.finish(carrier.completion_time
                          if carrier.completion_time is not None
                          else self.env.now,
                          carrier.success, carrier.error)
            self._note_completion(member)

    def _note_completion(self, outcome: RequestOutcome) -> None:
        completion = outcome.completion_time
        if completion is not None:
            self._commit(outcome)
            if completion > self._last_completion:
                self._last_completion = completion

    def _late_commit(self, outcome: RequestOutcome) -> None:
        """Re-record an outcome the platform mutated after completion.

        Batch carriers are not registered rows (``row == -1``); their
        members are finished from the carrier's state instead.
        """
        if outcome.row >= 0:
            self._commit(outcome)
