"""The serving pool's one queue: what waits in it and which batch leaves next.

A client query waits in :class:`~repro.serve.pool.ShardedServingPool`'s
queue as a :class:`_Query` until a shard's worker thread is free and
:func:`take_batch`, the batching policy, hands it the next job.  Batching
is the amortization lever of the plan runtime (one communication round
trip per protocol op regardless of batch size), so throughput scales with
the batch size while a query waits at most ``max_wait`` for company — and
queries arriving while every shard is busy leave together when one frees.
A :class:`_Job` is *sealed*: one plan execution under one
:class:`~repro.runtime.shard.JobTicket`, never merged, split or re-seeded.
"""

from __future__ import annotations

from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.models.specs import ModelSpec
from repro.runtime.shard import JobTicket


@dataclass
class ServableModel:
    """A deployable model: its layer spec and exported layer weights."""

    spec: ModelSpec
    weights: Dict[str, Dict[str, np.ndarray]]


@dataclass
class ServedResult:
    """What one client query resolves to."""

    logits: np.ndarray
    predicted_class: int
    model: str
    batch_size: int
    latency_seconds: float
    online_bytes_per_query: float
    #: which worker shard executed the batch
    shard: Optional[int] = None
    #: session seed of the executing job — replaying the in-process engine at
    #: this seed reproduces the logits bit for bit
    job_seed: Optional[int] = None


class PoolShutdown(RuntimeError):
    """The serving stack shut down while this query was still pending.

    Raised into client futures that would otherwise hang when shards die
    during a drain (or the pool closes mid-flight).  Carries enough to
    diagnose *where* the query was stuck: its position among the queries
    abandoned by the same shutdown and how long it had been waiting.
    """

    def __init__(
        self,
        message: str,
        queue_position: int = -1,
        elapsed_seconds: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.queue_position = queue_position
        self.elapsed_seconds = elapsed_seconds


class BackpressureError(RuntimeError):
    """The model's queue is full; the query was shed, not dropped silently.

    ``queue_depth`` is the model's queued plus running query rows when the
    daemon refused the stack, and ``retry_after_ms`` its estimate of when
    that work drains — a well-behaved client backs off at least that long
    before resubmitting.
    """

    def __init__(
        self,
        message: str,
        model: str = "",
        batch_size: int = 0,
        queue_depth: int = 0,
        queue_budget: int = 0,
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.model = model
        self.batch_size = batch_size
        self.queue_depth = queue_depth
        self.queue_budget = queue_budget
        self.retry_after_ms = retry_after_ms


@dataclass(eq=False)
class _Query:
    """One client query (CHW) waiting for a batch."""

    model: str
    query: np.ndarray
    future: "Future[ServedResult]"
    submitted_at: float
    #: query rows it adds to the queue's depth
    rows = 1

    def waiters(self) -> List[Tuple[float, Future]]:
        return [(self.submitted_at, self.future)]


@dataclass(eq=False)
class _Job:
    """A sealed batch: one plan execution, never merged, split or re-seeded."""

    model: str
    inputs: np.ndarray
    #: the queries the job's rows answer, in row order; empty for a
    #: ``run_batch`` job, whose caller waits on ``future`` instead
    queries: List[_Query]
    submitted_at: float
    future: Optional[Future] = None
    #: fixed at the first attempt, so every replay runs the same session
    ticket: Optional[JobTicket] = None
    attempts: int = 0

    @property
    def rows(self) -> int:
        return len(self.inputs)

    def waiters(self) -> List[Tuple[float, Future]]:
        """Every future this job resolves, with its submit time."""
        waiting = [(query.submitted_at, query.future) for query in self.queries]
        return waiting + ([(self.submitted_at, self.future)] if self.future else [])


#: what waits in the queue
_Pending = Union[_Query, _Job]


def take_batch(
    pending: List[_Pending],
    max_batch: int,
    max_wait: float,
    now: float,
    flush: bool = False,
) -> Tuple[Optional[_Job], Optional[float]]:
    """The batching policy: remove and return the job a free shard runs next.

    ``pending`` is in arrival order, except that a requeued job sits at its
    head.  The first sealed job leaves first, alone.  Otherwise the models'
    buckets are visited oldest query first, and the first one that is full,
    whose oldest query has waited ``max_wait`` seconds at ``now``, or that
    ``flush`` (the pool is closing) releases leaves as one job of up to
    ``max_batch`` queries in arrival order.  With nothing ready, returns
    ``(None, seconds until the oldest query is due)`` — ``(None, None)``
    for an empty queue.
    """
    for item in pending:
        if isinstance(item, _Job):
            pending.remove(item)
            return item, None
    buckets: Dict[str, List[_Query]] = {}
    for query in pending:
        buckets.setdefault(query.model, []).append(query)
    for model, bucket in buckets.items():
        if flush or len(bucket) >= max_batch or now - bucket[0].submitted_at >= max_wait:
            batch = bucket[:max_batch]
            pending[:] = [item for item in pending if item not in batch]
            inputs = np.stack([query.query for query in batch])
            return _Job(model, inputs, batch, batch[0].submitted_at), None
    return None, (pending[0].submitted_at + max_wait - now if pending else None)


def _resolve(future: Future, result=None, exception=None) -> bool:
    """Resolve a future without letting a client-side cancel() (or any other
    already-settled state) kill the worker thread.  Returns whether this
    call actually settled the future."""
    try:
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)
        return True
    except InvalidStateError:
        return False
