"""Batching request frontend: a coalescing queue in front of a backend.

Clients submit single queries; a dispatcher thread coalesces queued queries
for the same model up to ``max_batch`` (or until the oldest waiting query
has waited ``max_wait`` seconds), stacks them into one batch and hands it to
the backend it was given — a ``run_batch`` callable executing one batch, and
the executor that call runs on, so coalescing continues while batches
execute.  Each query resolves to its own :class:`ServedResult` future.

Batching is the amortization lever of the plan runtime (one communication
round trip per protocol op regardless of batch size), so throughput scales
with the coalesced batch size while per-query latency only pays the small
coalescing wait.  The frontend holds no plans, pools or engine: the one
plan + pool store lives in the party servers
(:class:`repro.runtime.server.PartyServer`), behind the
:class:`~repro.serve.pool.ShardedServingPool` backend.

Invariants:

- every submitted query resolves exactly once — with a
  :class:`ServedResult` or with the exception that killed its batch; a
  backend failure never wedges a client future;
- a query accepted by :meth:`BatchingFrontend.submit` is dispatched even if
  :meth:`BatchingFrontend.close` races with it (the closed check and the
  enqueue are atomic w.r.t. the shutdown drain);
- statistics are updated under one lock and are safe against concurrent
  batch completions.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Executor, Future, InvalidStateError
from dataclasses import dataclass, field
from queue import Empty, Queue
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.models.specs import ModelSpec


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
    #: which worker shard executed the batch (None if the backend has none)
    shard: Optional[int] = None
    #: session seed of the executing job — replaying the in-process engine at
    #: this seed reproduces the logits bit for bit
    job_seed: Optional[int] = None


@dataclass
class BatchOutcome:
    """What one backend execution of a coalesced batch returns."""

    logits: np.ndarray
    online_bytes_per_query: float
    shard: Optional[int] = None
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


#: latency samples kept for percentile computation (a sliding window, so a
#: long-lived frontend under heavy traffic stays O(1) in memory)
LATENCY_WINDOW = 100_000


@dataclass
class ServingStats:
    """Aggregate counters and latency percentiles of a frontend's lifetime.

    Percentiles are computed over the most recent :data:`LATENCY_WINDOW`
    completed queries; the counters cover the whole lifetime.
    """

    queries_completed: int = 0
    queries_failed: int = 0
    batches_dispatched: int = 0
    batch_size_histogram: Dict[int, int] = field(default_factory=dict)
    latencies_seconds: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    first_submit: Optional[float] = None
    last_complete: Optional[float] = None

    @property
    def mean_batch_size(self) -> float:
        if not self.batches_dispatched:
            return 0.0
        return self.queries_completed / self.batches_dispatched

    def latency_percentile_ms(self, percentile: float) -> float:
        if not self.latencies_seconds:
            return 0.0
        return 1e3 * float(np.percentile(self.latencies_seconds, percentile))

    @property
    def queries_per_second(self) -> float:
        if (
            self.first_submit is None
            or self.last_complete is None
            or self.last_complete <= self.first_submit
        ):
            return 0.0
        return self.queries_completed / (self.last_complete - self.first_submit)

    def snapshot(self) -> Dict[str, object]:
        return {
            "queries_completed": self.queries_completed,
            "queries_failed": self.queries_failed,
            "batches_dispatched": self.batches_dispatched,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": dict(sorted(self.batch_size_histogram.items())),
            "p50_latency_ms": self.latency_percentile_ms(50),
            "p95_latency_ms": self.latency_percentile_ms(95),
            "queries_per_second": self.queries_per_second,
        }


@dataclass
class _PendingQuery:
    model: str
    query: np.ndarray
    future: "Future[ServedResult]"
    submitted_at: float


class BatchingFrontend:
    """Coalescing request queue in front of a batch-executing backend.

    Args:
        models: the deployable model zoo, keyed by the name clients use.
        run_batch: the backend — ``run_batch(model, servable, inputs)``
            executes one stacked batch and returns a :class:`BatchOutcome`.
        executor: where ``run_batch`` runs; the caller owns its lifetime.
        max_batch: hard cap on queries coalesced into one plan execution.
        max_wait: seconds the oldest queued query may wait before its batch
            is dispatched even if not full — the latency/throughput knob.
    """

    def __init__(
        self,
        models: Dict[str, ServableModel],
        run_batch: Callable[[str, ServableModel, np.ndarray], BatchOutcome],
        executor: Executor,
        max_batch: int = 8,
        max_wait: float = 0.01,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.models = dict(models)
        self.max_batch = max_batch
        self.max_wait = max_wait
        self._run_batch = run_batch
        self._executor = executor
        self.stats = ServingStats()
        self._queue: "Queue[Optional[_PendingQuery]]" = Queue()
        self._stats_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        # Every accepted query lives here until its future resolves, so
        # close() can fail stragglers promptly instead of leaving them to
        # hang when shards die during the drain.
        self._inflight: Dict[int, _PendingQuery] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def stats_snapshot(self) -> Dict[str, object]:
        """A consistent copy of the serving stats (safe against concurrent
        batch completions)."""
        with self._stats_lock:
            return self.stats.snapshot()

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #
    def submit(self, model: str, query: np.ndarray) -> "Future[ServedResult]":
        """Enqueue one query (CHW, no batch dimension); returns a future."""
        if self._closed:
            raise RuntimeError("frontend is closed")
        servable = self.models.get(model)
        if servable is None:
            raise KeyError(
                f"unknown model {model!r}; deployed: {sorted(self.models)}"
            )
        query = np.asarray(query, dtype=np.float64)
        spec = servable.spec
        expected = (spec.in_channels, spec.input_size, spec.input_size)
        if query.shape != expected:
            raise ValueError(
                f"model {model!r} expects a query of shape {expected}, "
                f"got {query.shape}"
            )
        now = time.perf_counter()
        with self._stats_lock:
            if self.stats.first_submit is None:
                self.stats.first_submit = now
        future: "Future[ServedResult]" = Future()
        item = _PendingQuery(model, query, future, now)
        # The closed check and the enqueue are atomic w.r.t. close(), so a
        # query can never land in the queue after the shutdown drain.
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("frontend is closed")
            with self._inflight_lock:
                self._inflight[id(item)] = item
            self._queue.put(item)
        return future

    def submit_many(
        self, model: str, queries: np.ndarray
    ) -> List["Future[ServedResult]"]:
        """Enqueue a stack of queries individually (they may be re-batched)."""
        return [self.submit(model, query) for query in np.asarray(queries)]

    def close(self, timeout: float = 30.0) -> None:
        """Drain the queue, stop the dispatcher and reject new submissions.

        Every future accepted before the close resolves — normally if the
        drain completes within ``timeout``, otherwise with a diagnosable
        :class:`PoolShutdown` (queue position + elapsed wait) rather than
        hanging forever on a backend that died mid-drain.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)  # shutdown sentinel, after the last query
        deadline = time.monotonic() + timeout
        self._dispatcher.join(timeout=timeout)
        # Batches handed off to the executor may still be executing
        # legitimately; give the drain the rest of the budget,
        # then fail whatever is left promptly.
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if not self._inflight:
                    return
            time.sleep(0.02)
        self._fail_stragglers()

    def _fail_stragglers(self) -> None:
        with self._inflight_lock:
            stragglers = sorted(
                self._inflight.values(), key=lambda item: item.submitted_at
            )
            self._inflight.clear()
        now = time.perf_counter()
        failed = 0
        for position, item in enumerate(stragglers):
            elapsed = now - item.submitted_at
            failed += _resolve(
                item.future,
                exception=PoolShutdown(
                    f"frontend shut down with the query still pending "
                    f"(queue position {position}, waited {elapsed:.1f}s)",
                    queue_position=position,
                    elapsed_seconds=elapsed,
                ),
            )
        if failed:
            with self._stats_lock:
                self.stats.queries_failed += failed

    def __enter__(self) -> "BatchingFrontend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Dispatcher
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        pending: Dict[str, List[_PendingQuery]] = {}
        running = True
        while running or any(pending.values()):
            timeout = self._next_deadline_in(pending) if running else 0.0
            item: Optional[_PendingQuery] = None
            if running:
                try:
                    item = self._queue.get(timeout=max(timeout, 1e-4))
                except Empty:
                    item = None
                if item is None and not self._queue.empty():
                    continue
            if item is not None:
                pending.setdefault(item.model, []).append(item)
            elif self._closed:
                running = False
            if not running:
                # Shutdown: drain whatever is still queued, then flush all.
                while True:
                    try:
                        leftover = self._queue.get_nowait()
                    except Empty:
                        break
                    if leftover is not None:
                        pending.setdefault(leftover.model, []).append(leftover)
            self._flush_ready(pending, force=not running)

    def _next_deadline_in(self, pending: Dict[str, List[_PendingQuery]]) -> float:
        deadlines = [
            bucket[0].submitted_at + self.max_wait
            for bucket in pending.values()
            if bucket
        ]
        if not deadlines:
            return 0.05
        return max(min(deadlines) - time.perf_counter(), 0.0)

    def _flush_ready(
        self, pending: Dict[str, List[_PendingQuery]], force: bool
    ) -> None:
        now = time.perf_counter()
        for model, bucket in pending.items():
            while bucket and (
                force
                or len(bucket) >= self.max_batch
                or now - bucket[0].submitted_at >= self.max_wait
            ):
                batch = bucket[: self.max_batch]
                del bucket[: self.max_batch]
                self._dispatch_batch(model, batch)

    # ------------------------------------------------------------------ #
    # Backend hand-off
    # ------------------------------------------------------------------ #
    def _dispatch_batch(self, model: str, batch: List[_PendingQuery]) -> None:
        # Hand off to the backend's executor so the coalescing loop keeps
        # draining the queue while batches execute concurrently.
        try:
            self._executor.submit(self._execute_batch, model, batch)
        except RuntimeError:
            # Executor already shut down (its owner's close() raced a slow
            # drain): run inline so every accepted query still resolves
            # exactly once — _execute_batch converts any backend failure
            # into failed futures rather than letting them hang.
            self._execute_batch(model, batch)

    def _execute_batch(self, model: str, batch: List[_PendingQuery]) -> None:
        servable = self.models[model]
        batch_size = len(batch)
        try:
            inputs = np.stack([item.query for item in batch])
            outcome = self._run_batch(model, servable, inputs)
        except Exception as exc:
            with self._stats_lock:
                self.stats.queries_failed += len(batch)
            for position, item in enumerate(batch):
                err = exc
                if isinstance(exc, PoolShutdown) and exc.queue_position < 0:
                    # enrich the pool-level shutdown with this query's view
                    err = PoolShutdown(
                        str(exc),
                        queue_position=position,
                        elapsed_seconds=time.perf_counter() - item.submitted_at,
                    )
                _resolve(item.future, exception=err)
            self._forget(batch)
            return
        done = time.perf_counter()
        predictions = outcome.logits.argmax(axis=1)
        with self._stats_lock:
            self.stats.batches_dispatched += 1
            self.stats.queries_completed += batch_size
            self.stats.batch_size_histogram[batch_size] = (
                self.stats.batch_size_histogram.get(batch_size, 0) + 1
            )
            self.stats.last_complete = done
            for item in batch:
                self.stats.latencies_seconds.append(done - item.submitted_at)
        for row, item in enumerate(batch):
            _resolve(
                item.future,
                result=ServedResult(
                    logits=outcome.logits[row],
                    predicted_class=int(predictions[row]),
                    model=model,
                    batch_size=batch_size,
                    latency_seconds=done - item.submitted_at,
                    online_bytes_per_query=outcome.online_bytes_per_query,
                    shard=outcome.shard,
                    job_seed=outcome.job_seed,
                ),
            )
        self._forget(batch)

    def _forget(self, batch: List[_PendingQuery]) -> None:
        with self._inflight_lock:
            for item in batch:
                self._inflight.pop(id(item), None)


def _resolve(future: "Future[ServedResult]", result=None, exception=None) -> bool:
    """Resolve a future without letting a client-side cancel() (or any other
    already-settled state) kill the dispatcher thread.  Returns whether this
    call actually settled the future."""
    try:
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)
        return True
    except InvalidStateError:
        return False
