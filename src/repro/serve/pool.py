"""Sharded serving pool: N persistent worker pairs behind one queue.

One two-process worker pair executes one plan at a time — its throughput is
bounded by the round-trip-heavy online phase.  The pool scales horizontally:
``num_shards`` :class:`~repro.runtime.shard.WorkerShard`\\ s (each a pair of
long-lived party-server processes over one persistent TCP connection), one
pending-query queue, and one worker thread per live shard that pulls its
next batch from that queue (:func:`~repro.serve.frontend.take_batch`)
whenever its shard is free.

Lifecycle of a shard:

1. **boot** — two party processes are spawned (the only process spawns the
   shard ever performs), the inter-party connection is established once,
   and the parties pre-provision the randomness pools of each model's
   batch-1 plan, which the pool compiled once for every boot; the slot's
   worker thread starts;
2. **serve** — each batch the worker takes becomes one ``JobRequest`` to
   both parties, carrying the key's plan (compiled here once) while the
   shard's parties do not hold it; the shard secret-shares the batch with
   the job's deterministic seed, reconstructs the logits from the returned
   shares, and cross-checks both parties' accounting;
3. **refill** — each party's background provisioner, the only producer of
   randomness pools after boot, tops the key of every job back up to its
   high-water mark right after that job, most recently used key first and
   within one byte budget per party;
4. **evict / respawn / replay** — a shard whose worker processes die is
   evicted; its worker registers a replacement boot, which *continues* the
   dead shard's seed stream, puts the in-flight job back at the head of
   the queue sealed with its :class:`~repro.runtime.shard.JobTicket` (same
   counter, same pinned session seed — the recovered logits are
   bit-identical to the fault-free run) and exits.  With no retry budget
   left the job fails instead; the slot comes back either way.  With a
   ``heartbeat_deadline`` set, an idle worker also checks its own shard
   every poll interval and evicts it the same way when a party went silent
   past the deadline or its process exited — at most once per slot per
   ``RESPAWN_COOLDOWN``.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.crypto.plan import InferencePlan, compile_plan
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.faults import FaultPlan
from repro.obs import Metrics, merge, nest
from repro.runtime.messages import ServerConfig
from repro.runtime.shard import HeartbeatMiss, PoolBatchResult, ShardFailure, WorkerShard
from repro.serve.frontend import (
    PoolShutdown,
    ServableModel,
    ServedResult,
    _Job,
    _Pending,
    _Query,
    _resolve,
    take_batch,
)

#: the pool's own lifetime counters, top level of its ``/stats`` document
POOL_COUNTERS = (
    "processes_spawned", "shards_booted", "shards_respawned", "respawn_failures",
    "jobs_retried", "jobs_recovered", "retries_exhausted", "heartbeats_missed",
)

#: seconds after a slot's eviction during which an idle check leaves the
#: slot's next shard alone — the brake on a crash-looping slot's respawn storm
RESPAWN_COOLDOWN = 2.0

#: base-seed distance between shard slots: every boot of slot ``i`` (initial
#: or respawn) serves the stream of ``seed + SLOT_SEED_STRIDE * i``
SLOT_SEED_STRIDE = 112_648


def _dead_pool(position: int, waited: float) -> RuntimeError:
    return RuntimeError("no live shards remain in the serving pool")


def _shut_down(position: int, waited: float) -> PoolShutdown:
    return PoolShutdown(
        f"serving pool shut down with the query still pending "
        f"(queue position {position}, waited {waited:.1f}s)",
        queue_position=position,
        elapsed_seconds=waited,
    )


class ShardedServingPool:
    """N persistent worker pairs, each pulling batches from one queue.

    Args:
        models: the deployable model zoo, keyed by the name clients use.
        num_shards: worker pairs to boot (two OS processes each, spawned
            once — the serving path never spawns).
        max_batch: hard cap on queries batched into one plan execution.
        max_wait: seconds a free shard lets its oldest queued query wait
            for company before running it in a batch that is not full —
            the latency/throughput knob.
        provision_pools: randomness pools to pre-buffer per model for
            batch 1 at boot; any other batch size goes live on its first
            job.  Each party's background provisioner then tops every key
            a job drew from back up to ``HIGH_WATER`` of
            :mod:`repro.runtime.server` after that job, most recently used
            key first, with its resident pools under ``POOL_BUDGET_BYTES``;
            a key no job has used keeps this boot depth.  ``0`` leaves the
            provisioner off, so every job generates its pool cold.
        link_latency: one-way seconds slept before every frame on the
            inter-party link (capacity planning for LAN/WAN-like
            deployments): both parties of every boot, replacements
            included, run ``FaultPlan(latency_ms=1e3 * link_latency)``.
        seed: base seed; job seeds derive deterministically from it.
        max_job_retries: transient-fault budget per batch — a job whose
            shard dies mid-flight is replayed (same ticket, same seed) on
            another or respawned shard up to this many extra attempts
            before the client future is allowed to fail.  A dead shard is
            respawned on its continued seed stream at any budget.
        fault_plans: scripted chaos schedules, ``{shard index: {party:
            FaultPlan}}`` — applied only to the shard slot's *initial*
            boot; replacements come up clean so a bounded retry budget
            always suffices for a bounded schedule.
        heartbeat_deadline: seconds of beat silence after which a party
            counts as wedged (0 = off).  Set, it also has every idle
            worker check its shard each poll interval.
    """

    def __init__(
        self,
        models: Dict[str, ServableModel],
        num_shards: int = 2,
        max_batch: int = 8,
        max_wait: float = 0.01,
        provision_pools: int = 2,
        link_latency: float = 0.0,
        seed: int = 0,
        ring: Optional[FixedPointRing] = None,
        host: str = "127.0.0.1",
        job_timeout: float = 300.0,
        max_job_retries: int = 2,
        fault_plans: Optional[Dict[int, Dict[int, FaultPlan]]] = None,
        heartbeat_deadline: float = 0.0,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_job_retries < 0:
            raise ValueError(f"max_job_retries must be >= 0, got {max_job_retries}")
        self.models = dict(models)
        self.num_shards = num_shards
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.ring = ring or DEFAULT_RING
        self.host = host
        self.job_timeout = job_timeout
        #: every plan compiled so far, per ``(model, batch)`` key
        self._plans: Dict[Tuple[str, int], InferencePlan] = {}
        self._compiling = threading.Lock()
        #: the per-party settings every shard boots from; ``_boot_shard``
        #: replaces only ``base_seed`` and ``fault_plans`` per boot
        self.config = ServerConfig(
            base_seed=seed,
            plans={(name, 1): self._plan(name, 1) for name in models},
            weights={name: servable.weights for name, servable in models.items()},
            provision_pools=provision_pools,
            ring=self.ring,
        )
        self.max_job_retries = max_job_retries
        self.fault_plans = dict(fault_plans or {})
        #: the latency-only plan both parties of every boot run, unless a
        #: scripted plan of ``fault_plans`` replaces it on an initial boot
        self.link_plan = FaultPlan(latency_ms=1e3 * link_latency) if link_latency > 0 else None
        self.heartbeat_deadline = heartbeat_deadline
        self.metrics = Metrics(*POOL_COUNTERS)
        #: the queue's registry, rendered as the ``frontend`` branch of ``/stats``
        self.batching = Metrics("queries_completed", "queries_failed", "batches_dispatched")
        #: text of the most recent failed replacement boot (None = none yet)
        self.last_respawn_error: Optional[str] = None
        self._shards: List[Optional[WorkerShard]] = [None] * num_shards
        #: one registry per shard slot, shared by all its incarnations
        self._slots: Dict[int, Metrics] = {}
        #: slots with a respawn in progress
        self._booting: set = set()
        #: when each slot was last evicted (the idle check's storm brake)
        self._evicted_at: Dict[int, float] = {}
        #: every thread the pool started (shard workers and boots)
        self._threads: List[threading.Thread] = []
        #: the one queue: client queries and sealed jobs, oldest first
        self._pending: List[_Pending] = []
        #: the job each busy shard's worker is running
        self._running: Dict[WorkerShard, _Job] = {}
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        try:
            for index in range(num_shards):
                shard = self._boot_shard(index)
                with self._wake:
                    self._register_locked(index, shard)
        except Exception:
            self.close()
            raise

    def _plan(self, model: str, batch_size: int) -> InferencePlan:
        """A key's plan, compiled on its first use (parties never compile)."""
        with self._compiling:
            key = (model, batch_size)
            if key not in self._plans:
                spec = self.models[model].spec
                self._plans[key] = compile_plan(spec, batch_size=batch_size, ring=self.ring)
            return self._plans[key]

    # -- shard management ----------------------------------------------------- #
    def _shard_fault_plans(self, index: int, inject: bool) -> Optional[Dict[int, FaultPlan]]:
        """The per-party transport plans of one boot of a shard slot.

        Scripted chaos plans fire only when ``inject`` is true (the slot's
        initial boot); the link latency applies to every boot, so a
        replacement shard serves over the same slow link — just without
        the scripted fault that killed its predecessor.
        """
        plans: Dict[int, FaultPlan] = dict(self.fault_plans.get(index, {})) if inject else {}
        if self.link_plan is not None:
            for party in (0, 1):
                plans.setdefault(party, self.link_plan)
        return plans or None

    def _boot_shard(self, index: int, inject: bool = True, **inherited) -> WorkerShard:
        """Boot slot ``index``; a respawn passes its dead predecessor's
        :meth:`~repro.runtime.shard.WorkerShard.successor_state`."""
        shard = WorkerShard(
            index,
            dataclasses.replace(
                self.config,
                base_seed=self.config.base_seed + SLOT_SEED_STRIDE * index,
                fault_plans=self._shard_fault_plans(index, inject),
            ),
            host=self.host,
            timeout=self.job_timeout,
            heartbeat_deadline=self.heartbeat_deadline,
            **inherited,
        )
        # a replacement records into its slot's registry, so the slot's
        # lifetime totals never drop when it boots
        with self._lock:
            shard.metrics = self._slots.setdefault(index, shard.metrics)
        self.metrics.inc("processes_spawned", 2)
        self.metrics.inc("shards_booted")
        return shard

    @property
    def live_shards(self) -> int:
        with self._lock:
            return len(self._live_locked())

    def booting_shards(self) -> int:
        """Shard slots with a respawn in progress."""
        with self._lock:
            return len(self._booting)

    def queue_depth(self, model: Optional[str] = None) -> int:
        """Query rows of ``model`` (of all if ``None``) queued or not yet
        answered."""
        with self._lock:
            items = [*self._pending, *self._running.values()]
        return sum(item.rows for item in items if model in (None, item.model))

    def seconds_per_query(self) -> float:
        """Shard busy time per served query, over every slot's lifetime."""
        with self._lock:
            totals = merge(metrics.snapshot() for metrics in self._slots.values())
        return totals.get("busy_seconds", 0.0) / max(1, totals.get("queries_served", 0))

    def _register_locked(self, index: int, shard: WorkerShard) -> None:
        """Put a booted shard into its slot and start its worker (lock held)."""
        self._shards[index] = shard
        self._start_locked(lambda: self._serve(shard), f"pool-shard{index}")

    def _start_locked(self, target: Callable[[], object], name: str) -> None:
        """Run ``target`` on a daemon thread that :meth:`close` joins."""
        thread = threading.Thread(target=target, name=name, daemon=True)
        self._threads = [t for t in self._threads if t.is_alive()] + [thread]
        thread.start()

    def _respawn_locked(self, dead: WorkerShard) -> None:
        """Register a replacement boot for a dead shard (lock held).

        The replacement continues the predecessor's seed stream (the slot's
        base seed, inherited counters and job ids): jobs dispatched to the
        slot after recovery derive the session seeds the fault-free run
        would have, so the whole serving history stays replayable.
        """
        index = dead.index
        if self._closed:
            return
        self._shards[index] = None
        self._booting.add(index)
        self._evicted_at[index] = time.monotonic()
        boot = dead.successor_state()
        self._start_locked(lambda: self._boot_replacement(index, boot), f"respawn-shard{index}")

    def _boot_replacement(self, index: int, boot: Dict[str, object]) -> None:
        """Boot the replacement :meth:`_respawn_locked` registered for slot
        ``index``, on its own thread.

        A failed boot leaves the slot empty and the evidence (counter + error
        text) in :meth:`stats_snapshot`, and fails the queue if no shard is
        left to serve it; a boot that finishes after :meth:`close` is killed,
        not registered.
        """
        try:
            shard = self._boot_shard(index, inject=False, **boot)
        except Exception as exc:
            with self._wake:
                self._booting.discard(index)
                self.metrics.inc("respawn_failures")
                self.last_respawn_error = f"shard {index}: {exc!r}"
                doomed = self._doomed_locked()
            self._fail(doomed, _dead_pool)
            return
        with self._wake:
            self._booting.discard(index)
            closed = self._closed
            if not closed:
                self._register_locked(index, shard)
                self.metrics.inc("shards_respawned")
        if closed:
            shard.kill()

    # -- the worker of one shard ------------------------------------------------ #
    def _serve(self, shard: WorkerShard) -> None:
        """Whenever ``shard`` is free, take the next job off the queue and
        run it, and check the idle shard on every wake; leave once the shard
        dies, or the pool is closed and drained."""
        retry: Optional[_Job] = None
        while True:
            with self._wake:
                self._running.pop(shard, None)
                if retry is not None:
                    self._pending.insert(0, retry)  # sealed, first in line
                job = None
                while shard.alive and not (self._closed and not self._pending):
                    job, wait = take_batch(
                        self._pending, self.max_batch, self.max_wait,
                        time.perf_counter(), flush=self._closed,
                    )
                    if job is not None:
                        break
                    if self.heartbeat_deadline > 0:
                        poll = shard.poll_interval
                        self._wake.wait(poll if wait is None else min(wait, poll))
                        self._check_idle_locked(shard)
                    else:
                        self._wake.wait(wait)
                if self._pending:
                    self._wake.notify()  # more work: hand it to a free worker
                if job is None:
                    # a dead shard's replacement is registered in the same
                    # locked step that requeued its job: the pool never
                    # looks dead while a replacement is on its way
                    if not shard.alive:
                        self._respawn_locked(shard)
                    doomed = self._doomed_locked()
                    break
                self._running[shard] = job
            retry = self._run(shard, job)
        if not shard.alive:
            # evicted (by a job or an idle check): reap it only now, outside
            # the lock and with its replacement registered — reaping a
            # stopped party blocks
            shard.kill()
        self._fail(doomed, _dead_pool)

    def _check_idle_locked(self, shard: WorkerShard) -> None:
        """Let an idle shard fail its own liveness check, as a job would
        (lock held): its worker then evicts it.  Never once :meth:`close`
        has begun, nor within ``RESPAWN_COOLDOWN`` of the slot's last
        eviction."""
        if self._closed or (
            time.monotonic() - self._evicted_at.get(shard.index, -math.inf) < RESPAWN_COOLDOWN
        ):
            return
        try:
            shard.check_parties()
        except ShardFailure as exc:
            self.metrics.inc("heartbeats_missed", int(isinstance(exc, HeartbeatMiss)))

    def _run(self, shard: WorkerShard, job: _Job) -> Optional[_Job]:
        """Run one job on the worker's shard and settle it.  Returns the job
        if the shard died under it with retry budget left."""
        try:
            plan = self._plan(job.model, len(job.inputs))
            result = shard.run_job(job.model, plan, job.inputs, ticket=job.ticket)
        except Exception as exc:
            if isinstance(exc, ShardFailure):
                # the shard is dead: this worker evicts it after the job
                self.metrics.inc("heartbeats_missed", int(isinstance(exc, HeartbeatMiss)))
                job.ticket = exc.ticket or job.ticket
                job.attempts += 1
                self.metrics.inc("jobs_retried")
                if job.attempts <= self.max_job_retries:
                    return job
                self.metrics.inc("retries_exhausted")
            self._fail([job], exc)
            # the failed futures keep the traceback, which holds this frame:
            # drop the frame's job so no job -> future -> frame cycle remains
            del job
            return None
        if job.attempts:
            self.metrics.inc("jobs_recovered")
        with self._lock:
            del self._running[shard]  # answered: its rows stop counting now
        if job.future is not None:
            _resolve(job.future, result=result)
        if job.queries:
            self._answer(job, result)
        return None

    def _answer(self, job: _Job, result: PoolBatchResult) -> None:
        """Resolve each query of a batch with its row of the logits."""
        done = time.perf_counter()
        size = len(job.queries)
        self.batching.inc("batches_dispatched")
        self.batching.inc("queries_completed", size)
        self.batching.inc(f"batch_size_histogram.{size}")
        self.batching.set("last_complete", done)
        predictions = result.logits.argmax(axis=1)
        for row, query in enumerate(job.queries):
            self.batching.observe("latency_seconds", done - query.submitted_at)
            _resolve(
                query.future,
                result=ServedResult(
                    logits=result.logits[row],
                    predicted_class=int(predictions[row]),
                    model=job.model,
                    batch_size=size,
                    latency_seconds=done - query.submitted_at,
                    online_bytes_per_query=result.payload_bytes_on_wire / size,
                    shard=result.shard,
                    job_seed=result.seed,
                ),
            )

    def _doomed_locked(self) -> List[_Pending]:
        """Empty the queue if no shard is live or booting to serve it.

        A worker still holding a job counts as neither: it decides when it
        leaves, in the locked step that registers its shard's replacement.
        """
        if self._booting or self._running or self._live_locked():
            return []
        doomed, self._pending = self._pending, []
        return doomed

    def _live_locked(self) -> List[WorkerShard]:
        return [s for s in self._shards if s is not None and s.alive]

    def _fail(
        self,
        items: List[_Pending],
        error: Union[BaseException, Callable[[int, float], BaseException]],
    ) -> None:
        """Fail every future of ``items`` with ``error`` — an exception, or
        ``error(position, waited)`` building one per future, positions
        counted oldest first."""
        waiting = sorted(
            (waiter for item in items for waiter in item.waiters()), key=lambda w: w[0]
        )
        now = time.perf_counter()
        failed = sum(
            _resolve(
                future,
                exception=error(position, now - submitted_at) if callable(error) else error,
            )
            for position, (submitted_at, future) in enumerate(waiting)
        )
        self.batching.inc("queries_failed", failed)

    # -- client API ------------------------------------------------------------ #
    def _checked(self, model: str, inputs: np.ndarray) -> np.ndarray:
        servable = self.models.get(model)
        if servable is None:
            raise KeyError(
                f"unknown model {model!r}; deployed: {sorted(self.models)}"
            )
        inputs = np.asarray(inputs, dtype=np.float64)
        spec = servable.spec
        expected = (spec.in_channels, spec.input_size, spec.input_size)
        if inputs.ndim != 4 or tuple(inputs.shape[1:]) != expected or not len(inputs):
            raise ValueError(
                f"model {model!r} expects a batch of shape (N, {expected[0]}, "
                f"{expected[1]}, {expected[2]}) with N >= 1, got {inputs.shape}"
            )
        # the ring encodes NaN, ±inf and anything past its range as one
        # garbage word; NaN fails the comparison too
        bound = self.ring.max_representable
        if not (np.abs(inputs) < bound).all():
            raise ValueError(
                f"model {model!r} takes finite inputs with |x| < {bound:.4g}; "
                "the batch holds NaN, an infinity or a value out of range"
            )
        return inputs

    def _enqueue(self, items: List[_Pending]) -> None:
        """Append to the queue in one locked step and wake a free worker."""
        with self._wake:
            if self._closed:
                raise RuntimeError("serving pool is closed")
            self._pending.extend(items)
            self._wake.notify()
            doomed = self._doomed_locked()
        self._fail(doomed, _dead_pool)

    def submit(self, model: str, query: np.ndarray) -> "Future[ServedResult]":
        """Enqueue one query (CHW, no batch dim); returns a future."""
        return self.submit_many(model, np.asarray(query)[None])[0]

    def submit_many(self, model: str, queries: np.ndarray) -> List["Future[ServedResult]"]:
        """Enqueue a stack of queries in one step; one future per query.

        The queries may share a batch with other requests' queries, but a
        free shard never sees part of the stack.
        """
        queries = self._checked(model, queries)
        now = time.perf_counter()
        items = [_Query(model, query, Future(), now) for query in queries]
        if self.batching.get("first_submit", None) is None:
            self.batching.set("first_submit", now)
        self._enqueue(items)
        return [item.future for item in items]

    def run_batch(self, model: str, inputs: np.ndarray) -> PoolBatchResult:
        """Execute one batch as is (sealed: never merged with queued queries).

        Deterministic entry point for verification: the returned result
        carries the job seed, so the in-process engine at that seed must
        reproduce ``result.logits`` bit for bit.
        """
        future: Future = Future()
        self._enqueue([_Job(model, self._checked(model, inputs), [], time.perf_counter(), future)])
        try:
            return future.result()
        finally:
            del future  # a raised traceback holds this frame: leave no cycle

    # -- observability --------------------------------------------------------- #
    def stats_snapshot(self) -> Dict[str, object]:
        """The pool's registries rendered as its ``/stats`` document.

        ``per_shard`` has one row per slot ever booted, each the slot's one
        registry (every incarnation recorded into it), and the fleet
        totals are the rows' sum — so no total goes backwards on a respawn.
        """
        with self._lock:
            slots = dict(sorted(self._slots.items()))
            live = self._live_locked()
        rows = {index: metrics.snapshot() for index, metrics in slots.items()}
        totals = merge(rows.values())
        for name in ("busy_seconds", "pool_bytes_resident", "pools_evicted", "pools_discarded"):
            del totals[name]  # per-shard figures only
        totals["shard_failures"] = totals.pop("failures")
        for index, row in rows.items():
            row.update(
                _rates(row),
                p50_job_ms=1e3 * slots[index].percentile("job_seconds", 50),
                p95_job_ms=1e3 * slots[index].percentile("job_seconds", 95),
            )
        return {
            **self.metrics.snapshot(),
            "num_shards": self.num_shards,
            "live_shards": len(live),
            "last_respawn_error": self.last_respawn_error,
            "heartbeat_ages": {shard.index: shard.heartbeat_ages() for shard in live},
            **totals,
            **_rates(totals),
            "frontend": self._batching_snapshot(),
            "per_shard": rows,
        }

    def _batching_snapshot(self) -> Dict[str, object]:
        stats = nest(self.batching.snapshot())
        completed, batches = stats["queries_completed"], stats["batches_dispatched"]
        span = stats.pop("last_complete", 0.0) - stats.pop("first_submit", 0.0)
        histogram = stats.get("batch_size_histogram", {})
        stats.update(
            mean_batch_size=completed / batches if batches else 0.0,
            batch_size_histogram={int(n): histogram[n] for n in sorted(histogram, key=int)},
            p50_latency_ms=1e3 * self.batching.percentile("latency_seconds", 50),
            p95_latency_ms=1e3 * self.batching.percentile("latency_seconds", 95),
            queries_per_second=completed / span if span > 0 else 0.0,
        )
        return stats

    # -- lifecycle ------------------------------------------------------------- #
    def close(self, timeout: float = 60.0) -> None:
        """Drain the queue, stop every worker, shut every shard down.

        Workers flush what is queued (partial batches run at once); what
        cannot finish within ``timeout`` fails promptly with a diagnosable
        :class:`~repro.serve.frontend.PoolShutdown` (queue position +
        elapsed wait) instead of hanging on dead shards — every accepted
        future resolves exactly once.
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
            threads = list(self._threads)
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._wake:
            stragglers = self._pending + list(self._running.values())
            self._pending = []
            shards = [s for s in self._shards if s is not None]
        self._fail(stragglers, _shut_down)
        for shard in shards:
            if shard.alive:
                shard.shutdown(timeout=timeout)
            else:
                shard.kill()

    def __enter__(self) -> "ShardedServingPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _rates(counts: Dict[str, float]) -> Dict[str, float]:
    """The two ratios ``/stats`` derives from a row of shard counters:
    the pool hit rate, and the percent of payload the packed wire format
    saved against every payload at a byte per uint8 element (the plans'
    ``unpacked_online_bytes``)."""
    draws = counts["pool_hits"] + counts["pool_misses"]
    unpacked = counts["unpacked_payload_bytes"]
    return {
        "pool_hit_rate": counts["pool_hits"] / draws if draws else 0.0,
        "bytes_saved_pct": 100.0 * (1.0 - counts["payload_bytes"] / unpacked) if unpacked else 0.0,
    }
