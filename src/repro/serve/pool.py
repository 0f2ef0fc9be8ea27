"""Sharded serving pool: N persistent worker pairs behind one frontend.

One two-process worker pair executes one plan at a time — its throughput is
bounded by the round-trip-heavy online phase.  The pool scales horizontally:
``num_shards`` :class:`~repro.runtime.shard.WorkerShard`\\ s (each a pair of
long-lived party-server processes over one persistent TCP connection), a
dispatcher that routes coalesced batches to idle shards, and the
:class:`~repro.serve.frontend.BatchingFrontend` coalescing in front of it
all.

Lifecycle of a shard:

1. **boot** — two party processes are spawned (the only process spawns the
   shard ever performs), the inter-party connection is established once,
   plans for the warm batch sizes are compiled and randomness pools are
   pre-provisioned;
2. **serve** — each coalesced batch becomes one ``JobRequest`` to both
   parties; the shard secret-shares the batch with the job's deterministic
   seed, reconstructs the logits from the returned shares, and cross-checks
   both parties' accounting;
3. **refill** — each party's background provisioner tops its pool buffer up
   whenever it falls below the low-water mark, off the serving path;
4. **evict / respawn / replay** — a shard whose worker processes die is
   evicted, its in-flight job is replayed on another shard from the job's
   :class:`~repro.runtime.shard.JobTicket` (same counter, same pinned
   session seed — the recovered logits are bit-identical to the fault-free
   run), and a replacement pair is booted asynchronously that *continues*
   the dead shard's seed stream.  With ``max_job_retries=0`` the pool keeps
   the legacy evict-only semantics: the in-flight batch fails cleanly and an
   evicted slot is only replaced by an explicit
   :meth:`ShardedServingPool.restart_shard`.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from queue import Empty, Queue
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.events import bytes_saved_pct as _bytes_saved_pct
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.transport import FaultPlan
from repro.runtime.messages import DEFAULT_HIGH_WATER, DEFAULT_LOW_WATER, ServerConfig
from repro.runtime.shard import JobTicket, PoolBatchResult, ShardFailure, WorkerShard
from repro.serve.frontend import (
    BatchingFrontend,
    BatchOutcome,
    PoolShutdown,
    ServableModel,
)

#: seconds slept before attempt ``n`` of a replayed job (``RETRY_BACKOFF * n``)
RETRY_BACKOFF = 0.05


class ShardedServingPool:
    """N persistent worker pairs behind a coalescing frontend.

    Args:
        models: the deployable model zoo, keyed by the name clients use.
        num_shards: worker pairs to boot (two OS processes each, spawned
            once — the serving path never spawns).
        max_batch / max_wait: the frontend's coalescing knobs.
        provision_pools: randomness pools to pre-buffer per warm key at
            boot; each party's background provisioner keeps refilling
            between ``low_water`` and ``high_water`` afterwards.
        warm_batch_sizes: batch sizes to compile/provision ahead of traffic
            (defaults to ``(1, max_batch)``).
        link_latency: one-way seconds slept before every frame on the
            inter-party link (capacity planning for LAN/WAN-like
            deployments) — shorthand for
            ``link_shape=FaultPlan(latency_ms=1e3 * link_latency)``, added
            to ``link_shape.latency_ms`` when both are given.
        seed: base seed; job seeds derive deterministically from it.
        max_job_retries: transient-fault budget per batch — a job whose
            shard dies mid-flight is replayed (same ticket, same seed) on
            another or respawned shard up to this many extra attempts
            before the client future is allowed to fail.  ``0`` disables
            both replay and auto-respawn (the legacy evict-only
            semantics, paired with manual :meth:`restart_shard`).
        fault_plans: scripted chaos schedules, ``{shard index: {party:
            FaultPlan}}`` — applied only to the shard slot's *initial*
            boot; replacements come up clean so a bounded retry budget
            always suffices for a bounded schedule.
        link_shape: a shaping-only :class:`FaultPlan` (latency/jitter/
            bandwidth; no scripted faults) applied to both parties of
            every boot, including replacements — the degraded-network
            regime of the scaling benchmark.
        factory_address: optional ``(host, port)`` of a randomness-factory
            server.  Each party server then provisions pools by fetching
            its party-restricted buffers from the factory inventory,
            falling back to local cold generation (same seed, bit-identical
            material) when the factory is unreachable or misses.
    """

    def __init__(
        self,
        models: Dict[str, ServableModel],
        num_shards: int = 2,
        max_batch: int = 8,
        max_wait: float = 0.01,
        provision_pools: int = 2,
        warm_batch_sizes: Optional[Tuple[int, ...]] = None,
        low_water: int = DEFAULT_LOW_WATER,
        high_water: int = DEFAULT_HIGH_WATER,
        link_latency: float = 0.0,
        seed: int = 0,
        ring: Optional[FixedPointRing] = None,
        host: str = "127.0.0.1",
        job_timeout: float = 300.0,
        max_job_retries: int = 2,
        fault_plans: Optional[Dict[int, Dict[int, FaultPlan]]] = None,
        link_shape: Optional[FaultPlan] = None,
        factory_address: Optional[Tuple[str, int]] = None,
        max_shards: Optional[int] = None,
        heartbeat_interval: float = 1.0,
        heartbeat_deadline: float = 0.0,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if max_job_retries < 0:
            raise ValueError(f"max_job_retries must be >= 0, got {max_job_retries}")
        if max_shards is not None and max_shards < num_shards:
            raise ValueError(
                f"max_shards ({max_shards}) must be >= num_shards ({num_shards})"
            )
        if link_latency > 0.0:
            shape = link_shape or FaultPlan()
            link_shape = dataclasses.replace(
                shape, latency_ms=shape.latency_ms + 1e3 * link_latency
            )
        if link_shape is not None and link_shape.drops:
            raise ValueError(
                "link_shape must be shaping-only (no drop_at_round); put "
                "scripted faults in fault_plans instead"
            )
        self.models = dict(models)
        self.num_shards = num_shards
        self.ring = ring or DEFAULT_RING
        self.host = host
        self.job_timeout = job_timeout
        #: the per-party settings every shard boots from; ``_boot_shard``
        #: replaces only ``base_seed`` and ``fault_plans`` per boot
        self.config = ServerConfig(
            base_seed=seed,
            models={name: servable.spec for name, servable in models.items()},
            weights={name: servable.weights for name, servable in models.items()},
            warm_batch_sizes=(
                tuple(warm_batch_sizes) if warm_batch_sizes is not None else (1, max_batch)
            ),
            provision_pools=provision_pools,
            low_water=low_water,
            high_water=high_water,
            ring=self.ring,
            factory_address=tuple(factory_address) if factory_address else None,
            heartbeat_interval=heartbeat_interval,
        )
        self.max_job_retries = max_job_retries
        self.fault_plans = dict(fault_plans or {})
        self.link_shape = link_shape
        self.max_shards = max_shards if max_shards is not None else num_shards
        self.heartbeat_deadline = heartbeat_deadline
        self.processes_spawned = 0
        self.shards_booted = 0
        self.jobs_retried = 0
        self.jobs_recovered = 0
        self.retries_exhausted = 0
        self.shards_respawned = 0
        self.shards_retired = 0
        self.respawn_failures = 0
        #: text of the most recent failed replacement boot (None = none yet)
        self.last_respawn_error: Optional[str] = None
        self._shards: List[Optional[WorkerShard]] = []
        #: gracefully-retired shards, kept so lifetime aggregates never drop
        self._retired: List[WorkerShard] = []
        self._restarting: set = set()
        self._respawn_threads: List[threading.Thread] = []
        self._idle: "Queue[WorkerShard]" = Queue()
        self._shard_lock = threading.Lock()
        self._closed = False
        self._rejecting = False
        # sized for the autoscaled ceiling, so added shards actually add
        # dispatch concurrency instead of queueing behind a static cap
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_shards, thread_name_prefix="pool-shard"
        )
        # provisioning lives in the party servers; the frontend only
        # coalesces and hands batches to the shard dispatchers
        self.frontend = BatchingFrontend(
            self.models,
            self._run_coalesced,
            self._executor,
            max_batch=max_batch,
            max_wait=max_wait,
        )
        try:
            for index in range(num_shards):
                shard = self._boot_shard(index)
                # register before enqueueing: live_shards must see the shard
                # no later than any dispatcher that pulls it from the queue
                self._shards.append(shard)
                self._idle.put(shard)
        except Exception:
            self.close()
            raise

    # -- shard management ----------------------------------------------------- #
    def _shard_fault_plans(self, index: int, inject: bool) -> Optional[Dict[int, FaultPlan]]:
        """The per-party transport plans of one boot of a shard slot.

        Scripted chaos plans fire only when ``inject`` is true (the slot's
        initial boot); permanent link shaping applies to every boot, so a
        replacement shard serves over the same degraded link — just without
        the scripted fault that killed its predecessor.
        """
        plans: Dict[int, FaultPlan] = dict(self.fault_plans.get(index, {})) if inject else {}
        if self.link_shape is not None:
            for party in (0, 1):
                plans.setdefault(party, self.link_shape)
        return plans or None

    def _boot_shard(
        self,
        index: int,
        base_seed: Optional[int] = None,
        initial_counters: Optional[Dict[Tuple[str, int], int]] = None,
        initial_job_id: int = 0,
        inject: bool = True,
    ) -> WorkerShard:
        if base_seed is None:
            # distinct seed stream per shard slot *and* per boot generation,
            # so a restarted shard never replays a previous incarnation's
            # jobs — unless the caller pins the predecessor's base_seed to
            # *continue* its stream (the retry/replay respawn path)
            base_seed = (
                self.config.base_seed + 7919 * index + 104_729 * self.shards_booted
            )
        shard = WorkerShard(
            index,
            dataclasses.replace(
                self.config,
                base_seed=base_seed,
                fault_plans=self._shard_fault_plans(index, inject),
            ),
            host=self.host,
            timeout=self.job_timeout,
            heartbeat_deadline=self.heartbeat_deadline,
            initial_counters=initial_counters,
            initial_job_id=initial_job_id,
        )
        self.processes_spawned += 2
        self.shards_booted += 1
        return shard

    @property
    def live_shards(self) -> int:
        with self._shard_lock:
            return sum(1 for s in self._shards if s is not None and s.alive)

    def shards_view(self) -> List[WorkerShard]:
        """A consistent snapshot of the currently-registered shards."""
        with self._shard_lock:
            return [s for s in self._shards if s is not None]

    def booting_shards(self) -> int:
        """Shard slots with a boot (respawn or scale-up) in progress."""
        with self._shard_lock:
            return len(self._restarting)

    def add_shard(self, wait: bool = True) -> Optional[int]:
        """Grow the pool by one freshly-booted shard pair (autoscale-up).

        The new slot gets its own seed stream (it has no predecessor to
        continue).  With ``wait=False`` the boot happens on a background
        thread and the call returns immediately — the supervisor's sweep
        must not stall behind a multi-second boot.  Returns the new slot
        index (``None`` when deferred to a thread or the pool is closed).
        """
        with self._shard_lock:
            if self._closed:
                return None
            index = len(self._shards)
            self._shards.append(None)  # reserve the slot
            self._restarting.add(index)

        if wait:
            return index if self._boot_into_slot(index) else None
        self._start_background(
            lambda: self._boot_into_slot(index), f"scale-up-shard{index}"
        )
        return None

    def _boot_into_slot(self, index: int, respawn: bool = False, **boot) -> bool:
        """Boot a pair into a slot the caller reserved in ``_restarting``.

        Shared by scale-up and respawn.  A failed boot leaves the slot empty
        and the evidence (counter + error text) in :meth:`stats_snapshot`;
        a boot that finishes after :meth:`close` is killed, not registered.
        """
        try:
            shard = self._boot_shard(index, inject=False, **boot)
        except Exception as exc:
            with self._shard_lock:
                self._restarting.discard(index)
                self.respawn_failures += 1
                self.last_respawn_error = f"shard {index}: {exc!r}"
            return False
        with self._shard_lock:
            closed = self._closed
            if not closed:
                self._shards[index] = shard
                self.shards_respawned += int(respawn)
            self._restarting.discard(index)
        if closed:
            shard.kill()
            return False
        self._idle.put(shard)
        return True

    def _start_background(self, target, name: str) -> None:
        """Run a boot/retire on a daemon thread that :meth:`close` joins."""
        thread = threading.Thread(target=target, name=name, daemon=True)
        with self._shard_lock:
            self._respawn_threads = [
                t for t in self._respawn_threads if t.is_alive()
            ]
            self._respawn_threads.append(thread)
        thread.start()

    def retire_shard(self) -> Optional[int]:
        """Shrink the pool by one *idle* shard (autoscale-down).

        Claims a shard from the idle queue (never preempts a running job),
        removes it from the serving rotation, and shuts it down gracefully
        on a background thread.  Refuses to retire the last live shard.
        Returns the retired slot index, or ``None`` if nothing could be
        retired without waiting.
        """
        try:
            shard = self._idle.get_nowait()
        except Empty:
            return None
        if not shard.alive:
            return None  # evicted while queued; its entry is consumed anyway
        with self._shard_lock:
            live = sum(1 for s in self._shards if s is not None and s.alive)
            if self._closed or live <= 1:
                self._idle.put(shard)
                return None
            self._shards[shard.index] = None
            self._retired.append(shard)
            self.shards_retired += 1
        self._start_background(shard.shutdown, f"retire-shard{shard.index}")
        return shard.index

    def restart_shard(self, index: int) -> None:
        """Replace an evicted shard with a freshly booted worker pair."""
        with self._shard_lock:
            if index < 0 or index >= len(self._shards):
                raise IndexError(f"no shard slot {index}")
            old = self._shards[index]
            if old is not None and old.alive:
                raise RuntimeError(f"shard {index} is still alive")
            if index in self._restarting:
                raise RuntimeError(f"shard {index} restart already in progress")
            self._restarting.add(index)
        try:
            if old is not None:
                old.kill()
            # a manual restart is a clean slate: fresh seed stream, and any
            # scripted chaos plan of the slot's first boot stays spent
            shard = self._boot_shard(index, inject=False)
            with self._shard_lock:
                self._shards[index] = shard
            # enqueue only after the slot is registered, so live_shards
            # cannot report 0 while the replacement is idle and serviceable
            self._idle.put(shard)
        finally:
            with self._shard_lock:
                self._restarting.discard(index)

    def _respawn_shard_async(self, dead: WorkerShard) -> None:
        """Boot a replacement for a dead shard without blocking the retry.

        The replacement continues the predecessor's seed stream (inherited
        base seed, counters and job ids), so jobs dispatched to the slot
        after recovery still derive the same session seeds the fault-free
        run would have — the whole serving history stays replayable.
        """
        index = dead.index
        with self._shard_lock:
            if self._closed or index in self._restarting:
                return
            self._restarting.add(index)
        boot = dict(base_seed=dead.config.base_seed, **dead.successor_state())
        self._start_background(
            lambda: self._boot_into_slot(index, respawn=True, **boot),
            f"respawn-shard{index}",
        )

    def _acquire_shard(self) -> WorkerShard:
        deadline = time.monotonic() + self.job_timeout
        dead_pool_since: Optional[float] = None
        while True:
            if self._rejecting:
                # the close() drain window is over: fail promptly instead of
                # waiting out job_timeout on a pool that is going away
                raise PoolShutdown(
                    "serving pool shut down while the batch was waiting "
                    "for a shard"
                )
            if self.live_shards == 0:
                with self._shard_lock:
                    restarting = bool(self._restarting)
                if restarting:
                    # a replacement pair is booting; keep waiting for it
                    dead_pool_since = None
                else:
                    # zero live and nothing booting *yet*: the dispatcher or
                    # supervisor that saw the death may not have registered
                    # the respawn — only give up once the state persists
                    now = time.monotonic()
                    if dead_pool_since is None:
                        dead_pool_since = now
                    elif now - dead_pool_since > 2.0:
                        raise RuntimeError(
                            "no live shards remain in the serving pool"
                        )
            else:
                dead_pool_since = None
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"no shard became idle within {self.job_timeout:.0f}s"
                )
            try:
                shard = self._idle.get(timeout=min(remaining, 0.5))
            except Empty:
                continue
            if shard.alive:
                return shard
            # evicted while queued; drop it and keep looking

    def _run_on_shard(self, model: str, inputs: np.ndarray) -> PoolBatchResult:
        """Run one batch, replaying it on failures until the budget is spent.

        A shard that dies mid-job is evicted and respawned asynchronously;
        the in-flight job's ticket (counter + session seed, fixed at the
        first attempt) is replayed on the next shard that frees up, so a
        transient fault costs latency, never a client future — and the
        recovered logits are bit-identical to the fault-free run.
        """
        attempts = 0
        ticket: Optional[JobTicket] = None
        while True:
            shard = self._acquire_shard()
            try:
                result = shard.run_job(model, inputs, ticket=ticket)
            except ShardFailure as exc:
                shard.kill()  # evict: never returns to the idle queue
                if self.max_job_retries > 0:
                    # heal the slot off the retry path; a zero budget keeps
                    # the legacy evict-only semantics (manual restart_shard)
                    self._respawn_shard_async(shard)
                ticket = exc.ticket or ticket
                attempts += 1
                with self._shard_lock:
                    self.jobs_retried += 1
                    if attempts > self.max_job_retries:
                        self.retries_exhausted += 1
                if attempts > self.max_job_retries:
                    raise
                time.sleep(RETRY_BACKOFF * attempts)
                continue
            finally:
                if shard.alive:
                    self._idle.put(shard)
            if attempts:
                with self._shard_lock:
                    self.jobs_recovered += 1
            return result

    def _run_coalesced(
        self, model: str, servable: ServableModel, inputs: np.ndarray
    ) -> BatchOutcome:
        """The frontend's backend: one coalesced batch on the shard pool."""
        result = self._run_on_shard(model, inputs)
        return BatchOutcome(
            logits=result.logits,
            online_bytes_per_query=result.payload_bytes_on_wire / max(result.batch_size, 1),
            shard=result.shard,
            job_seed=result.seed,
        )

    # -- client API ------------------------------------------------------------ #
    def submit(self, model: str, query: np.ndarray):
        """Enqueue one query (CHW, no batch dim); returns a future."""
        return self.frontend.submit(model, query)

    def submit_many(self, model: str, queries: np.ndarray):
        return self.frontend.submit_many(model, queries)

    def run_batch(self, model: str, inputs: np.ndarray) -> PoolBatchResult:
        """Execute one batch directly (no coalescing) on an idle shard.

        Deterministic entry point for verification: the returned result
        carries the job seed, so the in-process engine at that seed must
        reproduce ``result.logits`` bit for bit.
        """
        servable = self.models.get(model)
        if servable is None:
            raise KeyError(
                f"unknown model {model!r}; deployed: {sorted(self.models)}"
            )
        inputs = np.asarray(inputs)
        spec = servable.spec
        expected = (spec.in_channels, spec.input_size, spec.input_size)
        if inputs.ndim != 4 or tuple(inputs.shape[1:]) != expected:
            raise ValueError(
                f"model {model!r} expects a batch of shape (N, {expected[0]}, "
                f"{expected[1]}, {expected[2]}), got {inputs.shape}"
            )
        return self._run_on_shard(model, inputs)

    def warm_up(
        self,
        batch_sizes: Optional[Tuple[int, ...]] = None,
        count: Optional[int] = None,
        acquire_timeout: float = 5.0,
    ) -> None:
        """Synchronously top up idle shards' pool buffers.

        Holds every shard it can acquire until all are provisioned, so no
        shard is warmed twice in one call.  Best-effort under concurrent
        traffic: a shard that stays busy longer than ``acquire_timeout``
        keeps serving and is skipped (its own background provisioner still
        refills it after every job).
        """
        batch_sizes = tuple(batch_sizes) if batch_sizes else self.config.warm_batch_sizes
        count = count if count is not None else self.config.high_water
        held: List[WorkerShard] = []
        try:
            while len(held) < self.live_shards:
                try:
                    shard = self._idle.get(timeout=acquire_timeout)
                except Empty:
                    break  # the rest are busy serving; skip them
                if not shard.alive:
                    continue  # evicted while queued
                held.append(shard)
            for shard in held:
                try:
                    for model in self.models:
                        for batch_size in batch_sizes:
                            shard.provision(model, batch_size, count)
                except ShardFailure:
                    shard.kill()
        finally:
            for shard in held:
                if shard.alive:
                    self._idle.put(shard)

    # -- observability --------------------------------------------------------- #
    def stats_snapshot(self) -> Dict[str, object]:
        """Aggregate + per-shard serving statistics."""
        with self._shard_lock:
            # retired first, so a reused slot index (manual restart after a
            # retire) is reported by its live incarnation
            shards = list(self._retired) + [
                s for s in self._shards if s is not None
            ]
        per_shard = {s.index: s.stats_snapshot() for s in shards}
        heartbeat_ages = {
            s.index: s.heartbeat_ages() for s in shards if s.alive
        }
        pool_hits = sum(snap["pool_hits"] for snap in per_shard.values())
        pool_misses = sum(snap["pool_misses"] for snap in per_shard.values())
        payload_bytes = sum(snap["payload_bytes"] for snap in per_shard.values())
        unpacked_bytes = sum(
            snap["unpacked_payload_bytes"] for snap in per_shard.values()
        )
        return {
            "num_shards": self.num_shards,
            "max_shards": self.max_shards,
            "live_shards": self.live_shards,
            "shards_booted": self.shards_booted,
            "shards_respawned": self.shards_respawned,
            "respawn_failures": self.respawn_failures,
            "last_respawn_error": self.last_respawn_error,
            "shards_retired": self.shards_retired,
            "heartbeat_ages": heartbeat_ages,
            "processes_spawned": self.processes_spawned,
            "jobs_retried": self.jobs_retried,
            "jobs_recovered": self.jobs_recovered,
            "retries_exhausted": self.retries_exhausted,
            "jobs_executed": sum(snap["jobs_executed"] for snap in per_shard.values()),
            "queries_served": sum(snap["queries_served"] for snap in per_shard.values()),
            "shard_failures": sum(snap["failures"] for snap in per_shard.values()),
            "pool_hits": pool_hits,
            "pool_misses": pool_misses,
            "pool_hit_rate": pool_hits / (pool_hits + pool_misses)
            if (pool_hits + pool_misses)
            else 0.0,
            "payload_bytes": payload_bytes,
            "unpacked_payload_bytes": unpacked_bytes,
            "bytes_saved_pct": _bytes_saved_pct(payload_bytes, unpacked_bytes),
            "cpu_time_ns": sum(snap["cpu_time_ns"] for snap in per_shard.values()),
            "fused_kernel_calls": sum(
                snap["fused_kernel_calls"] for snap in per_shard.values()
            ),
            "pools_from_factory": sum(
                snap["pools_from_factory"] for snap in per_shard.values()
            ),
            "factory_fallbacks": sum(
                snap["factory_fallbacks"] for snap in per_shard.values()
            ),
            "factory_inventory_depth": max(
                (snap["factory_inventory_depth"] for snap in per_shard.values()),
                default=-1,
            ),
            "frontend": self.frontend.stats_snapshot(),
            "per_shard": per_shard,
        }

    # -- lifecycle ------------------------------------------------------------- #
    def close(self, timeout: float = 60.0) -> None:
        """Drain the frontend, stop the executor, shut every shard down.

        Batches that cannot finish within the drain window fail promptly
        with :class:`~repro.serve.frontend.PoolShutdown` instead of hanging
        on dead shards — every accepted future resolves exactly once.
        """
        if self._closed:
            return
        self._closed = True
        self.frontend.close(timeout=timeout)
        # the drain window is over: batches still waiting for a shard (e.g.
        # because shards died during the drain) now fail fast
        self._rejecting = True
        self._executor.shutdown(wait=True)
        with self._shard_lock:
            respawns = list(self._respawn_threads)
        for thread in respawns:
            thread.join(timeout=timeout)
        with self._shard_lock:
            shards = [s for s in self._shards if s is not None] + list(self._retired)
        for shard in shards:
            if shard.alive:
                shard.shutdown(timeout=timeout)
            else:
                shard.kill()

    def __enter__(self) -> "ShardedServingPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
