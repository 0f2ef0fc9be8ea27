"""Sharded serving pool: N persistent worker pairs behind one frontend.

One two-process worker pair executes one plan at a time — its throughput is
bounded by the round-trip-heavy online phase.  The pool scales horizontally:
``num_shards`` worker pairs (each a pair of long-lived
:func:`repro.runtime.server.run_party_server` processes over one persistent
TCP connection), a dispatcher that routes coalesced batches to idle shards,
and the existing :class:`~repro.serve.frontend.BatchingFrontend` coalescing
in front of it all.

Lifecycle of a shard:

1. **boot** — two party processes are spawned (the only process spawns the
   shard ever performs), the inter-party connection is established once,
   plans for the warm batch sizes are compiled and randomness pools are
   pre-provisioned;
2. **serve** — each coalesced batch becomes one :class:`JobRequest` to both
   parties; the shard secret-shares the batch with the job's deterministic
   seed, reconstructs the logits from the returned shares, and cross-checks
   both parties' accounting;
3. **refill** — each party's background provisioner tops its pool buffer up
   whenever it falls below the low-water mark, off the serving path;
4. **evict / respawn / replay** — a shard whose worker processes die is
   evicted, its in-flight job is replayed on another shard from the job's
   :class:`JobTicket` (same counter, same pinned session seed — the
   recovered logits are bit-identical to the fault-free run), and a
   replacement pair is booted asynchronously that *continues* the dead
   shard's seed stream.  With ``max_job_retries=0`` the pool keeps the
   legacy evict-only semantics: the in-flight batch fails cleanly and an
   evicted slot is only replaced by an explicit
   :meth:`ShardedServingPool.restart_shard`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from queue import Empty, Queue
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.events import bytes_saved_pct as _bytes_saved_pct
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.sharing import share
from repro.crypto.transport import FaultPlan
from repro.models.specs import ModelSpec
from repro.runtime.server import (
    Heartbeat,
    JobFailed,
    JobReport,
    JobRequest,
    ProvisionReport,
    ProvisionRequest,
    ServerConfig,
    ServerStats,
    ShutdownRequest,
    derive_job_seed,
    run_party_server,
)
from repro.serve.cache import ServableModel
from repro.serve.frontend import (
    BatchingFrontend,
    BatchOutcome,
    PoolShutdown,
    _PendingQuery,
)


@dataclass(frozen=True)
class JobTicket:
    """The identity of one job, fixed at its *first* dispatch.

    ``seed`` is the session seed the first attempt ran (or would have run)
    under.  A retry replays the ticket verbatim on another shard — same
    counter, same pinned seed — so the recovered logits are bit-identical
    to what the fault-free run would have produced.
    """

    model: str
    batch_size: int
    counter: int
    seed: int


class ShardFailure(RuntimeError):
    """A worker pair died or desynchronized; the shard must be evicted.

    ``ticket`` carries the identity of the job that was in flight when the
    shard died (``None`` if the failure struck outside a job), so the
    pool's retry loop can replay it deterministically elsewhere.
    """

    ticket: Optional[JobTicket] = None


class HeartbeatMiss(ShardFailure):
    """A party went silent past the heartbeat deadline; the shard is wedged.

    Distinguishes a *wedged* worker (process alive but not making progress
    — stopped, deadlocked, or stuck on a dead peer link) from a merely
    *slow* one: a slow party keeps heartbeating from its background thread,
    so only true silence trips this.  Carries the last liveness evidence so
    the stall is diagnosable: when the party was last seen, which job it
    was executing and how many protocol rounds it had sent.
    """

    def __init__(
        self,
        message: str,
        party: int = -1,
        last_seen: Optional[float] = None,
        job_id: Optional[int] = None,
        round_index: int = 0,
    ) -> None:
        super().__init__(message)
        self.party = party
        self.last_seen = last_seen
        self.job_id = job_id
        self.round_index = round_index


@dataclass
class PoolBatchResult:
    """One batch executed on a shard: reconstructed output + accounting."""

    logits: np.ndarray
    model: str
    batch_size: int
    seed: int
    shard: int
    wall_seconds: float
    online_seconds: float
    payload_bytes_on_wire: int
    pool_hits: int
    pool_misses: int
    #: pids of the two party processes that served the job — constant across
    #: a shard's lifetime (the measurable form of "no per-request spawns")
    worker_pids: Tuple[int, int] = (0, 0)
    #: frame-format-v1 equivalent of ``payload_bytes_on_wire`` (no sub-byte
    #: packing) — what this job would have shipped before the packed codec
    unpacked_payload_bytes: int = 0
    #: local-compute time of the job's online phase (max over the two
    #: parties, mirroring ``online_seconds`` — they run concurrently)
    cpu_time_ns: int = 0
    #: fused-kernel invocations of the job
    fused_kernel_calls: int = 0

    @property
    def bytes_saved_pct(self) -> float:
        """Percent of payload the packed wire format saved for this job."""
        return _bytes_saved_pct(self.payload_bytes_on_wire, self.unpacked_payload_bytes)


@dataclass
class ShardStats:
    """Lifetime counters of one shard (driver-side view)."""

    jobs_executed: int = 0
    queries_served: int = 0
    failures: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    busy_seconds: float = 0.0
    payload_bytes: int = 0
    unpacked_payload_bytes: int = 0
    cpu_time_ns: int = 0
    fused_kernel_calls: int = 0
    #: pools the two parties fetched from the randomness factory inventory
    #: (lifetime totals, refreshed from provision reports and final stats)
    pools_from_factory: int = 0
    #: factory fetches that failed over to local cold generation
    factory_fallbacks: int = 0
    #: last observed factory inventory depth (-1 = never fetched)
    factory_inventory_depth: int = -1
    job_latencies: Deque[float] = field(default_factory=lambda: deque(maxlen=10_000))

    @property
    def pool_hit_rate(self) -> float:
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    @property
    def bytes_saved_pct(self) -> float:
        """Percent of payload the packed wire format saved, shard lifetime."""
        return _bytes_saved_pct(self.payload_bytes, self.unpacked_payload_bytes)

    def snapshot(self) -> Dict[str, object]:
        latencies = list(self.job_latencies)
        return {
            "jobs_executed": self.jobs_executed,
            "queries_served": self.queries_served,
            "failures": self.failures,
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "pool_hit_rate": self.pool_hit_rate,
            "busy_seconds": self.busy_seconds,
            "payload_bytes": self.payload_bytes,
            "unpacked_payload_bytes": self.unpacked_payload_bytes,
            "bytes_saved_pct": self.bytes_saved_pct,
            "cpu_time_ns": self.cpu_time_ns,
            "fused_kernel_calls": self.fused_kernel_calls,
            "pools_from_factory": self.pools_from_factory,
            "factory_fallbacks": self.factory_fallbacks,
            "factory_inventory_depth": self.factory_inventory_depth,
            "p50_job_ms": 1e3 * float(np.percentile(latencies, 50)) if latencies else 0.0,
            "p95_job_ms": 1e3 * float(np.percentile(latencies, 95)) if latencies else 0.0,
        }


class WorkerShard:
    """One persistent worker pair: two party-server processes, one session.

    All serving-path interaction goes through :meth:`run_job`; the shard is
    handed to exactly one dispatcher thread at a time (via the pool's idle
    queue), and an internal lock guards against misuse beyond that.
    """

    def __init__(
        self,
        index: int,
        models: Dict[str, ServableModel],
        base_seed: int,
        ring: FixedPointRing = DEFAULT_RING,
        host: str = "127.0.0.1",
        timeout: float = 300.0,
        link_latency: float = 0.0,
        warm_batch_sizes: Tuple[int, ...] = (),
        provision_pools: int = 0,
        low_water: int = 1,
        high_water: int = 3,
        verify: bool = True,
        fault_plans: Optional[Dict[int, FaultPlan]] = None,
        initial_counters: Optional[Dict[Tuple[str, int], int]] = None,
        initial_job_id: int = 0,
        factory_address: Optional[Tuple[str, int]] = None,
        factory_announce_ahead: int = 4,
        heartbeat_interval: float = 1.0,
        heartbeat_deadline: float = 0.0,
    ) -> None:
        self.index = index
        self.models = models
        self.base_seed = base_seed
        self.ring = ring
        self.host = host
        self.timeout = timeout
        self.alive = False
        self.stats = ShardStats()
        self.final_server_stats: Dict[int, ServerStats] = {}
        self._lock = threading.Lock()
        #: seconds of heartbeat silence after which a party counts as wedged
        #: (0 disables enforcement — only the hard ``timeout`` applies).
        #: Enforced only once a party has heartbeat at least once, so a slow
        #: boot (plan compilation, provisioning) never trips it.
        self.heartbeat_deadline = heartbeat_deadline
        self._poll_interval = (
            min(0.25, heartbeat_deadline / 4) if heartbeat_deadline > 0 else 0.5
        )
        # _recv and the supervisor's poll_heartbeats both read the pipes;
        # per-party locks serialize them, and messages a heartbeat sweep
        # pulls out from under a dispatcher are pushed back here (checked
        # before the pipe, preserving order).
        self._pipe_locks = [threading.Lock(), threading.Lock()]
        self._pushback: List[Deque] = [deque(), deque()]
        self.last_heartbeat: List[Optional[Heartbeat]] = [None, None]
        self._last_beat_mono: List[Optional[float]] = [None, None]
        # A replacement for a dead shard inherits its predecessor's counters
        # (and base seed), so the slot's job-seed stream continues exactly
        # where the fault interrupted it — later jobs still match the
        # fault-free run bit for bit.
        self._counters: Dict[Tuple[str, int], int] = dict(initial_counters or {})
        self._next_job_id = initial_job_id
        self._pipes: List = []
        self._processes: List[mp.Process] = []

        config = ServerConfig(
            base_seed=base_seed,
            models={name: servable.spec for name, servable in models.items()},
            weights={name: servable.weights for name, servable in models.items()},
            warm_batch_sizes=tuple(warm_batch_sizes),
            provision_pools=provision_pools,
            low_water=low_water,
            high_water=high_water,
            ring=ring,
            verify=verify,
            fault_plans=dict(fault_plans) if fault_plans else None,
            factory_address=factory_address,
            factory_announce_ahead=factory_announce_ahead,
            heartbeat_interval=heartbeat_interval,
        )
        # Party 0 binds an ephemeral port itself and announces the
        # kernel-assigned number before party 1 boots — race-free even when
        # many pools boot shards concurrently (e.g. parallel CI jobs).
        port = 0
        try:
            for party in (0, 1):
                parent_conn, child_conn = mp.Pipe()
                process = mp.Process(
                    target=run_party_server,
                    args=(child_conn, party, host, port),
                    kwargs={"timeout": timeout, "link_latency": link_latency},
                    name=f"shard{index}-party{party}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                parent_conn.send(config)
                self._pipes.append(parent_conn)
                self._processes.append(process)
                if party == 0:
                    announcement = self._recv(0, timeout)
                    if (
                        not isinstance(announcement, tuple)
                        or len(announcement) != 2
                        or announcement[0] != "bound-port"
                    ):
                        raise ShardFailure(
                            f"shard {index} party 0 announced {announcement!r}, "
                            "expected its bound port"
                        )
                    port = int(announcement[1])
            for party in (0, 1):
                ready = self._recv(party, timeout)
                if ready != "ready":
                    raise ShardFailure(
                        f"shard {index} party {party} failed to boot: {ready!r}"
                    )
        except Exception:
            self.kill()
            raise
        self.alive = True

    # -- control-pipe plumbing ---------------------------------------------- #
    def _recv(self, party: int, timeout: float):
        """Receive the next non-heartbeat message from one party.

        Polls in short slices instead of one long block: heartbeat frames
        interleaved with the reply are absorbed (refreshing the party's
        last-seen time), and a party whose heartbeats go silent for longer
        than ``heartbeat_deadline`` raises :class:`HeartbeatMiss` carrying
        the last liveness evidence — surfacing a wedged worker in seconds
        instead of an opaque ``timeout``-long stall.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._pipe_locks[party]:
                if self._pushback[party]:
                    message = self._pushback[party].popleft()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ShardFailure(
                            f"shard {self.index} party {party} did not answer "
                            f"within {timeout:.0f}s"
                        )
                    try:
                        if not self._pipes[party].poll(
                            min(remaining, self._poll_interval)
                        ):
                            self._check_heartbeat_deadline(party)
                            continue
                        message = self._pipes[party].recv()
                    except ShardFailure:
                        raise
                    except (EOFError, OSError) as exc:
                        raise ShardFailure(
                            f"shard {self.index} party {party} pipe broke: {exc}"
                        ) from exc
            if isinstance(message, Heartbeat):
                self._note_heartbeat(party, message)
                continue
            if isinstance(message, BaseException):
                raise ShardFailure(
                    f"shard {self.index} party {party} failed: {message}"
                ) from message
            return message

    def _note_heartbeat(self, party: int, beat: Heartbeat) -> None:
        with self._lock:
            self.last_heartbeat[party] = beat
            self._last_beat_mono[party] = time.monotonic()

    def _check_heartbeat_deadline(self, party: int) -> None:
        if self.heartbeat_deadline <= 0:
            return
        with self._lock:
            last_mono = self._last_beat_mono[party]
            beat = self.last_heartbeat[party]
        if last_mono is None:
            return  # never heartbeat yet (booting, or emission disabled)
        silence = time.monotonic() - last_mono
        if silence <= self.heartbeat_deadline:
            return
        raise HeartbeatMiss(
            f"shard {self.index} party {party} missed its heartbeat deadline "
            f"({silence:.1f}s > {self.heartbeat_deadline:.1f}s silent; last "
            f"seen at {beat.timestamp:.3f} in job "
            f"{beat.job_id if beat.job_id is not None else '<idle>'} after "
            f"{beat.round_index} round frames)",
            party=party,
            last_seen=beat.timestamp,
            job_id=beat.job_id,
            round_index=beat.round_index,
        )

    def poll_heartbeats(self) -> Dict[int, Optional[float]]:
        """Drain pending heartbeat frames without blocking any dispatcher.

        Called periodically by the supervisor so idle shards' liveness stays
        fresh (and their pipes never fill with unread frames).  Per-party
        locks are taken non-blockingly: a dispatcher already on the pipe
        absorbs heartbeats itself.  Non-heartbeat messages encountered are
        pushed back for the dispatcher, in order.  Returns the current
        heartbeat ages (see :meth:`heartbeat_ages`).
        """
        if self.alive:
            for party in (0, 1):
                lock = self._pipe_locks[party]
                if not lock.acquire(blocking=False):
                    continue
                try:
                    conn = self._pipes[party]
                    while conn.poll(0):
                        message = conn.recv()
                        if isinstance(message, Heartbeat):
                            self._note_heartbeat(party, message)
                        else:
                            self._pushback[party].append(message)
                except (EOFError, OSError):
                    pass  # process death is the supervisor's other signal
                finally:
                    lock.release()
        return self.heartbeat_ages()

    def heartbeat_ages(self) -> Dict[int, Optional[float]]:
        """Seconds since each party's last heartbeat (None = never seen)."""
        now = time.monotonic()
        with self._lock:
            return {
                party: (now - mono if mono is not None else None)
                for party, mono in enumerate(self._last_beat_mono)
            }

    def _send(self, party: int, message) -> None:
        try:
            self._pipes[party].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardFailure(
                f"shard {self.index} party {party} pipe broke: {exc}"
            ) from exc

    # -- serving path --------------------------------------------------------- #
    def run_job(
        self,
        model: str,
        spec: ModelSpec,
        inputs: np.ndarray,
        ticket: Optional[JobTicket] = None,
    ) -> PoolBatchResult:
        """Execute one batch on this shard's persistent worker pair.

        ``ticket`` replays a job that already ran (or started) elsewhere:
        the counter and session seed are taken from the ticket instead of
        this shard's own stream, so the logits come out bit-identical to
        the original attempt.  Without a ticket the shard mints one from
        its deterministic counter stream.
        """
        if not self.alive:
            raise ShardFailure(f"shard {self.index} is not alive")
        inputs = np.asarray(inputs, dtype=np.float64)
        batch_size = int(inputs.shape[0])
        start = time.perf_counter()
        if ticket is None:
            with self._lock:
                key = (model, batch_size)
                counter = self._counters.get(key, 0)
                self._counters[key] = counter + 1
            seed = derive_job_seed(self.base_seed, model, batch_size, counter)
            ticket = JobTicket(
                model=model, batch_size=batch_size, counter=counter, seed=seed
            )
        else:
            # replay: never re-issue the replayed counter on this shard
            with self._lock:
                key = (ticket.model, ticket.batch_size)
                self._counters[key] = max(
                    self._counters.get(key, 0), ticket.counter + 1
                )
        try:
            with self._lock:
                job_id = self._next_job_id
                self._next_job_id += 1
            # Client role: secret-share the batch with the job's session seed
            # (rng = seed + 1, the TwoPartyContext convention, so the session
            # is bit-identical to the in-process engine at the same seed).
            client_rng = np.random.default_rng(ticket.seed + 1)
            shared = share(inputs, self.ring, client_rng)
            for party, input_share in ((0, shared.share0), (1, shared.share1)):
                self._send(
                    party,
                    JobRequest(
                        job_id=job_id,
                        model=model,
                        batch_size=batch_size,
                        counter=ticket.counter,
                        input_share=input_share,
                        seed=ticket.seed,
                    ),
                )
            replies = {
                party: self._recv(party, self.timeout) for party in (0, 1)
            }
            if all(isinstance(r, JobFailed) for r in replies.values()):
                # job-scoped rejection (both parties, pre-wire): the shard
                # pair is healthy and keeps serving
                raise ValueError(
                    f"shard {self.index} rejected the job: {replies[0].error}"
                )
            reports: Dict[int, JobReport] = {}
            for party, message in replies.items():
                if not isinstance(message, JobReport):
                    raise ShardFailure(
                        f"shard {self.index} party {party}: expected a "
                        f"JobReport, got {type(message).__name__}"
                    )
                reports[party] = message
            self._cross_check(reports)
        except ShardFailure as exc:
            exc.ticket = ticket
            self.alive = False
            with self._lock:
                self.stats.failures += 1
            raise
        logits = self.ring.decode(
            self.ring.add(reports[0].logit_share, reports[1].logit_share)
        )
        wall = time.perf_counter() - start
        payload_bytes = sum(reports[p].payload_bytes_sent for p in (0, 1))
        # both parties log the same full conversation, so one party's
        # unpacked total is the job's (equality enforced by _cross_check)
        unpacked_bytes = reports[0].unpacked_payload_bytes
        # parties compute concurrently, so the job's compute latency is the
        # slower party's; their fused-call counts match by construction
        cpu_ns = max(reports[p].cpu_time_ns for p in (0, 1))
        fused_calls = reports[0].fused_kernel_calls
        with self._lock:
            self.stats.jobs_executed += 1
            self.stats.queries_served += batch_size
            self.stats.busy_seconds += wall
            self.stats.job_latencies.append(wall)
            self.stats.pool_hits += sum(reports[p].pool_hit for p in (0, 1))
            self.stats.pool_misses += sum(not reports[p].pool_hit for p in (0, 1))
            self.stats.payload_bytes += payload_bytes
            self.stats.unpacked_payload_bytes += unpacked_bytes
            self.stats.cpu_time_ns += cpu_ns
            self.stats.fused_kernel_calls += fused_calls
        return PoolBatchResult(
            logits=logits,
            model=model,
            batch_size=batch_size,
            seed=reports[0].seed,
            shard=self.index,
            wall_seconds=wall,
            online_seconds=max(reports[p].online_seconds for p in (0, 1)),
            payload_bytes_on_wire=payload_bytes,
            pool_hits=sum(reports[p].pool_hit for p in (0, 1)),
            pool_misses=sum(not reports[p].pool_hit for p in (0, 1)),
            worker_pids=(reports[0].pid, reports[1].pid),
            unpacked_payload_bytes=unpacked_bytes,
            cpu_time_ns=cpu_ns,
            fused_kernel_calls=fused_calls,
        )

    def _cross_check(self, reports: Dict[int, JobReport]) -> None:
        r0, r1 = reports[0], reports[1]
        if r0.seed != r1.seed:
            raise ShardFailure(
                f"shard {self.index}: parties derived different job seeds "
                f"({r0.seed} vs {r1.seed})"
            )
        if (
            r0.payload_bytes_sent != r1.payload_bytes_received
            or r1.payload_bytes_sent != r0.payload_bytes_received
        ):
            raise ShardFailure(
                f"shard {self.index}: per-job wire asymmetry between parties"
            )
        if r0.communication_bytes != r1.communication_bytes:
            raise ShardFailure(
                f"shard {self.index}: parties logged different online bytes"
            )
        if r0.unpacked_payload_bytes != r1.unpacked_payload_bytes:
            raise ShardFailure(
                f"shard {self.index}: parties logged different unpacked byte "
                "equivalents — the packed accounting diverged"
            )

    def stats_snapshot(self) -> Dict[str, object]:
        """A consistent copy of the shard stats (appended to concurrently)."""
        with self._lock:
            return self.stats.snapshot()

    def counters_snapshot(self) -> Dict[Tuple[str, int], int]:
        """The per-key job counters — a replacement shard inherits these."""
        with self._lock:
            return dict(self._counters)

    def next_job_id_snapshot(self) -> int:
        with self._lock:
            return self._next_job_id

    def provision(self, model: str, batch_size: int, count: int) -> Dict[int, ProvisionReport]:
        """Synchronously top up both parties' pool buffers for one key."""
        if not self.alive:
            raise ShardFailure(f"shard {self.index} is not alive")
        request = ProvisionRequest(model=model, batch_size=batch_size, count=count)
        for party in (0, 1):
            self._send(party, request)
        reports = {party: self._recv(party, self.timeout) for party in (0, 1)}
        self._absorb_factory_counters(reports.values())
        return reports

    def _absorb_factory_counters(self, sources) -> None:
        """Refresh factory counters from provision reports / final stats.

        The reported values are lifetime totals per party, so they replace
        (not increment) the shard's view.
        """
        totals = [0, 0]
        depth = -1
        for report in sources:
            totals[0] += getattr(report, "pools_from_factory", 0)
            totals[1] += getattr(report, "factory_fallbacks", 0)
            depth = max(depth, getattr(report, "factory_inventory_depth", -1))
        with self._lock:
            self.stats.pools_from_factory = totals[0]
            self.stats.factory_fallbacks = totals[1]
            self.stats.factory_inventory_depth = depth

    # -- lifecycle ------------------------------------------------------------ #
    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop: wire shutdown handshake, then join the processes."""
        if self.alive:
            try:
                for party in (0, 1):
                    self._send(party, ShutdownRequest())
                for party in (0, 1):
                    stats = self._recv(party, timeout)
                    if isinstance(stats, ServerStats):
                        self.final_server_stats[party] = stats
                if len(self.final_server_stats) == 2:
                    self._absorb_factory_counters(self.final_server_stats.values())
            except ShardFailure:
                pass
        self.alive = False
        for process in self._processes:
            process.join(timeout=timeout)
        self.kill()

    def kill(self) -> None:
        """Hard stop: terminate whatever is still running.

        Escalates SIGTERM → SIGKILL: a *stopped* process (SIGSTOP — the
        wedged-worker chaos case) leaves SIGTERM pending forever, so after a
        grace period the process is killed outright.  Eviction must never
        wedge the evictor.
        """
        self.alive = False
        for conn in self._pipes:
            try:
                conn.close()
            except OSError:
                pass
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                try:
                    # a *stopped* process (SIGSTOP) leaves SIGTERM pending
                    # forever; waking it delivers the termination now
                    os.kill(process.pid, signal.SIGCONT)
                except (ProcessLookupError, OSError):
                    pass
                process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)

    @property
    def processes(self) -> List[mp.Process]:
        return list(self._processes)


class _PoolFrontend(BatchingFrontend):
    """A BatchingFrontend whose batches execute on the shard pool."""

    def __init__(self, pool: "ShardedServingPool", **kwargs) -> None:
        self._pool = pool
        super().__init__(**kwargs)

    def _dispatch_batch(self, model: str, batch: List[_PendingQuery]) -> None:
        # Hand off to a pool worker thread so the coalescing loop keeps
        # draining the queue while shards execute concurrently.
        try:
            self._pool._executor.submit(self._execute_batch, model, batch)
        except RuntimeError:
            # Executor already shut down (close() raced a slow drain): run
            # inline so every accepted query still resolves exactly once —
            # _execute_batch converts any backend failure into failed
            # futures rather than letting them hang.
            self._execute_batch(model, batch)

    def _run_batch(
        self, model: str, servable: ServableModel, inputs: np.ndarray
    ) -> BatchOutcome:
        result = self._pool._run_on_shard(model, servable.spec, inputs)
        return BatchOutcome(
            logits=result.logits,
            online_bytes_per_query=result.payload_bytes_on_wire / max(result.batch_size, 1),
            shard=result.shard,
            job_seed=result.seed,
        )


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
        link_latency: one-way seconds injected per frame on the inter-party
            link (capacity planning for LAN/WAN-like deployments).
        seed: base seed; job seeds derive deterministically from it.
        max_job_retries: transient-fault budget per batch — a job whose
            shard dies mid-flight is replayed (same ticket, same seed) on
            another or respawned shard up to this many extra attempts
            before the client future is allowed to fail.  ``0`` disables
            both replay and auto-respawn (the legacy evict-only
            semantics, paired with manual :meth:`restart_shard`).
        retry_backoff: seconds slept before attempt ``n`` retries
            (``retry_backoff * n``, linear).
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
        factory_announce_ahead: upcoming job seeds party 0 advertises to
            the factory per provisioned key, so the producer generates
            bundles ahead of demand.
    """

    def __init__(
        self,
        models: Dict[str, ServableModel],
        num_shards: int = 2,
        max_batch: int = 8,
        max_wait: float = 0.01,
        provision_pools: int = 2,
        warm_batch_sizes: Optional[Tuple[int, ...]] = None,
        low_water: int = 1,
        high_water: int = 3,
        link_latency: float = 0.0,
        seed: int = 0,
        ring: Optional[FixedPointRing] = None,
        host: str = "127.0.0.1",
        job_timeout: float = 300.0,
        verify: bool = True,
        max_job_retries: int = 2,
        retry_backoff: float = 0.05,
        fault_plans: Optional[Dict[int, Dict[int, FaultPlan]]] = None,
        link_shape: Optional[FaultPlan] = None,
        factory_address: Optional[Tuple[str, int]] = None,
        factory_announce_ahead: int = 4,
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
        if link_shape is not None and link_shape.drops:
            raise ValueError(
                "link_shape must be shaping-only (no drop_at_round); put "
                "scripted faults in fault_plans instead"
            )
        self.models = dict(models)
        self.num_shards = num_shards
        self.ring = ring or DEFAULT_RING
        self.seed = seed
        self.host = host
        self.job_timeout = job_timeout
        self.link_latency = link_latency
        self.verify = verify
        self.low_water = low_water
        self.high_water = high_water
        self.provision_pools = provision_pools
        self.warm_batch_sizes: Tuple[int, ...] = (
            tuple(warm_batch_sizes) if warm_batch_sizes is not None else (1, max_batch)
        )
        self.max_job_retries = max_job_retries
        self.retry_backoff = retry_backoff
        self.fault_plans = dict(fault_plans or {})
        self.link_shape = link_shape
        self.factory_address = tuple(factory_address) if factory_address else None
        self.factory_announce_ahead = factory_announce_ahead
        self.max_shards = max_shards if max_shards is not None else num_shards
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_deadline = heartbeat_deadline
        self.processes_spawned = 0
        self.shards_booted = 0
        self.jobs_retried = 0
        self.jobs_recovered = 0
        self.retries_exhausted = 0
        self.shards_respawned = 0
        self.shards_retired = 0
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
        self.frontend = _PoolFrontend(
            self,
            models=self.models,
            max_batch=max_batch,
            max_wait=max_wait,
            provision_pools=0,  # provisioning lives in the party servers
            seed=seed,
            ring=self.ring,
        )

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
        shard = WorkerShard(
            index=index,
            models=self.models,
            # distinct seed stream per shard slot *and* per boot generation,
            # so a restarted shard never replays a previous incarnation's
            # jobs — unless the caller pins the predecessor's base_seed to
            # *continue* its stream (the retry/replay respawn path)
            base_seed=(
                base_seed
                if base_seed is not None
                else self.seed + 7919 * index + 104_729 * self.shards_booted
            ),
            ring=self.ring,
            host=self.host,
            timeout=self.job_timeout,
            link_latency=self.link_latency,
            warm_batch_sizes=self.warm_batch_sizes,
            provision_pools=self.provision_pools,
            low_water=self.low_water,
            high_water=self.high_water,
            verify=self.verify,
            fault_plans=self._shard_fault_plans(index, inject),
            initial_counters=initial_counters,
            initial_job_id=initial_job_id,
            factory_address=self.factory_address,
            factory_announce_ahead=self.factory_announce_ahead,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_deadline=self.heartbeat_deadline,
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

        def _boot() -> Optional[int]:
            try:
                shard = self._boot_shard(index, inject=False)
            except Exception:
                with self._shard_lock:
                    self._restarting.discard(index)
                return None
            with self._shard_lock:
                closed = self._closed
                if not closed:
                    self._shards[index] = shard
                self._restarting.discard(index)
            if closed:
                shard.kill()
                return None
            self._idle.put(shard)
            return index

        if wait:
            return _boot()
        thread = threading.Thread(
            target=_boot, name=f"scale-up-shard{index}", daemon=True
        )
        with self._shard_lock:
            self._respawn_threads = [
                t for t in self._respawn_threads if t.is_alive()
            ]
            self._respawn_threads.append(thread)
        thread.start()
        return None

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
        thread = threading.Thread(
            target=shard.shutdown, name=f"retire-shard{shard.index}", daemon=True
        )
        with self._shard_lock:
            self._respawn_threads = [
                t for t in self._respawn_threads if t.is_alive()
            ]
            self._respawn_threads.append(thread)
        thread.start()
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
        base_seed = dead.base_seed
        counters = dead.counters_snapshot()
        next_job_id = dead.next_job_id_snapshot()

        def _boot() -> None:
            try:
                replacement = self._boot_shard(
                    index,
                    base_seed=base_seed,
                    initial_counters=counters,
                    initial_job_id=next_job_id,
                    inject=False,
                )
            except Exception:
                with self._shard_lock:
                    self._restarting.discard(index)
                return
            with self._shard_lock:
                closed = self._closed
                if not closed:
                    self._shards[index] = replacement
                    self.shards_respawned += 1
                self._restarting.discard(index)
            if closed:
                replacement.kill()
            else:
                self._idle.put(replacement)

        thread = threading.Thread(
            target=_boot, name=f"respawn-shard{index}", daemon=True
        )
        with self._shard_lock:
            self._respawn_threads = [
                t for t in self._respawn_threads if t.is_alive()
            ]
            self._respawn_threads.append(thread)
        thread.start()

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

    def _run_on_shard(
        self, model: str, spec: ModelSpec, inputs: np.ndarray
    ) -> PoolBatchResult:
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
                result = shard.run_job(model, spec, inputs, ticket=ticket)
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
                time.sleep(self.retry_backoff * attempts)
                continue
            finally:
                if shard.alive:
                    self._idle.put(shard)
            if attempts:
                with self._shard_lock:
                    self.jobs_recovered += 1
            return result

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
        return self._run_on_shard(model, servable.spec, inputs)

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
        batch_sizes = tuple(batch_sizes) if batch_sizes else self.warm_batch_sizes
        count = count if count is not None else self.high_water
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
        frontend = self.frontend.stats_snapshot() if hasattr(self, "frontend") else {}
        return {
            "num_shards": self.num_shards,
            "max_shards": self.max_shards,
            "live_shards": self.live_shards,
            "shards_booted": self.shards_booted,
            "shards_respawned": self.shards_respawned,
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
            "frontend": frontend,
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
        if hasattr(self, "frontend"):
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
