"""One persistent worker pair: the only two-process driver of the runtime.

A :class:`WorkerShard` spawns the two
:func:`repro.runtime.server.run_party_server` processes of one shard (the
only ``multiprocessing.Process`` call of ``runtime`` + ``serve``), boots them
from one :class:`~repro.runtime.messages.ServerConfig`, and then plays the
roles the paper keeps off the measured path for every job: the client
(secret-sharing the query, reconstructing the logits from the two result
shares) and the session coordinator (job ids, deterministic
:class:`JobTicket`\\ s, cross-party accounting checks, heartbeat
bookkeeping).  The serving pool drives N of these for a job stream;
:func:`repro.runtime.twoprocess.run_two_process_inference` drives one for a
single job.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.events import bytes_saved_pct as _bytes_saved_pct
from repro.crypto.sharing import share
from repro.runtime.messages import (
    Heartbeat,
    JobFailed,
    JobReport,
    JobRequest,
    RefillReport,
    RefillRequest,
    ServerConfig,
    ServerStats,
    ShutdownRequest,
)
from repro.runtime.server import derive_job_seed, run_party_server


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
    #: the two parties' own answers (per-direction bytes, rounds, seed)
    reports: Dict[int, JobReport] = field(default_factory=dict)

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
        config: ServerConfig,
        *,
        host: str = "127.0.0.1",
        timeout: float = 300.0,
        heartbeat_deadline: float = 0.0,
        initial_counters: Optional[Dict[Tuple[str, int], int]] = None,
        initial_job_id: int = 0,
    ) -> None:
        self.index = index
        #: the per-party settings both servers booted from; ``base_seed``
        #: and ``ring`` also fix this driver's job seeds and secret sharing
        self.config = config
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
                    kwargs={"timeout": timeout},
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
            seed = derive_job_seed(
                self.config.base_seed, model, batch_size, counter
            )
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
            shared = share(inputs, self.config.ring, client_rng)
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
        ring = self.config.ring
        logits = ring.decode(ring.add(reports[0].logit_share, reports[1].logit_share))
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
            reports=reports,
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

    def successor_state(self) -> Dict[str, object]:
        """The ``initial_*`` arguments a replacement shard inherits."""
        with self._lock:
            return {
                "initial_counters": dict(self._counters),
                "initial_job_id": self._next_job_id,
            }

    def provision(self, model: str, batch_size: int, count: int) -> Dict[int, RefillReport]:
        """Synchronously top up both parties' pool buffers for one key."""
        if not self.alive:
            raise ShardFailure(f"shard {self.index} is not alive")
        request = RefillRequest(model=model, batch_size=batch_size, count=count)
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
            totals[0] += report.pools_from_factory
            totals[1] += report.factory_fallbacks
            depth = max(depth, report.factory_inventory_depth)
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
