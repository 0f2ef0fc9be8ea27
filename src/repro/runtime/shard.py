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
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.util import register_after_fork
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.plan import InferencePlan
from repro.crypto.sharing import share
from repro.obs import Metrics
from repro.runtime.messages import (
    JobFailed,
    JobReport,
    JobRequest,
    ServerConfig,
    ShutdownRequest,
)
from repro.runtime.server import (
    BEAT_JOB,
    BEAT_MONO,
    BEAT_ROUNDS,
    BEAT_WALL,
    derive_job_seed,
    run_party_server,
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
    *slow* one: a slow party keeps beating from its background thread, so
    only true silence trips this.  Carries the last liveness evidence so
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
    #: local-compute time of the job's online phase (max over the two
    #: parties, mirroring ``online_seconds`` — they run concurrently)
    cpu_time_ns: int = 0
    #: fused-kernel invocations of the job
    fused_kernel_calls: int = 0
    #: the two parties' own answers (per-direction bytes, rounds, seed)
    reports: Dict[int, JobReport] = field(default_factory=dict)


#: one shard's driver-side lifetime counters, the ``per_shard`` rows of ``/stats``
SHARD_COUNTERS = (
    "jobs_executed", "queries_served", "failures", "busy_seconds",
    "pool_hits", "pool_misses", "payload_bytes", "unpacked_payload_bytes",
    "cpu_time_ns", "fused_kernel_calls", "pool_bytes_resident", "pools_evicted",
    "pools_discarded",
)


class WorkerShard:
    """One persistent worker pair: two party-server processes, one session.

    All serving-path interaction goes through :meth:`run_job`; in a pool
    the shard's one worker thread is its only caller, and an internal lock
    guards against misuse beyond that.
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
        #: driver-side lifetime counters (``per_shard`` in ``/stats``) and
        #: the ``job_seconds`` window; a serving pool points every
        #: incarnation of a slot at the slot's one registry, so the slot's
        #: totals survive a respawn
        self.metrics = Metrics(*SHARD_COUNTERS)
        #: each party's latest metrics snapshot (every reply carries one)
        self.party_stats: Dict[int, Dict[str, float]] = {}
        self._lock = threading.Lock()
        #: seconds of heartbeat silence after which a party counts as wedged
        #: (0 disables enforcement — only the hard ``timeout`` applies).
        #: Enforced only once a party has beaten at least once, so a slow
        #: boot (unpickling the boot plans, provisioning) never trips it.
        self.heartbeat_deadline = heartbeat_deadline
        #: seconds between two :meth:`check_parties` while a reply is awaited
        #: (and between an idle serving worker's checks)
        self.poll_interval = (
            min(0.25, heartbeat_deadline / 4) if heartbeat_deadline > 0 else 0.5
        )
        # one beat block per party, written by its beat thread and read here
        # without a lock: a stopped writer must not wedge its reader
        self._beats = [mp.RawArray("d", 4) for _ in (0, 1)]
        # A replacement for a dead shard inherits its predecessor's counters
        # (and base seed), so the slot's job-seed stream continues exactly
        # where the fault interrupted it — later jobs still match the
        # fault-free run bit for bit.
        self._counters: Dict[Tuple[str, int], int] = dict(initial_counters or {})
        self._next_job_id = initial_job_id
        #: the keys both parties hold a plan for (a respawn: the boot plans)
        self._held = set(config.plans)
        self._pipes: List = []
        self._processes: List[mp.Process] = []
        #: exit codes of the reaped (and closed) processes, by party
        self._exitcodes: Dict[int, int] = {}
        self._reaping = threading.Lock()

        # Party 0 binds an ephemeral port itself and announces the
        # kernel-assigned number before party 1 boots — race-free even when
        # many pools boot shards concurrently (e.g. parallel CI jobs).
        port = 0
        try:
            for party in (0, 1):
                parent_conn, child_conn = mp.Pipe()
                # every process forked from here on (this shard's parties,
                # other shards', respawns) drops its copy of the driver's
                # end, so a party reads EOF once the driver closes or dies
                register_after_fork(parent_conn, Connection.close)
                process = mp.Process(
                    target=run_party_server,
                    args=(child_conn, self._beats[party], party, host, port),
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
                if not isinstance(ready, tuple) or ready[0] != "ready":
                    raise ShardFailure(
                        f"shard {index} party {party} failed to boot: {ready!r}"
                    )
                self._absorb(party, ready[1])
        except Exception:
            self.kill()
            raise
        self.alive = True

    # -- control-pipe plumbing ---------------------------------------------- #
    def _recv(self, party: int, timeout: float):
        """Receive one party's next reply.

        Polls in short slices instead of one long block, and runs
        :meth:`check_parties` between slices, so a wedged or dead party —
        the awaited one or its peer — surfaces in seconds instead of an
        opaque ``timeout``-long stall.
        """
        deadline = time.monotonic() + timeout
        conn = self._pipes[party]
        try:
            while not conn.poll(min(max(deadline - time.monotonic(), 0.0), self.poll_interval)):
                if time.monotonic() >= deadline:
                    raise ShardFailure(
                        f"shard {self.index} party {party} did not answer "
                        f"within {timeout:.0f}s"
                    )
                self.check_parties()
            message = conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardFailure(
                f"shard {self.index} party {party} pipe broke: {exc}"
            ) from exc
        if isinstance(message, BaseException):
            raise ShardFailure(
                f"shard {self.index} party {party} failed: {message}"
            ) from message
        return message

    def check_parties(self) -> None:
        """Fail a live shard whose party process exited, or whose party has
        been silent past ``heartbeat_deadline``: the shard is marked dead
        and its failure counted, then :class:`ShardFailure` (an exit) or
        :class:`HeartbeatMiss` (silence, with the last liveness evidence)
        is raised.

        Both parties are checked, not just the one a caller awaits: a party
        blocked on the wire behind a stopped peer keeps beating from its
        own beat thread.  The beat check arms once a party has beaten, so a
        slow boot never trips it; a shard that is not alive (booting,
        shutting down, already failed) is not checked.
        """
        if not self.alive:
            return
        try:
            for party, code in enumerate(self.exitcodes):
                if code is not None:
                    raise ShardFailure(
                        f"shard {self.index} party {party} failed: its process "
                        f"exited with code {code}"
                    )
            for party in (0, 1):
                self._check_heartbeat_deadline(party)
        except ShardFailure:
            self._mark_dead()
            raise

    def _mark_dead(self) -> None:
        """Declare the shard dead, counting its failure once."""
        if self.alive:
            self.alive = False
            self.metrics.inc("failures")

    def _check_heartbeat_deadline(self, party: int) -> None:
        if self.heartbeat_deadline <= 0:
            return
        beat = self._beats[party][:]  # read the block once
        if not beat[BEAT_MONO]:
            return  # never beaten yet (still booting)
        silence = time.monotonic() - beat[BEAT_MONO]
        if silence <= self.heartbeat_deadline:
            return
        wall, rounds = beat[BEAT_WALL], int(beat[BEAT_ROUNDS])
        job_id = int(beat[BEAT_JOB]) if beat[BEAT_JOB] >= 0 else None
        raise HeartbeatMiss(
            f"shard {self.index} party {party} missed its heartbeat deadline "
            f"({silence:.1f}s > {self.heartbeat_deadline:.1f}s silent; last "
            f"seen at {wall:.3f} in job "
            f"{job_id if job_id is not None else '<idle>'} after "
            f"{rounds} round frames)",
            party=party,
            last_seen=wall,
            job_id=job_id,
            round_index=rounds,
        )

    def heartbeat_ages(self) -> Dict[int, Optional[float]]:
        """Seconds since each party's last beat (None = never seen)."""
        now = time.monotonic()
        monos = [beat[BEAT_MONO] for beat in self._beats]
        return {party: now - mono if mono else None for party, mono in enumerate(monos)}

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
        plan: InferencePlan,
        inputs: np.ndarray,
        ticket: Optional[JobTicket] = None,
    ) -> PoolBatchResult:
        """Execute one batch on this shard's persistent worker pair.

        ``plan`` is the compiled plan of ``(model, len(inputs))``; it is
        shipped with the job only if the parties do not hold it yet.

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
            shipped = None if (model, batch_size) in self._held else plan
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
                        plan=shipped,
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
            self._held.add((model, batch_size))
            self._cross_check(reports)
        except ShardFailure as exc:
            exc.ticket = ticket
            self._mark_dead()
            raise
        ring = self.config.ring
        logits = ring.decode(ring.add(reports[0].logit_share, reports[1].logit_share))
        wall = time.perf_counter() - start
        payload_bytes = sum(reports[p].payload_bytes_sent for p in (0, 1))
        # parties compute concurrently, so the job's compute latency is the
        # slower party's; their fused-call counts match by construction
        cpu_ns = max(reports[p].cpu_time_ns for p in (0, 1))
        fused_calls = reports[0].fused_kernel_calls
        hits = sum(reports[p].pool_hit for p in (0, 1))
        for name, value in (
            ("jobs_executed", 1),
            ("queries_served", batch_size),
            ("busy_seconds", wall),
            ("pool_hits", hits),
            ("pool_misses", 2 - hits),
            ("payload_bytes", payload_bytes),
            ("unpacked_payload_bytes", plan.unpacked_online_bytes),
            ("cpu_time_ns", cpu_ns),
            ("fused_kernel_calls", fused_calls),
        ):
            self.metrics.inc(name, value)
        self.metrics.observe("job_seconds", wall)
        for party, report in reports.items():
            self._absorb(party, report.stats)
        return PoolBatchResult(
            logits=logits,
            model=model,
            batch_size=batch_size,
            seed=reports[0].seed,
            shard=self.index,
            wall_seconds=wall,
            online_seconds=max(reports[p].online_seconds for p in (0, 1)),
            payload_bytes_on_wire=payload_bytes,
            pool_hits=hits,
            pool_misses=2 - hits,
            worker_pids=(reports[0].pid, reports[1].pid),
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

    def successor_state(self) -> Dict[str, object]:
        """The ``initial_*`` arguments a replacement shard inherits."""
        with self._lock:
            return {
                "initial_counters": dict(self._counters),
                "initial_job_id": self._next_job_id,
            }

    def _absorb(self, party: int, stats: Dict[str, float]) -> None:
        """Keep a party's latest metrics snapshot and carry its randomness
        residency into this shard's row: the pair's resident pool bytes and
        the pools its parties evicted or discarded unused."""
        with self._lock:
            before = self.party_stats.get(party, {})
            self.party_stats[party] = stats
            resident = sum(s["pool_bytes_resident"] for s in self.party_stats.values())
        self.metrics.set("pool_bytes_resident", resident)
        for name in ("pools_evicted", "pools_discarded"):
            self.metrics.inc(name, stats[name] - before.get(name, 0))

    # -- lifecycle ------------------------------------------------------------ #
    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop: wire shutdown handshake, then reap the processes."""
        if self.alive:
            self.alive = False  # the parties exit from here on: no failure
            try:
                for party in (0, 1):
                    self._send(party, ShutdownRequest())
                for party in (0, 1):
                    final = self._recv(party, timeout)
                    if isinstance(final, dict):
                        self._absorb(party, final)
            except ShardFailure:
                pass
        self._reap(grace=timeout)

    def kill(self) -> None:
        """Hard stop: terminate whatever is still running."""
        self.alive = False
        self._reap(grace=0.0)

    def _reap(self, grace: float) -> None:
        """Close the control pipes, give each party ``grace`` seconds to exit,
        terminate what still runs, then close each reaped process — its
        sentinel pipe fds go now, not when the shard is garbage-collected —
        keeping its exit code for :attr:`exitcodes`.

        Escalates SIGTERM → SIGKILL: a *stopped* process (SIGSTOP — the
        wedged-worker chaos case) leaves SIGTERM pending forever, so after a
        grace period the process is killed outright.  Eviction must never
        wedge the evictor.  Concurrent calls (an eviction racing the worker
        whose job found the shard dead) reap each process once.
        """
        with self._reaping:
            for conn in self._pipes:
                try:
                    conn.close()
                except OSError:
                    pass
            for party, process in enumerate(self._processes):
                if party in self._exitcodes:
                    continue  # reaped and closed by an earlier call
                if grace:
                    process.join(timeout=grace)
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
                if process.exitcode is not None:
                    self._exitcodes[party] = process.exitcode
                    process.close()

    @property
    def exitcodes(self) -> List[Optional[int]]:
        """Each party's exit code, None while it runs; kept once the
        process is reaped and closed."""
        codes = []
        for party, process in enumerate(self._processes):
            try:
                codes.append(process.exitcode)
            except ValueError:  # closed: _reap kept its code first
                codes.append(self._exitcodes[party])
        return codes

    @property
    def processes(self) -> List[mp.Process]:
        """The two party processes (closed once reaped: read
        :attr:`exitcodes` after :meth:`kill`)."""
        return list(self._processes)
