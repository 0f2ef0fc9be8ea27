"""Persistent party server: one long-lived process per party, many jobs.

A party process stays alive across requests, so process start-up,
connection establishment and the offline phase are paid once per shard
rather than once per inference:

- Plans are **received**, never compiled here: batch 1 of every model in
  the :class:`ServerConfig`, any other key in the first
  :class:`JobRequest` that uses it.
- :func:`run_party_server` is the process entry point.  It opens the
  inter-party :class:`~repro.crypto.transport.Transport` **once**, then
  executes a stream of :class:`JobRequest` messages (received over the
  driver's control pipe, see :mod:`repro.runtime.messages`) against the
  persistent connection, answering each with a :class:`JobReport`.
- Correlated randomness is **pre-provisioned**: boot buffers batch 1 of
  every model; any other ``(model, batch)`` key goes live on its first
  job.  A party generates only its own share-world of each
  :class:`~repro.crypto.dealer.RandomnessPool`.  One background
  provisioner thread — the only producer — tops every key a job drew from
  back up to :data:`HIGH_WATER` after that job, most recently used key
  first, so the online path of a warm server performs zero dealer
  generation calls; a key no job has used keeps its boot depth.  The
  buffers never hold more than :data:`POOL_BUDGET_BYTES`: a key that needs
  room takes it from the pools of less recently used keys (their plans and
  counters stay), and a key whose one pool exceeds the budget is served
  cold.  A job whose pool is not buffered generates it here, at the same
  seed.  :class:`_PlanEntry` is a party's per-``(model, batch)`` plan +
  pool store.
- Job seeds are **deterministic**: :func:`derive_job_seed` maps
  ``(base_seed, model, batch, counter)`` to the session seed, so the
  dispatcher (which secret-shares the query), both party servers (which
  regenerate the dealer stream) and any verifier (which replays the job on
  the in-process engine) all agree without communicating — each job stays
  bit-identical to ``SecureInferenceEngine.execute`` at the same seed.

Session framing over the persistent connection: a job's first round
frame carries an 8-byte digest of ``(job id, model, batch, counter, seed)``
and of the identity of the plan each party holds for the key
(:func:`job_digest`), and that first round is always a full-duplex
exchange, so both parties refuse to proceed on a mismatch — before either
decodes a payload — instead of mixing share-worlds.  The digest counts as
framing overhead, never as payload, which keeps the per-job payload deltas
equal to the plan manifest's prediction — verified after every job.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.crypto.channel import PartyChannel
from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import RandomnessPool, TrustedDealer
from repro.crypto.plan import InferencePlan
from repro.crypto.faults import FaultyTransport
from repro.crypto.transport import TcpListener, TcpTransport
from repro.obs import Metrics
from repro.runtime.messages import (
    JobFailed,
    JobReport,
    JobRequest,
    JobValidationError,
    ServerConfig,
    ShutdownRequest,
)
from repro.runtime.party import execute_plan_as_party, verify_against_plan

#: buffer depth the provisioner tops a key up to after each of its jobs
HIGH_WATER = 3
#: the most randomness-pool bytes a party buffers over all its keys (a
#: party's pool pins ``plan.manifest.party_pool_bytes``)
POOL_BUDGET_BYTES = 96 << 20
#: seconds between the liveness beats a party writes into its beat block,
#: well under the smallest heartbeat deadline in use (0.5 s)
BEAT_PERIOD = 0.1
#: the slots of a party's beat block (a lock-free ``RawArray("d", 4)`` its
#: :class:`~repro.runtime.shard.WorkerShard` allocates): the last beat's monotonic and wall-clock time, the job
#: it fell in (-1 between jobs) and the round frames sent so far.  A
#: monotonic time of 0 means the party has not beaten yet.
BEAT_MONO, BEAT_WALL, BEAT_JOB, BEAT_ROUNDS = range(4)
#: glibc ``mallopt`` parameter numbers (``malloc.h``)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _pin_malloc() -> None:
    """Give this process's glibc heap one arena and fixed thresholds (a
    no-op without glibc).

    Left to its defaults, glibc gives each thread its own arena and keeps
    its thresholds dynamic: it maps a large block fresh until it has freed
    one that size and returns free heap top above twice that to the kernel.
    A party then faults in a job's temporaries anew on every job — how
    many depends on what its boot happened to allocate — and the pools its
    provisioner thread draws never reuse the pages the online phase freed.
    Pinned, blocks up to 32 MiB come from the one heap and up to 64 MiB of
    free heap stays mapped for the next job or pool.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def derive_job_seed(base_seed: int, model: str, batch_size: int, counter: int) -> int:
    """Deterministic session seed of the ``counter``-th job of a plan key.

    Pure arithmetic on stable inputs: the dispatcher, both party servers and
    any out-of-band verifier compute the same seed without coordination.
    """
    digest = zlib.crc32(f"{model}:{batch_size}:{counter}".encode("utf-8"))
    return (int(base_seed) * 1_000_003 + digest) % (2**31 - 1)


def plan_identity(plan: InferencePlan) -> bytes:
    """What both parties must agree on to run a plan's rounds together:
    its ``manifest.content_hash`` (the randomness material), every op's
    round groups (each message's sender and bytes) and every op's output
    shape.  Two plans that share a manifest but lay out their rounds
    differently get different identities."""
    digest = hashlib.blake2b(plan.manifest.content_hash.encode(), digest_size=16)
    for op in plan.ops:
        shape = tuple(int(d) for d in op.output_shape)
        digest.update(repr((op.round_groups, shape)).encode())
    return digest.digest()


def job_digest(request: JobRequest, identity: bytes) -> bytes:
    """The 8-byte header of one job that rides its first round frame: the
    job id, model, batch, counter and pinned seed, and the plan's
    :func:`plan_identity`."""
    header = (
        int(request.job_id),
        str(request.model),
        int(request.batch_size),
        int(request.counter),
        None if request.seed is None else int(request.seed),
    )
    return hashlib.blake2b(repr(header).encode() + identity, digest_size=8).digest()


@dataclass
class _PlanEntry:
    plan: InferencePlan
    #: bytes one buffered (party-restricted) pool of this key pins
    pool_bytes: int
    #: the plan's :func:`plan_identity`, folded into every job's digest
    identity: bytes
    #: the server's use clock at this key's last job (or its creation)
    last_used: int
    #: whether a job has drawn from this key (only those are refilled)
    live: bool = False
    #: FIFO of (counter, party-restricted pool); the one provisioner
    #: appends in counter order, so counters strictly increase
    pools: Deque[Tuple[int, RandomnessPool]] = field(default_factory=deque)
    next_counter: int = 0
    #: the counter whose pool :meth:`PartyServer.provision` is generating
    #: right now, if any (a job for it waits instead of generating it too)
    generating: Optional[int] = None


class PartyServer:
    """The in-process half of :func:`run_party_server` (testable directly).

    Holds the persistent transport + channel, the plans it was handed (it
    compiles none), the randomness buffers and the background provisioner
    for one party, and one :class:`~repro.obs.Metrics` whose snapshot rides
    every reply.
    """

    def __init__(self, party: int, transport, config: ServerConfig) -> None:
        self.party = party
        self.transport = transport
        self.config = config
        self.ring = config.ring
        self.channel = PartyChannel(transport, party, ring=config.ring)
        self.metrics = Metrics("pool_bytes_resident", "pools_evicted", "pools_discarded")
        self._entries: Dict[Tuple[str, int], _PlanEntry] = {}
        #: use clock: ticks once per job and per new key (LRU order)
        self._uses = 0
        #: job id currently executing (``None`` between jobs) — read by the
        #: beat thread without the lock (GIL-atomic attribute load)
        self.current_job_id: Optional[int] = None
        self._lock = threading.Lock()
        self._refill = threading.Condition(self._lock)
        self._closing = False
        self._provisioner: Optional[threading.Thread] = None

    # -- plan / pool management --------------------------------------------- #
    def _entry(
        self, model: str, batch_size: int, shipped: Optional[InferencePlan] = None
    ) -> _PlanEntry:
        """A key's plan and pools, registered from its boot or shipped plan."""
        key = (model, batch_size)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                plan = self.config.plans.get(key, shipped)
                if plan is None:
                    raise KeyError(
                        f"party {self.party}: no plan for {key}, and the job "
                        f"shipped none; boot plans: {sorted(self.config.plans)}"
                    )
                self._uses += 1
                manifest = plan.manifest
                entry = self._entries[key] = _PlanEntry(
                    plan, manifest.party_pool_bytes, plan_identity(plan), self._uses
                )
                self.metrics.inc("plans_received")
        return entry

    def _pool_at_seed(self, entry: _PlanEntry, seed: int) -> RandomnessPool:
        """This party's share-world of one session seed's pool, generated here."""
        return TrustedDealer(ring=self.ring, seed=seed).preprocess(entry.plan, party=self.party)

    def _resident_locked(self) -> int:
        return sum(len(e.pools) * e.pool_bytes for e in self._entries.values())

    def _room_locked(self, entry: _PlanEntry, evict: bool) -> bool:
        """Whether one more pool of ``entry`` fits :data:`POOL_BUDGET_BYTES`.

        Room may come from the pools of keys used less recently than
        ``entry``: with ``evict`` they lose just enough of them, least
        recently used key first and newest counter first — each such key
        rewinds its counter, so a later refill regenerates the same seeds.
        Nothing is evicted unless the room is found.
        """
        free = POOL_BUDGET_BYTES - self._resident_locked()
        victims = sorted(
            (e for e in self._entries.values() if e.last_used < entry.last_used),
            key=lambda e: e.last_used,
        )
        if free + sum(len(e.pools) * e.pool_bytes for e in victims) < entry.pool_bytes:
            return False
        if not evict:
            return True
        for victim in victims:
            while victim.pools and free < entry.pool_bytes:
                victim.next_counter = victim.pools.pop()[0]
                free += victim.pool_bytes
                self.metrics.inc("pools_evicted")
        self.metrics.set("pool_bytes_resident", self._resident_locked())
        return True

    def provision(self, model: str, batch_size: int, count: int) -> None:
        """Buffer up to ``count`` additional pools for a key, as many as
        :data:`POOL_BUDGET_BYTES` leaves room for."""
        entry = self._entry(model, batch_size)
        for _ in range(max(count, 0)):
            with self._lock:
                if self._closing or not self._room_locked(entry, evict=True):
                    return
                counter = entry.generating = entry.next_counter
                entry.next_counter += 1
            seed = derive_job_seed(self.config.base_seed, model, batch_size, counter)
            pool = None
            try:
                pool = self._pool_at_seed(entry, seed)
            finally:
                with self._refill:
                    entry.generating = None
                    if pool is not None:
                        entry.pools.append((counter, pool))
                        self.metrics.set("pool_bytes_resident", self._resident_locked())
                    self._refill.notify_all()
            self.metrics.inc("pools_provisioned")

    def _acquire_pool(
        self, entry: _PlanEntry, request: JobRequest
    ) -> Tuple[RandomnessPool, bool, int]:
        """The pool and session seed of one job: buffered (hit) or generated (miss).

        The one provisioner appends in counter order, so heads older than
        the job are stale (those jobs were served cold) and dropped —
        counted as ``pools_discarded``, generated for nothing — and only
        the front can hold the job's counter.  A job whose pool the
        provisioner is generating right now waits for it rather than
        generating it again.  A replay pinned to another
        shard generation's seed cannot use pools buffered under this
        server's base seed: it generates at the pinned seed and leaves the
        buffer untouched.  Either way the job makes its key the most
        recently used.
        """
        derived = derive_job_seed(
            self.config.base_seed, request.model, request.batch_size, request.counter
        )
        seed = derived if request.seed is None else int(request.seed)
        pool = None
        with self._lock:
            self._uses += 1
            entry.last_used = self._uses
            entry.live = True
            if seed == derived:
                while entry.generating == request.counter:
                    self._refill.wait()
                while entry.pools and entry.pools[0][0] < request.counter:
                    entry.pools.popleft()
                    self.metrics.inc("pools_discarded")
                if entry.pools and entry.pools[0][0] == request.counter:
                    pool = entry.pools.popleft()[1]
                self.metrics.set("pool_bytes_resident", self._resident_locked())
            entry.next_counter = max(entry.next_counter, request.counter + 1)
        self.metrics.inc("pool_misses" if pool is None else "pool_hits")
        if pool is None:
            return self._pool_at_seed(entry, seed), False, seed
        return pool, True, seed

    # -- background provisioner --------------------------------------------- #
    def start_provisioner(self) -> None:
        if self.config.provision_pools <= 0:
            return
        self._provisioner = threading.Thread(
            target=self._provision_loop,
            name=f"party{self.party}-provisioner",
            daemon=True,
        )
        self._provisioner.start()

    def _refill_target_locked(self) -> Optional[Tuple[str, int]]:
        """The most recently used key a job has drawn from that holds fewer
        than :data:`HIGH_WATER` pools and has room for one more (or can take
        it), or ``None``.  A key no job has used keeps its boot depth."""
        for key, entry in sorted(self._entries.items(), key=lambda kv: -kv[1].last_used):
            below = entry.live and len(entry.pools) < HIGH_WATER
            if below and self._room_locked(entry, evict=False):
                return key
        return None

    def refill(self) -> None:
        """Top every key a job has drawn from up to :data:`HIGH_WATER`, most
        recently used first, until none can take room for a pool."""
        while True:
            with self._lock:
                key = None if self._closing else self._refill_target_locked()
                if key is None:
                    return
                deficit = HIGH_WATER - len(self._entries[key].pools)
            self.provision(*key, deficit)

    def _provision_loop(self) -> None:
        while True:
            with self._refill:
                # target check and wait share the lock, so a job's notify
                # cannot be lost — an idle server (or one whose keys cannot
                # take room) sleeps here instead of busy-polling
                while not self._closing and self._refill_target_locked() is None:
                    self._refill.wait()
                if self._closing:
                    return
            self.refill()

    def notify_provisioner(self) -> None:
        with self._refill:
            self._refill.notify_all()

    # -- job execution -------------------------------------------------------- #
    def execute_job(self, request: JobRequest) -> JobReport:
        # Everything up to arming the channel is pre-wire validation: it sees
        # only deterministic inputs, so a rejection here is job-scoped
        # (JobValidationError) — both parties reject identically, no frame
        # has been sent, and the persistent session stays usable.
        shipped = request.plan
        if shipped is not None and not (
            isinstance(shipped, InferencePlan)
            and (shipped.batch_size, shipped.ring) == (request.batch_size, self.ring)
        ):
            raise JobValidationError(
                f"job {request.job_id} shipped a {type(shipped).__name__} that "
                f"is not a batch-{request.batch_size} plan on {self.ring}"
            )
        try:
            entry = self._entry(request.model, request.batch_size, shipped)
        except KeyError as exc:
            raise JobValidationError(str(exc)) from exc
        if tuple(np.asarray(request.input_share).shape) != entry.plan.input_shape:
            raise JobValidationError(
                f"plan {request.model!r} (batch {request.batch_size}) expects "
                f"an input share of shape {entry.plan.input_shape}, got "
                f"{np.asarray(request.input_share).shape}"
            )
        pool, hit, seed = self._acquire_pool(entry, request)
        start = time.perf_counter()
        ctx = TwoPartyContext(ring=self.ring, seed=seed, channel=self.channel)
        before = self.transport.stats.snapshot()
        self.current_job_id = request.job_id
        # the job's header rides its first round: a job desync raises there,
        # on both parties, before either decodes a payload
        self.channel.digest = job_digest(request, entry.identity)
        try:
            if not entry.plan.num_rounds:
                # a plan with no interactive op still checks the peer's job
                self.channel.run_round(())
            execution = execute_plan_as_party(
                ctx,
                self.party,
                entry.plan,
                self.config.weights[request.model],
                request.input_share,
                pool=pool,
            )
        finally:
            self.current_job_id = None
        delta = self.transport.stats.since(before)
        online_seconds = time.perf_counter() - start

        # fed with this job's wire delta: the job digest is framing, not
        # payload, so the check stays exact even on a connection
        # multiplexing many jobs
        try:
            verify_against_plan(entry.plan, execution, delta)
        except RuntimeError as exc:
            raise RuntimeError(f"job {request.job_id}: {exc}") from exc

        for name, value in (
            ("jobs_executed", 1),
            ("online_seconds", online_seconds),
            ("cpu_time_ns", execution.cpu_time_ns),
            ("fused_kernel_calls", execution.fused_kernel_calls),
        ):
            self.metrics.inc(name, value)
        self.notify_provisioner()
        return JobReport(
            job_id=request.job_id,
            party=self.party,
            logit_share=execution.logit_share,
            communication_bytes=execution.communication_bytes,
            communication_rounds=execution.communication_rounds,
            payload_bytes_sent=delta.payload_bytes_sent,
            payload_bytes_received=delta.payload_bytes_received,
            online_seconds=online_seconds,
            pool_hit=hit,
            seed=seed,
            pid=os.getpid(),
            cpu_time_ns=execution.cpu_time_ns,
            fused_kernel_calls=execution.fused_kernel_calls,
            stats=self.metrics.snapshot(),
        )

    # -- lifecycle ------------------------------------------------------------ #
    def warm_up(self) -> None:
        """Buffer the pools of every boot plan; any other key goes live on
        its first job."""
        for model, batch_size in self.config.plans:
            self.provision(model, batch_size, self.config.provision_pools)

    def shutdown(self) -> Dict[str, float]:
        """Graceful end of session: wire handshake, stop the provisioner.

        Returns the party's final metrics snapshot, with the transport's
        lifetime totals as ``wire.<name>``.
        """
        with self._refill:
            self._closing = True
            self._refill.notify_all()
        if self._provisioner is not None:
            self._provisioner.join(timeout=10.0)
        if self.party == 0:
            self.transport.send_shutdown()
        else:
            goodbye = self.transport.recv_control()
            if goodbye is not None:
                raise RuntimeError(
                    "party 1: expected the shutdown handshake, got a control "
                    f"message of {len(goodbye)} bytes"
                )
        for name, value in vars(self.transport.stats).items():
            self.metrics.set(f"wire.{name}", value)
        return self.metrics.snapshot()


def _start_beat_thread(server: "PartyServer", beat) -> threading.Event:
    """Write a liveness beat into ``beat`` every :data:`BEAT_PERIOD` until
    the returned event is set.

    Runs as a daemon thread beside the serving loop, so beats keep coming
    while a job computes or blocks on the inter-party wire — a wedged (but
    scheduled) process keeps beating; a SIGSTOPped or dead one goes silent,
    which is exactly the signal the shard needs.  The beat time is stored
    last, so a reader that sees a new beat also sees its job and round.
    """
    stop = threading.Event()

    def _beat() -> None:
        while True:
            job_id = server.current_job_id
            beat[BEAT_JOB] = -1 if job_id is None else job_id
            beat[BEAT_ROUNDS] = server.transport.stats.round_frames_sent
            beat[BEAT_WALL] = time.time()
            beat[BEAT_MONO] = time.monotonic()
            if stop.wait(BEAT_PERIOD):
                return

    thread = threading.Thread(
        target=_beat, name=f"party{server.party}-heartbeat", daemon=True
    )
    thread.start()
    return stop


def run_party_server(
    conn,
    beat,
    party: int,
    host: str,
    port: int,
    timeout: float = 300.0,
) -> None:
    """Entry point for one persistent party process.

    Protocol over the control pipe: first a :class:`ServerConfig`, answered
    with ``("ready", metrics snapshot)`` once booted, then any
    stream of :class:`JobRequest` messages, each answered in order;
    finally a :class:`ShutdownRequest`, answered with the
    party's final metrics snapshot.  Nothing else crosses the pipe:
    liveness goes into ``beat``, the party's shared beat block (slots
    ``BEAT_*``), every :data:`BEAT_PERIOD` from the moment it is ready.
    The inter-party transport is opened once and reused for every job — a
    warm server spawns no processes and opens no connections on the
    serving path — and the process pins its heap first (:func:`_pin_malloc`).

    Party 0 binds ``port`` (0: an ephemeral one) and announces the bound
    number over the pipe (``("bound-port", port)``) right after receiving
    the config, *before* accepting — the pool driver reads it and only then
    boots party 1, so no free-then-bind race exists.  A
    :class:`~repro.crypto.faults.FaultPlan` for this party in the config
    (link shaping and/or scripted faults) wraps the connection.
    """
    _pin_malloc()
    transport = None
    beat_stop: Optional[threading.Event] = None
    try:
        config: ServerConfig = conn.recv()
        if party == 0:
            with TcpListener(host=host, port=port) as listener:
                conn.send(("bound-port", listener.port))
                transport = listener.accept(timeout=timeout)
        else:
            transport = TcpTransport.connect(host, port, timeout=timeout, retries=100)
        plan = (config.fault_plans or {}).get(party)
        if plan is not None:
            # link shaping / chaos harness: the wrapper owns the WireStats
            # the server accounts against, so payload==manifest stays exact
            transport = FaultyTransport(transport, plan)
        server = PartyServer(party, transport, config)
        server.warm_up()
        server.start_provisioner()
        conn.send(("ready", server.metrics.snapshot()))
        beat_stop = _start_beat_thread(server, beat)
        while True:
            message = conn.recv()
            if isinstance(message, ShutdownRequest):
                conn.send(server.shutdown())
                break
            if not isinstance(message, JobRequest):
                raise TypeError(
                    f"party {party}: unexpected control message "
                    f"{type(message).__name__}"
                )
            try:
                conn.send(server.execute_job(message))
            except JobValidationError as exc:
                # rejected pre-wire on both parties: answer and keep
                # serving — only post-wire failures are process-fatal
                conn.send(JobFailed(job_id=message.job_id, error=str(exc)))
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception as exc:  # surface the failure to the driver, then re-raise
        try:
            conn.send(exc)
        except Exception:
            pass
        raise
    finally:
        if beat_stop is not None:
            beat_stop.set()
        if transport is not None:
            transport.close()
        conn.close()
