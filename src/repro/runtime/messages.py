"""Control-pipe messages between a shard driver and its two party servers.

Everything that crosses the ``multiprocessing`` pipe between
:class:`repro.runtime.shard.WorkerShard` and
:func:`repro.runtime.server.run_party_server`: first one
:class:`ServerConfig`, then a stream of :class:`JobRequest` messages
answered in order, finally a :class:`ShutdownRequest` answered with the
party's final metrics snapshot.  Every reply carries that snapshot (a
flat ``{name: value}`` dict of :class:`repro.obs.Metrics`), so the driver
always holds the parties' latest counters.  The pipe is strict
request/reply with one sender on each side: a party's liveness never rides
on it (it writes beats into a shared block instead, see
:data:`repro.runtime.server.BEAT_PERIOD`).  :class:`ServerConfig` is the one
declaration of per-party settings — the shard and the serving pool pass it
through instead of mirroring its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.crypto.plan import InferencePlan
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.faults import FaultPlan


@dataclass
class ServerConfig:
    """Everything a party server needs to boot, sent once over the pipe."""

    base_seed: int
    #: the plans a party boots with, per ``(model, batch)``; it compiles none
    plans: Dict[Tuple[str, int], InferencePlan]
    weights: Dict[str, Dict[str, Dict[str, np.ndarray]]]
    provision_pools: int = 0
    ring: FixedPointRing = DEFAULT_RING
    #: per-party link shaping / scripted fault schedules: the party's
    #: transport is wrapped in a :class:`FaultyTransport` right after the
    #: connection opens.  ``None`` (or a missing party key) means a clean
    #: link.  Chaos tests and shaped-link benchmarks ride through here.
    fault_plans: Optional[Dict[int, FaultPlan]] = None


@dataclass
class JobRequest:
    """One inference job: executed by both parties in lock-step."""

    job_id: int
    model: str
    batch_size: int
    counter: int
    input_share: np.ndarray
    #: explicit session seed for deterministic replay.  ``None`` (the
    #: normal path) derives the seed from the server's own base seed via
    #: :func:`~repro.runtime.server.derive_job_seed`; a retry of a job that
    #: first ran on a dead shard pins the original seed so the recovered
    #: logits stay bit-identical to the fault-free run.
    seed: Optional[int] = None
    #: the key's plan, shipped only to parties that do not hold it yet
    plan: Optional[InferencePlan] = None


class JobValidationError(ValueError):
    """A job rejected *before* any frame crossed the wire.

    Validation runs on deterministic inputs (both parties hold identically
    shaped shares and hold, or are shipped, the same plans), so both parties
    reject the same jobs — the session stays in sync and the server keeps
    serving.
    """


@dataclass
class JobFailed:
    """Job-scoped failure reply: the job was rejected, the server lives on."""

    job_id: int
    error: str


@dataclass
class JobReport:
    """A party's answer to one :class:`JobRequest`."""

    job_id: int
    party: int
    logit_share: np.ndarray
    communication_bytes: int
    communication_rounds: int
    payload_bytes_sent: int
    payload_bytes_received: int
    online_seconds: float
    pool_hit: bool
    seed: int
    #: OS pid of the serving process — every job of a shard must report the
    #: same two pids, the falsifiable form of "zero per-request spawns"
    pid: int = 0
    #: local-compute time of the job's online phase (wire waits excluded)
    cpu_time_ns: int = 0
    #: fused-kernel invocations of the job
    fused_kernel_calls: int = 0
    #: the party's metrics snapshot right after the job
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass
class ShutdownRequest:
    """Ask the server to run the graceful wire shutdown and exit."""

