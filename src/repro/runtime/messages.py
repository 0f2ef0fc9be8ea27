"""Control-pipe messages between a shard driver and its two party servers.

Everything that crosses the ``multiprocessing`` pipe between
:class:`repro.runtime.shard.WorkerShard` and
:func:`repro.runtime.server.run_party_server`: first one
:class:`ServerConfig`, then a stream of :class:`JobRequest` /
:class:`RefillRequest` messages answered in order (interleaved with
:class:`Heartbeat` frames), finally a :class:`ShutdownRequest` answered with
the lifetime :class:`ServerStats`.  :class:`ServerConfig` is the one
declaration of per-party settings — the shard and the serving pool pass it
through instead of mirroring its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.transport import FaultPlan
from repro.models.specs import ModelSpec

#: buffered pools per (model, batch) key below which the provisioner refills
DEFAULT_LOW_WATER = 1
#: target buffer depth the provisioner refills up to
DEFAULT_HIGH_WATER = 3


@dataclass
class ServerConfig:
    """Everything a party server needs to boot, sent once over the pipe."""

    base_seed: int
    models: Dict[str, ModelSpec]
    weights: Dict[str, Dict[str, Dict[str, np.ndarray]]]
    warm_batch_sizes: Tuple[int, ...] = ()
    provision_pools: int = 0
    low_water: int = DEFAULT_LOW_WATER
    high_water: int = DEFAULT_HIGH_WATER
    ring: FixedPointRing = DEFAULT_RING
    #: per-party link shaping / scripted fault schedules: the party's
    #: transport is wrapped in a :class:`FaultyTransport` right after the
    #: connection opens.  ``None`` (or a missing party key) means a clean
    #: link.  Chaos tests and shaped-link benchmarks ride through here.
    fault_plans: Optional[Dict[int, FaultPlan]] = None
    #: (host, port) of a randomness-factory server.  When set, pool
    #: provisioning *fetches* party-restricted buffers from the factory's
    #: inventory instead of generating locally; any factory failure falls
    #: back to local cold generation at the identical seed, so logits stay
    #: bit-for-bit unchanged either way.
    factory_address: Optional[Tuple[str, int]] = None
    #: seconds between liveness frames the server emits over the driver's
    #: control pipe (a background thread, so heartbeats keep flowing while a
    #: job computes or waits on the wire).  ``0`` disables emission — the
    #: driver then falls back to its hard pipe/timeout detection only.
    heartbeat_interval: float = 1.0


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


class JobValidationError(ValueError):
    """A job rejected *before* any frame crossed the wire.

    Validation runs on deterministic inputs (both parties hold identically
    shaped shares and the same model registry), so both parties reject the
    same jobs — the session stays in sync and the server keeps serving.
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
    pool_buffered: int
    seed: int
    #: OS pid of the serving process — every job of a shard must report the
    #: same two pids, the falsifiable form of "zero per-request spawns"
    pid: int = 0
    #: frame-format-v1 equivalent of ``communication_bytes`` — lets the
    #: serving dashboards compute the packed wire format's bytes_saved_pct
    unpacked_payload_bytes: int = 0
    #: local-compute time of the job's online phase (wire waits excluded)
    cpu_time_ns: int = 0
    #: fused-kernel invocations of the job
    fused_kernel_calls: int = 0


@dataclass
class RefillRequest:
    """Warm-up command: buffer ``count`` pools for ``(model, batch_size)``."""

    model: str
    batch_size: int
    count: int


@dataclass
class RefillReport:
    """Answer to a :class:`RefillRequest`: buffer depth after refill."""

    model: str
    batch_size: int
    buffered: int
    provision_seconds: float
    #: lifetime pools this party fetched from the factory inventory
    pools_from_factory: int = 0
    #: lifetime factory fetches that failed over to local cold generation
    factory_fallbacks: int = 0
    #: factory inventory depth as of the last successful fetch (-1 = never)
    factory_inventory_depth: int = -1


@dataclass
class Heartbeat:
    """One liveness frame a party server emits over the control pipe.

    Emitted by a background thread at ``ServerConfig.heartbeat_interval``,
    *including* while a job is executing or blocked on the inter-party
    wire — so the driver can distinguish "slow but alive" from "wedged".
    The snapshot it carries is what a heartbeat-miss diagnostic needs:
    when the party was last seen, which job it was inside, and how far
    through the round schedule it had come.
    """

    party: int
    pid: int
    #: wall-clock ``time.time()`` at emission (the last-seen timestamp a
    #: heartbeat-miss error reports)
    timestamp: float
    jobs_executed: int
    #: job id currently executing on this party (``None`` between jobs)
    job_id: Optional[int] = None
    #: round frames this party has sent over the inter-party transport so
    #: far — a monotone progress cursor through the job's round schedule
    round_index: int = 0


@dataclass
class ShutdownRequest:
    """Ask the server to run the graceful wire shutdown and exit."""


@dataclass
class ServerStats:
    """Lifetime counters a server sends back right before exiting."""

    party: int
    jobs_executed: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    pools_provisioned: int = 0
    plans_compiled: int = 0
    control_bytes_sent: int = 0
    control_bytes_received: int = 0
    payload_bytes_sent: int = 0
    payload_bytes_received: int = 0
    #: summed online-phase seconds across all jobs (this party's view)
    online_seconds: float = 0.0
    #: summed local-compute nanoseconds across all jobs (this party's view)
    cpu_time_ns: int = 0
    #: summed fused-kernel invocations across all jobs
    fused_kernel_calls: int = 0
    #: pools fetched from the randomness factory's inventory
    pools_from_factory: int = 0
    #: factory fetches that failed over to local cold generation
    factory_fallbacks: int = 0
    #: factory inventory depth for this server's hottest manifest, as of
    #: the last successful fetch (-1 = never fetched)
    factory_inventory_depth: int = -1
