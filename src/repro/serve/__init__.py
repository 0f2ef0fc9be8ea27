"""Batched serving frontend for secure inference.

The ROADMAP's north star is a serving path that holds up under heavy query
traffic.  The plan runtime already amortizes compilation and preprocessing
across batched queries; this package adds the missing piece between clients
and the runtime:

- :class:`~repro.serve.frontend.BatchingFrontend` — a request queue that
  coalesces incoming queries up to ``(max_batch, max_wait)`` and hands each
  coalesced batch to its backend as a single plan execution, resolving one
  future per query and recording queue/serve latency percentiles;
- :class:`~repro.serve.pool.ShardedServingPool` — that backend: N persistent
  two-process worker pairs (:class:`~repro.runtime.shard.WorkerShard`);
  batches route to idle shards, the party servers hold the compiled plans
  and keep randomness buffers filled in the background, and a dead worker
  pair is evicted while the rest keep serving;
- :class:`~repro.serve.admission.AdmissionController` — bounded per-(model,
  batch) queues with explicit backpressure (shed-with-retry-after, never
  unbounded buffering) and the EWMA load signals autoscaling steers by;
- :class:`~repro.serve.supervisor.ShardSupervisor` — heartbeat sweeps,
  proactive evict-and-respawn with per-slot cooldowns, and
  :class:`~repro.serve.supervisor.AutoscalePolicy`-driven scaling of the
  shard fleet from observed queue depth;
- :class:`~repro.serve.daemon.ServingDaemon` — the asyncio control plane:
  one event loop multiplexing many framed client connections over the
  transport codec, plus curl-able ``/stats`` + ``/healthz`` JSON endpoints
  on the same port; :class:`~repro.serve.daemon.DaemonClient` is the
  blocking client.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    BackpressureError,
)
from repro.runtime.shard import (
    HeartbeatMiss,
    JobTicket,
    PoolBatchResult,
    ShardFailure,
    ShardStats,
    WorkerShard,
)
from repro.serve.daemon import DaemonClient, DaemonResult, ServingDaemon
from repro.serve.frontend import (
    BatchingFrontend,
    BatchOutcome,
    PoolShutdown,
    ServableModel,
    ServedResult,
    ServingStats,
)
from repro.serve.pool import ShardedServingPool
from repro.serve.supervisor import AutoscalePolicy, ShardSupervisor

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AutoscalePolicy",
    "BackpressureError",
    "BatchingFrontend",
    "BatchOutcome",
    "DaemonClient",
    "DaemonResult",
    "HeartbeatMiss",
    "JobTicket",
    "PoolBatchResult",
    "PoolShutdown",
    "ServableModel",
    "ServedResult",
    "ServingDaemon",
    "ServingStats",
    "ShardedServingPool",
    "ShardFailure",
    "ShardStats",
    "ShardSupervisor",
    "WorkerShard",
]
