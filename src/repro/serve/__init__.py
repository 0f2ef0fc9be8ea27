"""Batched serving frontend for secure inference.

The ROADMAP's north star is a serving path that holds up under heavy query
traffic.  The plan runtime already amortizes compilation and preprocessing
across batched queries; this package adds the missing piece between clients
and the runtime:

- :class:`~repro.serve.pool.ShardedServingPool` — N persistent two-process
  worker pairs (:class:`~repro.runtime.shard.WorkerShard`) behind one
  pending-query queue: whenever a shard is free, its worker thread takes
  the next batch (up to ``max_batch`` queries of one model, once full or
  once the oldest has waited ``max_wait``; policy in
  :func:`~repro.serve.frontend.take_batch`) and runs it as a single plan
  execution, resolving one future per query.  The party servers hold the
  compiled plans and keep randomness buffers filled in the background, and
  a dead worker pair is evicted and respawned by its own worker thread —
  while idle too, once a heartbeat deadline is set — while the rest keep
  serving;
- :class:`~repro.serve.daemon.ServingDaemon` — the asyncio control plane:
  one event loop multiplexing many framed client connections over the
  transport codec, one bound per model on the pool's queue (a stack that
  does not fit is shed with a :class:`~repro.serve.frontend.BackpressureError`
  verdict and a retry hint, never buffered unboundedly), plus curl-able
  ``/stats`` + ``/healthz`` JSON endpoints on the same port;
  :class:`~repro.serve.daemon.DaemonClient` is the blocking client.
"""

from repro.serve.daemon import DaemonClient, DaemonResult, ServingDaemon
from repro.serve.frontend import (
    BackpressureError,
    PoolShutdown,
    ServableModel,
    ServedResult,
)
from repro.serve.pool import ShardedServingPool

__all__ = [
    "BackpressureError",
    "DaemonClient",
    "DaemonResult",
    "PoolShutdown",
    "ServableModel",
    "ServedResult",
    "ServingDaemon",
    "ShardedServingPool",
]
