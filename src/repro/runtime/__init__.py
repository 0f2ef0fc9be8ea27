"""Networked two-party runtime: process-separated execution of compiled plans.

:mod:`repro.runtime.party` runs one computing party (one share-world) against
a transport; :mod:`repro.runtime.server` keeps a party alive across requests —
one long-lived process per party executing a stream of jobs over one
persistent connection against pre-provisioned randomness pools;
:mod:`repro.runtime.messages` is the control-pipe vocabulary between such a
server and its driver; :mod:`repro.runtime.shard` is that driver — the one
place two party processes are spawned — and
:mod:`repro.runtime.twoprocess` uses it for a single verified inference.
"""

from repro.runtime.messages import (
    JobFailed,
    JobReport,
    JobRequest,
    JobValidationError,
    RefillReport,
    RefillRequest,
    ServerConfig,
    ServerStats,
    ShutdownRequest,
)
from repro.runtime.party import PartyExecution, execute_plan_as_party
from repro.runtime.server import PartyServer, derive_job_seed, run_party_server
from repro.runtime.shard import (
    HeartbeatMiss,
    JobTicket,
    PoolBatchResult,
    ShardFailure,
    ShardStats,
    WorkerShard,
)
from repro.runtime.twoprocess import (
    TwoProcessResult,
    run_two_process_inference,
)

__all__ = [
    "HeartbeatMiss",
    "JobFailed",
    "JobReport",
    "JobRequest",
    "JobTicket",
    "JobValidationError",
    "PartyExecution",
    "PartyServer",
    "PoolBatchResult",
    "RefillReport",
    "RefillRequest",
    "ServerConfig",
    "ServerStats",
    "ShardFailure",
    "ShardStats",
    "ShutdownRequest",
    "WorkerShard",
    "derive_job_seed",
    "execute_plan_as_party",
    "run_party_server",
    "TwoProcessResult",
    "run_two_process_inference",
]
