"""One private inference on two OS processes over localhost TCP.

:func:`run_two_process_inference` boots one
:class:`~repro.runtime.shard.WorkerShard` with no provisioning, runs a single
job under a pinned :class:`~repro.runtime.shard.JobTicket` and shuts the pair
down.  The shard secret-shares the query, the two party servers verify their
measured traffic against the plan manifest and the shard cross-checks their
accounts — the same driver, checks and wire path as the serving pool, so the
result is bit-identical to the in-process engine at the same seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.crypto.events import bytes_saved_pct as _bytes_saved_pct
from repro.crypto.passes import ScheduledPlan, optimize_plan
from repro.crypto.plan import compile_plan
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.models.specs import ModelSpec
from repro.runtime.messages import JobReport, ServerConfig
from repro.runtime.shard import JobTicket, WorkerShard


@dataclass
class TwoProcessResult:
    """Reconstructed output and verified accounting of one socket session.

    ``plan`` is the artifact the parties executed; ``reports`` are the two
    party servers' :class:`~repro.runtime.messages.JobReport`\\ s.
    """

    logits: np.ndarray
    plan: ScheduledPlan
    reports: Dict[int, JobReport]
    wall_seconds: float

    @property
    def online_bytes(self) -> int:
        return self.reports[0].communication_bytes

    @property
    def online_rounds(self) -> int:
        return self.reports[0].communication_rounds

    @property
    def payload_bytes_on_wire(self) -> int:
        """Array payload bytes that crossed the socket (both directions)."""
        return (
            self.reports[0].payload_bytes_sent + self.reports[1].payload_bytes_sent
        )

    @property
    def unpacked_payload_bytes(self) -> int:
        """Frame-format-v1 equivalent of the payload (no sub-byte packing)."""
        return self.reports[0].unpacked_payload_bytes

    @property
    def bytes_saved_pct(self) -> float:
        """Percent of payload the packed wire format saved this session."""
        return _bytes_saved_pct(
            self.payload_bytes_on_wire, self.unpacked_payload_bytes
        )

    @property
    def cpu_time_ns(self) -> int:
        """Local-compute time of the online phase (slower party; the two
        parties run concurrently, so their max is the session's)."""
        return max(self.reports[p].cpu_time_ns for p in (0, 1))

    @property
    def fused_kernel_calls(self) -> int:
        """Fused-kernel invocations per party (identical on both sides)."""
        return self.reports[0].fused_kernel_calls

    @property
    def matches_manifest(self) -> bool:
        return self.payload_bytes_on_wire == self.plan.online_bytes


def run_two_process_inference(
    spec: ModelSpec,
    weights: Dict[str, Dict[str, np.ndarray]],
    inputs: np.ndarray,
    seed: int = 0,
    ring: Optional[FixedPointRing] = None,
    host: str = "127.0.0.1",
    timeout: float = 300.0,
) -> TwoProcessResult:
    """Run one private inference with the two parties in separate OS processes.

    The session seed is pinned to ``seed`` (query sharing mask, dealer
    stream and party contexts), so the logits are bit-identical to
    ``SecureInferenceEngine.execute`` at that seed.  Raises if either
    party's measured traffic deviates from the plan manifest or the two
    parties' accounts disagree; no party process outlives the call, whether
    it returns or raises.
    """
    ring = ring or DEFAULT_RING
    batch_size = len(inputs)
    config = ServerConfig(
        base_seed=seed,
        models={spec.name: spec},
        weights={spec.name: weights},
        ring=ring,
    )
    ticket = JobTicket(model=spec.name, batch_size=batch_size, counter=0, seed=seed)
    start = time.perf_counter()
    shard = WorkerShard(0, config, host=host, timeout=timeout)
    try:
        job = shard.run_job(spec.name, inputs, ticket=ticket)
        shard.shutdown()
    finally:
        shard.kill()  # a no-op after a graceful shutdown
    wall_seconds = time.perf_counter() - start
    plan = optimize_plan(compile_plan(spec, batch_size=batch_size, ring=ring))
    return TwoProcessResult(
        logits=job.logits, plan=plan, reports=job.reports, wall_seconds=wall_seconds
    )
