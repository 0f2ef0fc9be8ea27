"""Driver for two-OS-process private inference over localhost TCP.

:func:`run_two_process_inference` plays the roles the paper keeps off the
measured path — the client (secret-sharing the query, reconstructing the
logits from the parties' result shares) and the session coordinator — while
the two spawned party processes execute the compiled plan jointly over a
real socket.  The driver cross-checks both parties' measured traffic against
the plan manifest and against each other, and verifies that the socket path
reproduces the single-process compiled path bit for bit.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.crypto.events import bytes_saved_pct as _bytes_saved_pct
from repro.crypto.passes import ScheduledPlan, optimize_plan
from repro.crypto.plan import compile_plan
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.sharing import share
from repro.models.specs import ModelSpec
from repro.runtime.party import PartyJob, PartyReport, run_party_worker


@dataclass
class TwoProcessResult:
    """Reconstructed output and verified accounting of one socket session.

    ``plan`` is the artifact the parties executed.
    """

    logits: np.ndarray
    plan: ScheduledPlan
    reports: Dict[int, PartyReport]
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
    def wire_bytes_on_wire(self) -> int:
        """Total socket bytes including framing (length prefixes + headers)."""
        return self.reports[0].wire_bytes_sent + self.reports[1].wire_bytes_sent

    @property
    def framing_overhead_bytes(self) -> int:
        return self.wire_bytes_on_wire - self.payload_bytes_on_wire

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


def _check_cross_party_consistency(
    plan, report0: PartyReport, report1: PartyReport
) -> None:
    """Both parties observed the same conversation, and it matches the plan."""
    if report0.payload_bytes_sent != report1.payload_bytes_received:
        raise RuntimeError(
            f"wire asymmetry: party 0 sent {report0.payload_bytes_sent} payload "
            f"bytes but party 1 received {report1.payload_bytes_received}"
        )
    if report1.payload_bytes_sent != report0.payload_bytes_received:
        raise RuntimeError(
            f"wire asymmetry: party 1 sent {report1.payload_bytes_sent} payload "
            f"bytes but party 0 received {report0.payload_bytes_received}"
        )
    for report in (report0, report1):
        if report.communication_bytes != plan.online_bytes:
            raise RuntimeError(
                f"party {report.party} logged {report.communication_bytes} online "
                f"bytes; the manifest predicts {plan.online_bytes}"
            )
        if report.per_layer_bytes != plan.per_op_bytes():
            raise RuntimeError(
                f"party {report.party}: per-layer byte log diverges from the plan"
            )


def run_two_process_inference(
    spec: ModelSpec,
    weights: Dict[str, Dict[str, np.ndarray]],
    inputs: np.ndarray,
    seed: int = 0,
    ring: Optional[FixedPointRing] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    timeout: float = 300.0,
) -> TwoProcessResult:
    """Run one private inference with the two parties in separate OS processes.

    The client-side flow: encode and secret-share ``inputs`` (with the same
    RNG stream the single-process engine would use, so the session is
    bit-identical to ``SecureInferenceEngine.execute`` at the same seed),
    hand each party its share-world, let them execute the scheduled plan over
    a localhost socket, then reconstruct the logits from the returned result
    shares.  Raises if either party's measured traffic deviates from the
    plan manifest.

    Ports: with ``port=None`` (the default) party 0 binds an ephemeral port
    and announces the kernel-assigned number over its control pipe before
    party 1 is spawned — end-to-end race-free, so parallel CI jobs cannot
    collide.
    """
    ring = ring or DEFAULT_RING
    inputs = np.asarray(inputs, dtype=np.float64)
    batch_size = int(inputs.shape[0])
    ephemeral = port is None
    port = 0 if ephemeral else port

    # Client: secret-share the query batch.  The RNG seed convention matches
    # TwoPartyContext (rng = seed + 1) so the mask equals the reference run's.
    client_rng = np.random.default_rng(seed + 1)
    shared = share(inputs, ring, client_rng)

    start = time.perf_counter()
    pipes = []
    processes = []
    try:
        for party, input_share in ((0, shared.share0), (1, shared.share1)):
            parent_conn, child_conn = mp.Pipe()
            process = mp.Process(
                target=run_party_worker,
                args=(child_conn, party, host, port),
                kwargs={"timeout": timeout},
                name=f"2pc-party-{party}",
            )
            process.start()
            child_conn.close()
            parent_conn.send(
                PartyJob(
                    spec=spec,
                    weights=weights,
                    batch_size=batch_size,
                    seed=seed,
                    input_share=input_share,
                    ring=ring,
                )
            )
            pipes.append(parent_conn)
            processes.append(process)
            if party == 0 and ephemeral:
                # wait for party 0's kernel-assigned port: the listener is
                # already bound, so handing the number to party 1 is race-free
                if not parent_conn.poll(timeout):
                    raise TimeoutError(
                        f"party 0 did not announce its bound port within {timeout:.0f}s"
                    )
                announcement = parent_conn.recv()
                if isinstance(announcement, BaseException):
                    raise RuntimeError(f"party 0 failed: {announcement}") from announcement
                kind, bound_port = announcement
                if kind != "bound-port":
                    raise RuntimeError(
                        f"party 0 announced {announcement!r}, expected a bound port"
                    )
                port = int(bound_port)

        reports: Dict[int, PartyReport] = {}
        deadline = time.monotonic() + timeout
        for party, conn in enumerate(pipes):
            remaining = max(deadline - time.monotonic(), 0.0)
            if not conn.poll(remaining):
                raise TimeoutError(
                    f"party {party} did not report within {timeout:.0f}s"
                )
            message = conn.recv()
            if isinstance(message, BaseException):
                raise RuntimeError(f"party {party} failed: {message}") from message
            reports[party] = message
        for process in processes:
            process.join(timeout=30.0)
    finally:
        for conn in pipes:
            conn.close()
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10.0)
    wall_seconds = time.perf_counter() - start

    plan = optimize_plan(compile_plan(spec, batch_size=batch_size, ring=ring))
    _check_cross_party_consistency(plan, reports[0], reports[1])

    # Client: reconstruct the logits from the two result shares.
    logits = ring.decode(ring.add(reports[0].logit_share, reports[1].logit_share))
    return TwoProcessResult(
        logits=logits, plan=plan, reports=reports, wall_seconds=wall_seconds
    )
