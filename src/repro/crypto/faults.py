"""Link shaping and fault injection for the party link.

Deployed 2PC serving runs over links that jitter, stall and drop — not
over a clean loopback.  :class:`ShapedTransport` wraps any
:class:`~repro.crypto.transport.Transport` with seeded, deterministic link
shaping (constant latency, uniform jitter, a bandwidth cap) — the one place
a link delay is injected — and :class:`FaultyTransport` extends it with
scripted faults from a :class:`FaultPlan`: a stall of ``stall_ms`` at
communication round ``stall_at_round``, and a connection drop at
``drop_at_round`` (the wrapper closes the underlying connection and raises
:class:`FaultInjected`, so the peer observes a genuine mid-frame loss).
Faults are configurable per direction and per round index, replayable from
the plan's seed, and counted in :attr:`~repro.crypto.wire.WireStats.faults_injected` /
:attr:`~repro.crypto.wire.WireStats.stalls_injected` — shaping never touches the payload
counters, so payload == manifest accounting stays exact on a shaped link.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

import numpy as np

from repro.crypto.transport import Transport
from repro.crypto.wire import ROUND_CODE


class FaultInjected(ConnectionError):
    """A scripted fault from a :class:`FaultPlan` fired on this endpoint.

    Subclasses :class:`ConnectionError` so every recovery path (party-server
    job abort, shard eviction, pool retry) treats an injected drop exactly
    like a genuine connection loss — chaos tests exercise the real code.
    """


@dataclasses.dataclass
class FaultPlan:
    """A seeded, deterministic schedule of link shaping and scripted faults.

    Shaping (applies to every outgoing frame, all session long):

    - ``latency_ms`` — constant one-way delay;
    - ``jitter_ms`` — extra uniform ``[0, jitter_ms)`` delay drawn from a
      generator seeded with ``seed`` (replayable: the same plan produces the
      same delay sequence);
    - ``bandwidth_bytes_per_s`` — serialization delay of ``len(frame)``
      bytes through a capped link (0 = uncapped).

    Scripted faults (fire at a *communication round index*, i.e. the n-th
    coalesced round frame moving in the configured direction):

    - ``stall_at_round`` / ``stall_ms`` / ``stall_direction`` — a one-off
      read/write stall (the job survives; only latency suffers);
    - ``drop_at_round`` / ``drop_direction`` / ``max_drops`` — the wrapper
      closes the underlying connection and raises :class:`FaultInjected`;
      the peer observes a genuine mid-frame connection loss.  ``max_drops``
      bounds how often the drop fires (default once), so a respawned
      session against the same plan instance is not re-dropped forever.

    The plan is plain data (picklable, JSON-serializable via
    :meth:`to_dict`) so it can ride in a :class:`ServerConfig` to a party
    process and be uploaded as a CI artifact when a chaos test fails.
    """

    seed: int = 0
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    bandwidth_bytes_per_s: float = 0.0
    stall_at_round: Optional[int] = None
    stall_ms: float = 0.0
    stall_direction: str = "send"
    drop_at_round: Optional[int] = None
    drop_direction: str = "send"
    max_drops: int = 1

    _DIRECTIONS = ("send", "recv", "both")

    def __post_init__(self) -> None:
        for name in ("stall_direction", "drop_direction"):
            value = getattr(self, name)
            if value not in self._DIRECTIONS:
                raise ValueError(
                    f"{name} must be one of {self._DIRECTIONS}, got {value!r}"
                )

    @property
    def drops(self) -> bool:
        return self.drop_at_round is not None and self.max_drops > 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(**payload)


class ShapedTransport(Transport):
    """A transport wrapper that shapes the link deterministically.

    Wraps any :class:`Transport` and delays each outgoing frame by the
    plan's constant latency, seeded jitter and bandwidth-cap serialization
    time.  The wrapper keeps its own :class:`WireStats` (the array/control
    layers of :class:`Transport` run against it), so payload and manifest
    accounting are bit-for-bit what an unshaped endpoint would record —
    shaping only costs time, never bytes.
    """

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        super().__init__()
        self.inner = inner
        self.plan = plan
        self._jitter_rng = np.random.default_rng(plan.seed)

    def _shaping_delay_s(self, frame_bytes: int) -> float:
        plan = self.plan
        delay = plan.latency_ms / 1e3
        if plan.jitter_ms > 0.0:
            delay += float(self._jitter_rng.uniform(0.0, plan.jitter_ms)) / 1e3
        if plan.bandwidth_bytes_per_s > 0.0:
            delay += frame_bytes / plan.bandwidth_bytes_per_s
        return delay

    def _shape(self, frame: bytes) -> None:
        delay = self._shaping_delay_s(len(frame))
        if delay > 0.0:
            time.sleep(delay)

    def _transfer(self, frame: Optional[bytes], receive: bool) -> Optional[bytes]:
        if frame is not None:
            # full duplex: in an exchange the peer shapes its frame
            # concurrently, so the round pays the one-way delay once
            self._shape(frame)
        return self.inner._transfer(frame, receive)

    def close(self) -> None:
        self.inner.close()


class FaultyTransport(ShapedTransport):
    """A :class:`ShapedTransport` that also executes scripted faults.

    Round indices are the per-direction counts of coalesced round frames
    (``WireStats.round_frames_sent`` / ``_received``) — the same counters
    the round-coalescing scheduler reports — so "drop at round k" means
    exactly the k-th communication round of the executing plan in that
    direction.  Control frames never trip a fault.

    Send-side faults fire *before* the frame leaves (the peer never sees
    it); recv-side faults fire after the bytes arrive but before they are
    delivered (the frame is lost in flight).  Both close the underlying
    connection first, so the peer observes a genuine connection loss and
    both parties abort the job rather than deadlocking.  The hooks sit on
    :meth:`Transport._put_frame` / :meth:`Transport._take_frame`, so in a
    full-duplex exchange the send-side fault fires before the exchange and
    the recv-side fault after it, at the same per-direction indices as on
    one-way frames.
    """

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        super().__init__(inner, plan)
        self._drops_done = 0

    @staticmethod
    def _applies(configured: str, direction: str) -> bool:
        return configured in (direction, "both")

    def _run_scripted_faults(self, direction: str, index: int) -> None:
        plan = self.plan
        if (
            plan.stall_ms > 0.0
            and plan.stall_at_round == index
            and self._applies(plan.stall_direction, direction)
        ):
            self.stats.stalls_injected += 1
            time.sleep(plan.stall_ms / 1e3)
        if (
            plan.drop_at_round == index
            and self._drops_done < plan.max_drops
            and self._applies(plan.drop_direction, direction)
        ):
            self._drops_done += 1
            self.stats.faults_injected += 1
            self.inner.close()
            raise FaultInjected(
                f"scripted fault: connection dropped at round {index} "
                f"({direction} direction, fault {self._drops_done}/"
                f"{plan.max_drops} of the plan)"
            )

    def _put_frame(self, frame: bytes) -> None:
        if frame and frame[0] == ROUND_CODE:
            self._run_scripted_faults("send", self.stats.round_frames_sent)
        super()._put_frame(frame)

    def _take_frame(self) -> bytes:
        frame = super()._take_frame()
        if frame and frame[0] == ROUND_CODE:
            self._run_scripted_faults("recv", self.stats.round_frames_received)
        return frame
