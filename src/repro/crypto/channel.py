"""Point-to-point channel between the two computing servers.

A channel does one thing: :meth:`Channel.run_round` performs one round of
mutually independent :class:`~repro.crypto.events.CommEvent`\\ s — built with
:func:`~repro.crypto.events.open_ring_event`,
:func:`~repro.crypto.events.open_bits_event` and
:func:`~repro.crypto.events.transfer_event` — returns what each event
delivers (the opened sum, the opened XOR, the payload as the receiver sees
it) and logs one :class:`Message` per direction that carries payload.  The
logged volumes are the executable counterpart of the analytical
communication model in :mod:`repro.hardware.latency`.

Two channel flavours share that verb and that accounting:

- :class:`Channel` — the in-process simulation: both share-worlds live in
  one process, so "communication" reduces to bookkeeping plus the local
  combination of the two shares;
- :class:`PartyChannel` — one party's end of a real connection: the local
  share genuinely crosses a :class:`~repro.crypto.transport.Transport`
  (TCP socket or in-process loopback) and the peer's share genuinely arrives
  from the wire.  Both parties log the full conversation in the canonical
  order (S0's message first), so their logs are identical to each other and
  to the simulated channel's.

Protocol code MUST consume the results a round delivers rather than
recombining local variables — that is what makes the identical SPMD
protocol program correct in both the simulated and the networked setting.
Protocols yield round groups; the round-coalescing executor hands each whole
group to :meth:`Channel.run_round` (one framed message per direction per
round) and the sequential oracle (:func:`repro.crypto.events.run_phases`)
hands it one event at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.events import (
    OPEN_BITS,
    OPEN_RING,
    TRANSFER,
    CommEvent,
    group_direction_bytes,
)
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.transport import Transport


@dataclass
class Message:
    """One direction of one round: sender, receiver and payload size.

    ``num_bytes`` is the on-wire payload size (sub-byte payloads packed at
    their true width).
    """

    sender: int
    receiver: int
    num_bytes: int


@dataclass
class CommunicationLog:
    """Aggregated communication statistics of a protocol execution."""

    messages: List[Message] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(m.num_bytes for m in self.messages)

    @property
    def total_megabytes(self) -> float:
        return self.total_bytes / 1e6

    @property
    def rounds(self) -> int:
        """Number of direction changes + 1 (a crude but standard round count)."""
        if not self.messages:
            return 0
        rounds = 1
        for prev, cur in zip(self.messages, self.messages[1:]):
            if cur.sender != prev.sender:
                rounds += 1
        return rounds

    def clear(self) -> None:
        self.messages.clear()


class Channel:
    """An in-process bidirectional channel between server 0 and server 1."""

    def __init__(self, ring: Optional[FixedPointRing] = None) -> None:
        self.ring = ring or DEFAULT_RING
        #: on-the-wire size of one ring element, derived from the ring so the
        #: log matches what is exchanged: 8 bytes for the 64-bit executable
        #: ring, 4 for the paper's 32-bit setting
        self.element_bytes = self.ring.ring_bits // 8
        self.log = CommunicationLog()

    def run_round(self, events: Sequence[CommEvent]) -> List[object]:
        """Perform one coalesced communication round.

        All events of the round are mutually independent (the scheduler's
        contract); their messages share at most one framed message per
        direction.  The log therefore records one entry per direction that
        carries payload, with the summed payload bytes — the round structure
        the plan schedule predicts — and a direction with zero bytes logs
        nothing.  Each result is what both parties learn: the sum of an
        ``open_ring``, the XOR of an ``open_bits``, the payload of a
        ``transfer``.
        """
        results: List[object] = []
        for event in events:
            if event.kind == OPEN_RING:
                results.append(self.ring.add(event.payload0, event.payload1))
            elif event.kind == OPEN_BITS:
                results.append(event.payload0 ^ event.payload1)
            elif event.kind == TRANSFER:
                results.append(event.payload0)
            else:
                raise ValueError(f"unknown comm event kind {event.kind!r}")
        self._log_round(events)
        return results

    def _log_round(self, events: Sequence[CommEvent]) -> None:
        """One log entry per direction with the round's summed payload."""
        from_0, from_1 = group_direction_bytes(events, self.element_bytes)
        if from_0:
            self.log.messages.append(Message(0, 1, from_0))
        if from_1:
            self.log.messages.append(Message(1, 0, from_1))

    def reset(self) -> None:
        self.log.clear()

    @property
    def total_bytes(self) -> int:
        return self.log.total_bytes

    @property
    def rounds(self) -> int:
        return self.log.rounds


class PartyChannel(Channel):
    """One party's end of a genuinely communicating channel.

    The same SPMD protocol program that runs against the simulated
    :class:`Channel` runs against a :class:`PartyChannel` inside each party's
    process: the plan executor reads :attr:`party` as the one live share
    lane, so expressions indexed by this party operate on genuine data and
    the other lane is the read-only
    :func:`~repro.crypto.kernels.dead_lane` placeholder.  :meth:`run_round`
    only ever reads this party's payload of an event — the other may be the
    placeholder — and every cross-party value is obtained from the
    transport.

    Both parties log each round from the same SPMD-identical event list in
    the canonical order (S0's message first), so ``log.total_bytes`` /
    ``log.rounds`` match the simulated channel and the plan manifest
    exactly.  That order is accounting only.  On the wire a round in which
    this party both sends and expects data is one full-duplex
    :meth:`Transport.exchange_arrays <repro.crypto.transport.Transport.exchange_arrays>`
    — the two frames cross on the link, so the round costs one link
    traversal — and a one-directional round is a plain send or receive.

    A channel armed with a job's digest (:attr:`digest` set) runs its next
    round as the job's first: always a full-duplex exchange whose two frames
    carry the digest, so each party checks the other's job before it
    decodes a payload.  A party with nothing to send in that round sends the
    digest alone; its frame crosses the peer's, so the check costs no
    traversal.
    """

    def __init__(
        self,
        transport: Transport,
        party: int,
        ring: Optional[FixedPointRing] = None,
    ) -> None:
        if party not in (0, 1):
            raise ValueError(f"party must be 0 or 1, got {party}")
        super().__init__(ring=ring)
        self.transport = transport
        self.party = party
        #: the job digest the next round's frames carry, cleared as that
        #: round starts (empty: not armed)
        self.digest = b""

    def run_round(self, events: Sequence[CommEvent]) -> List[object]:
        """One coalesced round over the transport: one multi-tensor frame
        per direction instead of one frame per event, the two directions
        exchanged full duplex.

        A direction with nothing to ship sends no frame at all — except in
        an armed round, which is always two-way; both parties derive that,
        and the layout of every frame, from the same (SPMD-identical) event
        list, so the frame sequence stays deterministic, a round is two-way
        for one party exactly when it is for the other, and a frame needs no
        per-array headers.  Logging
        matches the simulated channel's: one entry per direction with the
        round's summed payload bytes.
        """
        outgoing: "List[Tuple[np.ndarray, int]]" = []
        expected: "List[Tuple[np.ndarray, int]]" = []
        for event in events:
            if event.kind in (OPEN_RING, OPEN_BITS):
                # (open_bits_event has already cast bit payloads to uint8)
                mine = event.payload0 if self.party == 0 else event.payload1
                outgoing.append((mine, event.element_bits))
                expected.append((mine, event.element_bits))
            elif event.kind == TRANSFER:
                # (the receiver's payload0 is the sender's placeholder)
                item = (np.asarray(event.payload0), event.element_bits)
                (outgoing if event.sender == self.party else expected).append(item)
            else:
                raise ValueError(f"unknown comm event kind {event.kind!r}")

        received: List[np.ndarray] = []
        digest, self.digest = self.digest, b""
        if digest or (outgoing and expected):
            received = self.transport.exchange_arrays(outgoing, expected, self.ring, digest)
        elif outgoing:
            self.transport.send_arrays(outgoing, self.ring)
        elif expected:
            received = self.transport.recv_arrays(expected, self.ring)

        results: List[object] = []
        mine_iter = iter(array for array, _ in outgoing)
        theirs_iter = iter(received)
        for event in events:
            if event.kind == OPEN_RING:
                results.append(self.ring.add(next(mine_iter), next(theirs_iter)))
            elif event.kind == OPEN_BITS:
                results.append(next(mine_iter) ^ next(theirs_iter))
            else:  # TRANSFER
                results.append(next(mine_iter if event.sender == self.party else theirs_iter))
        self._log_round(events)
        return results
