"""Point-to-point channel between the two computing servers.

Every message exchanged by the 2PC protocols flows through a
:class:`Channel`, which records per-direction byte counts and communication
rounds.  The recorded volumes are the executable counterpart of the
analytical communication model in :mod:`repro.hardware.latency`.

Two channel flavours share the same accounting and the same protocol-facing
API (:meth:`Channel.open_ring`, :meth:`Channel.open_bits`,
:meth:`Channel.transfer`):

- :class:`Channel` — the in-process simulation: both share-worlds live in
  one process, so "communication" reduces to bookkeeping plus the local
  combination of the two shares;
- :class:`PartyChannel` — one party's end of a real connection: the local
  share genuinely crosses a :class:`~repro.crypto.transport.Transport`
  (TCP socket or in-process loopback) and the peer's share genuinely arrives
  from the wire.  Both parties log the full conversation in the canonical
  order (S0's message first), so their logs are identical to each other and
  to the simulated channel's.

Protocol code MUST consume the results delivered for its communication
events (or the return values of these methods) rather than recombining
local variables — that is what makes the identical SPMD protocol program
correct in both the simulated and the networked setting.  Protocols
compiled into a plan do not call the channel directly: they yield
:class:`~repro.crypto.events.CommEvent` round groups, and the driver either
performs each event individually (the sequential oracle) or hands a whole
coalesced round to :meth:`Channel.run_round` — one framed message per
direction per round.  A protocol called outside a plan may still call
:meth:`Channel.open_ring` and friends itself (secure argmax does), and on a
:class:`PartyChannel` each such call is a round of one event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.events import (
    OPEN_BITS,
    OPEN_RING,
    TRANSFER,
    CommEvent,
    bytes_saved_pct as _bytes_saved_pct,
    group_direction_bytes,
    open_bits_event,
    open_ring_event,
    payload_num_bytes,
    transfer_event,
)
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.transport import Transport


@dataclass
class Message:
    """A single message: sender, receiver, payload size and a tag for audits.

    ``num_bytes`` is the on-wire payload size (sub-byte payloads packed at
    their true width); ``unpacked_bytes`` is the frame-format-v1 equivalent
    (every uint8 element a full byte) kept for the ``bytes_saved`` stats —
    zero means "same as num_bytes" (ring payloads, hand-built messages).
    """

    sender: int
    receiver: int
    num_bytes: int
    tag: str = ""
    unpacked_bytes: int = 0


@dataclass
class CommunicationLog:
    """Aggregated communication statistics of a protocol execution."""

    messages: List[Message] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(m.num_bytes for m in self.messages)

    @property
    def total_unpacked_bytes(self) -> int:
        """What the same conversation would cost at frame format v1 (no
        sub-byte packing) — the denominator of :attr:`bytes_saved_pct`."""
        return sum(max(m.num_bytes, m.unpacked_bytes) for m in self.messages)

    @property
    def bytes_saved_pct(self) -> float:
        """Percent of payload bytes the packed wire format saves (0-100)."""
        return _bytes_saved_pct(self.total_bytes, self.total_unpacked_bytes)

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

    def bytes_by_tag(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for m in self.messages:
            out[m.tag] = out.get(m.tag, 0) + m.num_bytes
        return out

    def clear(self) -> None:
        self.messages.clear()


class Channel:
    """An in-process bidirectional channel between server 0 and server 1."""

    def __init__(
        self,
        element_bytes: Optional[int] = None,
        ring: Optional[FixedPointRing] = None,
    ) -> None:
        """``element_bytes`` is the on-the-wire size of one ring element.

        When not given explicitly it is derived from ``ring`` (defaulting to
        the executable :data:`repro.crypto.ring.DEFAULT_RING`), so the logged
        byte counts always match the width of the ring elements actually
        exchanged — 8 bytes for the 64-bit executable ring, 4 bytes for the
        paper's 32-bit setting.
        """
        self.ring = ring or DEFAULT_RING
        if element_bytes is None:
            element_bytes = self.ring.ring_bits // 8
        self.element_bytes = element_bytes
        self.log = CommunicationLog()

    def send(
        self,
        sender: int,
        receiver: int,
        payload: np.ndarray,
        tag: str = "",
        element_bits: int = 8,
    ) -> np.ndarray:
        """Transfer ``payload`` from ``sender`` to ``receiver``.

        The payload is returned unchanged (the simulation is in-process).
        Ring elements (stored as uint64 regardless of the configured ring
        width) are counted as ``element_bytes`` each; uint8 payloads with a
        declared sub-byte ``element_bits`` are counted packed (``ceil(size *
        bits / 8)``); any other dtype is counted at its native width.
        """
        if sender not in (0, 1) or receiver not in (0, 1) or sender == receiver:
            raise ValueError(f"invalid sender/receiver pair ({sender}, {receiver})")
        payload = np.asarray(payload)
        self.log.messages.append(
            Message(
                sender,
                receiver,
                self._payload_bytes(payload, element_bits),
                tag,
                unpacked_bytes=self._payload_bytes(payload, 8),
            )
        )
        return payload

    def _payload_bytes(self, payload: np.ndarray, element_bits: int = 8) -> int:
        """The accounting rule shared by the simulated and networked channels."""
        return payload_num_bytes(payload, self.element_bytes, element_bits)

    def exchange(
        self,
        payload0: np.ndarray,
        payload1: np.ndarray,
        tag: str = "",
        element_bits: int = 8,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Simultaneously send ``payload0`` (from S0 to S1) and ``payload1``
        (from S1 to S0); returns what each party receives: (recv_by_0, recv_by_1)."""
        received_by_1 = self.send(0, 1, payload0, tag=tag, element_bits=element_bits)
        received_by_0 = self.send(1, 0, payload1, tag=tag, element_bits=element_bits)
        return received_by_0, received_by_1

    # ------------------------------------------------------------------ #
    # Protocol-facing semantics (identical across channel flavours)
    # ------------------------------------------------------------------ #
    def open_ring(
        self, share_from_0: np.ndarray, share_from_1: np.ndarray, tag: str = ""
    ) -> np.ndarray:
        """Open an additively shared ring value: both parties learn the sum.

        One bidirectional exchange (S0's message logged first).  In the
        simulation both shares are at hand; in a :class:`PartyChannel` the
        peer's share arrives over the transport.
        """
        self.exchange(share_from_0, share_from_1, tag=tag)
        return self.ring.add(share_from_0, share_from_1)

    def open_bits(
        self,
        bits_from_0: np.ndarray,
        bits_from_1: np.ndarray,
        tag: str = "",
        element_bits: int = 1,
    ) -> np.ndarray:
        """Open an XOR-shared bit tensor: both parties learn the XOR.

        Bit openings ride the packed 1-bit wire width by default (eight
        opened bits per byte of accounted payload).
        """
        bits_from_0 = np.asarray(bits_from_0, dtype=np.uint8)
        bits_from_1 = np.asarray(bits_from_1, dtype=np.uint8)
        self.exchange(bits_from_0, bits_from_1, tag=tag, element_bits=element_bits)
        return bits_from_0 ^ bits_from_1

    def transfer(
        self,
        sender: int,
        receiver: int,
        payload: np.ndarray,
        tag: str = "",
        element_bits: int = 8,
    ) -> np.ndarray:
        """One-directional transfer; returns the payload as the receiver sees
        it (in the simulation that is the payload itself)."""
        return self.send(sender, receiver, payload, tag=tag, element_bits=element_bits)

    def run_round(self, events: List[CommEvent]) -> List[object]:
        """Perform one coalesced communication round.

        All events of the round are mutually independent (the scheduler's
        contract); their messages share at most one framed message per
        direction.  The log therefore records one entry per direction with
        the summed payload bytes — the round structure the plan schedule
        predicts — while the per-event results are exactly what the
        individual :meth:`open_ring`/:meth:`open_bits`/:meth:`transfer`
        calls would have returned.
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

    def _log_round(self, events: List[CommEvent]) -> None:
        """One log entry per direction with the round's summed payload."""
        from_0, from_1 = group_direction_bytes(events, self.element_bytes)
        raw_0, raw_1 = group_direction_bytes(events, self.element_bytes, packed=False)
        if from_0:
            self.log.messages.append(Message(0, 1, from_0, "round", unpacked_bytes=raw_0))
        if from_1:
            self.log.messages.append(Message(1, 0, from_1, "round", unpacked_bytes=raw_1))

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

    Every interaction is a round (:meth:`run_round`; the per-event methods
    are rounds of one event), and both parties log each round from the same
    SPMD-identical event list in the canonical order (S0's message first),
    so ``log.total_bytes`` / ``log.rounds`` match the simulated channel and
    the plan manifest exactly.  That order is accounting only.  On the wire
    a round in which this party both sends and expects data is one
    full-duplex
    :meth:`Transport.exchange_arrays <repro.crypto.transport.Transport.exchange_arrays>`
    — the two frames cross on the link, so the round costs one link
    traversal — and a one-directional round is a plain send or receive.
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

    # -- protocol-facing semantics: each call is a round of one event ------- #
    def open_ring(
        self, share_from_0: np.ndarray, share_from_1: np.ndarray, tag: str = ""
    ) -> np.ndarray:
        return self.run_round([open_ring_event(share_from_0, share_from_1, tag)])[0]

    def open_bits(
        self,
        bits_from_0: np.ndarray,
        bits_from_1: np.ndarray,
        tag: str = "",
        element_bits: int = 1,
    ) -> np.ndarray:
        event = open_bits_event(bits_from_0, bits_from_1, tag, element_bits)
        return self.run_round([event])[0]

    def transfer(
        self,
        sender: int,
        receiver: int,
        payload: np.ndarray,
        tag: str = "",
        element_bits: int = 8,
    ) -> np.ndarray:
        event = transfer_event(sender, receiver, payload, tag, element_bits)
        return self.run_round([event])[0]

    #: (the simulated ``send`` only logs; a party's has to move the payload)
    send = transfer

    def run_round(self, events: List[CommEvent]) -> List[object]:
        """One coalesced round over the transport: one multi-tensor frame
        per direction instead of one frame per event, the two directions
        exchanged full duplex.

        A direction with nothing to ship sends no frame at all; both parties
        derive that, and the layout of every frame, from the same
        (SPMD-identical) event list, so the frame sequence stays
        deterministic, a round is two-way for one party exactly when it is
        for the other, and a frame needs no per-array headers.  Logging
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
        if outgoing and expected:
            received = self.transport.exchange_arrays(outgoing, expected, self.ring)
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
