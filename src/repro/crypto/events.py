"""Communication events: the phase interface between protocols and channels.

The online protocols are written as *phase generators* (see
:mod:`repro.crypto.protocols.registry`): pure local computation punctuated by
``yield``\\ ed **round groups** — tuples of :class:`CommEvent` whose messages
are mutually independent and may therefore share one network round.  A
channel's one verb, :meth:`repro.crypto.channel.Channel.run_round`, performs
a round of events; the driver that consumes a generator decides how many
events each round holds:

- the round-coalescing executor (:mod:`repro.crypto.scheduler`) — the one
  runtime path — hands each whole group to ``run_round``, which puts at
  most one framed message per direction on the wire per round;
- :func:`run_phases` (this module) performs every event of a group as a
  round of its own against ``ctx.channel`` — the *sequential* reference
  semantics.  The standalone protocol functions (``secure_relu(ctx, x)``)
  use it, and :func:`run_reference` drives a whole plan through it: the
  **oracle** that tests and benchmark gates compare the runtime against.

Protocol code describes its communication as events built with
:func:`open_ring_event`, :func:`open_bits_event` and :func:`transfer_event`.
The result a round delivers for an event does not depend on which other
events share the round, so the local math is oblivious to the driving mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: event kinds (``CommEvent.kind``)
OPEN_RING = "open_ring"
OPEN_BITS = "open_bits"
TRANSFER = "transfer"


#: uint8 element widths the packed wire codec supports (bits per element)
PACKABLE_BITS = (1, 2)


@dataclass
class CommEvent:
    """One pending channel interaction of a protocol phase.

    ``payload0`` / ``payload1`` hold the two parties' contributions for the
    bidirectional ``open_*`` kinds; a ``transfer`` stores its single payload
    in ``payload0`` together with ``sender``/``receiver``.

    ``element_bits`` declares the true information width of a uint8 payload:
    1 for bit planes (GMW AND openings, daBit openings), 2 for the packed
    gt/eq OT digits, 8 for generic byte payloads.  The channel accounting
    and the wire codec both pack sub-byte payloads at this width
    (``ceil(size * element_bits / 8)`` bytes per array), so the logged bytes
    equal what actually crosses the socket.  Ring payloads ignore it — they
    are always packed at the ring element width.
    """

    kind: str
    payload0: np.ndarray
    payload1: Optional[np.ndarray] = None
    sender: int = 0
    receiver: int = 1
    tag: str = ""
    element_bits: int = 8


def open_ring_event(
    share_from_0: np.ndarray, share_from_1: np.ndarray, tag: str = ""
) -> CommEvent:
    """Open an additively shared ring value (one bidirectional exchange)."""
    return CommEvent(OPEN_RING, np.asarray(share_from_0), np.asarray(share_from_1), tag=tag)


def open_bits_event(
    bits_from_0: np.ndarray,
    bits_from_1: np.ndarray,
    tag: str = "",
    element_bits: int = 1,
) -> CommEvent:
    """Open an XOR-shared bit tensor (one bidirectional exchange).

    Bit openings default to the packed 1-bit wire width — eight opened bits
    per byte on the wire and in the accounting.
    """
    return CommEvent(
        OPEN_BITS,
        np.asarray(bits_from_0, dtype=np.uint8),
        np.asarray(bits_from_1, dtype=np.uint8),
        tag=tag,
        element_bits=element_bits,
    )


def transfer_event(
    sender: int,
    receiver: int,
    payload: np.ndarray,
    tag: str = "",
    element_bits: int = 8,
) -> CommEvent:
    """One-directional transfer from ``sender`` to ``receiver``."""
    if sender not in (0, 1) or receiver not in (0, 1) or sender == receiver:
        raise ValueError(f"invalid sender/receiver pair ({sender}, {receiver})")
    return CommEvent(
        TRANSFER,
        np.asarray(payload),
        sender=sender,
        receiver=receiver,
        tag=tag,
        element_bits=element_bits,
    )


RoundGroup = Tuple[CommEvent, ...]


def as_group(group) -> RoundGroup:
    """Normalize a yielded value (event or iterable of events) to a tuple."""
    if isinstance(group, CommEvent):
        return (group,)
    return tuple(group)


def event_payload_arrays(event: CommEvent) -> List[Tuple[int, np.ndarray]]:
    """``(sender, array)`` for every message the event puts on the wire."""
    if event.kind == TRANSFER:
        return [(event.sender, event.payload0)]
    return [(0, event.payload0), (1, event.payload1)]


def packed_num_bytes(num_elements: int, element_bits: int) -> int:
    """Wire bytes of ``num_elements`` packed sub-byte values: ``ceil`` per
    array — the single rule shared by the codec, the channel accounting and
    the trace helpers (they must agree or payload==manifest drifts)."""
    return (int(num_elements) * int(element_bits) + 7) // 8


def payload_num_bytes(array: np.ndarray, element_bytes: int, element_bits: int = 8) -> int:
    """The channel accounting rule: ring elements at the ring width, uint8
    payloads packed at their declared ``element_bits`` (1-bit planes cost a
    byte per eight elements), everything else at native width."""
    array = np.asarray(array)
    if array.dtype in (np.uint64, np.int64):
        return int(array.size) * element_bytes
    if element_bits in PACKABLE_BITS and array.dtype == np.uint8:
        return packed_num_bytes(array.size, element_bits)
    return int(array.nbytes)


def group_direction_bytes(events: Iterable[CommEvent], element_bytes: int) -> Tuple[int, int]:
    """Summed payload bytes ``(from_0, from_1)`` of one (coalesced) round."""
    totals = [0, 0]
    for event in events:
        for sender, array in event_payload_arrays(event):
            totals[sender] += payload_num_bytes(array, element_bytes, event.element_bits)
    return totals[0], totals[1]


def run_phases(ctx, gen):
    """Drive a phase generator sequentially (the reference semantics).

    Every event of every yielded group is performed as a round of one
    event against ``ctx.channel``, in group order: grouping carries
    *scheduling freedom*, not a semantic change.  Returns the generator's
    return value.
    """
    results: Optional[Sequence] = None
    while True:
        try:
            group = gen.send(results)
        except StopIteration as stop:
            return stop.value
        results = tuple(ctx.channel.run_round((event,))[0] for event in as_group(group))


def run_reference(ctx, plan, weights, inputs, pool=None):
    """The oracle: execute ``plan`` sequentially, one event at a time.

    Walks the ops in plan order and drives each handler's phase generator
    through :func:`run_phases` — no round coalescing, no pool partitioning
    and never a kernel context, so every protocol takes its reference numpy
    chain.  It shares inputs and draws randomness exactly like
    :meth:`~repro.crypto.secure_model.SecureInferenceEngine.execute`, which
    must reproduce these logits bit for bit; ``ctx`` afterwards logs
    ``plan.online_bytes`` and ``plan.oracle_rounds``.  Nothing under
    ``repro.runtime`` or ``repro.serve`` may import it.

    Returns ``(logits, per_op_bytes, per_op_cpu_ns)``.
    """
    from repro.crypto.protocols.registry import get_handler
    from repro.crypto.sharing import reconstruct, share

    dealer = ctx.dealer
    ctx.dealer = pool if pool is not None else dealer.preprocess(plan)
    per_op_bytes: Dict[str, int] = {}
    per_op_cpu_ns: Dict[str, int] = {}
    try:
        ctx.reset_communication()
        shared = share(np.asarray(inputs, dtype=np.float64), ctx.ring, ctx.rng)
        cache: Dict[str, object] = {}
        for op in plan.ops:
            before, started = ctx.communication_bytes, time.perf_counter_ns()
            phases = get_handler(op.kind).phases
            shared = cache[op.name] = run_phases(
                ctx, phases(ctx, op.layer, weights.get(op.name, {}), shared, cache)
            )
            per_op_cpu_ns[op.name] = time.perf_counter_ns() - started
            per_op_bytes[op.name] = ctx.communication_bytes - before
    finally:
        ctx.dealer = dealer
    return reconstruct(shared), per_op_bytes, per_op_cpu_ns
