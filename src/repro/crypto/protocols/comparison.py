"""Secure comparison: the non-polynomial core of 2PC private inference.

The comparison protocol ("millionaires' problem") determines whose value is
larger without revealing the values.  Following the paper's OT-flow
(Section III-C.1) the values are decomposed into 2-bit digits; a 1-of-4 OT
per digit transfers masked greater-than / equality indicator bits, which are
then combined with a GMW-style prefix circuit (AND gates from dealer bit
triples) into a single XOR-shared comparison bit.

Four structural optimizations make this module the fast path it is:

1. **log-depth prefix tree of fan-out gates** — the per-digit (gt, eq)
   pairs are folded with the associative comparison combine ``(hi) ∘ (lo)
   = (gt_hi ^ (eq_hi & gt_lo), eq_hi & eq_lo)`` in a Kogge-Stone-style
   balanced tree, so a 64-bit comparison over 32 digits needs
   ``ceil(log2(32)) = 5`` AND rounds instead of the 32 sequential prefix
   steps of the naive chain.  Both gates of a combine share ``eq_hi``, so a
   level opens it once under one fan-out triple (CrypTFlow2's correlated
   AND triples), and the last position's equality bit, which no level
   reads, is never computed: 88 opened bits per party per element instead
   of 122;
2. **stacked-digit kernels** — digit extraction, the OT table construction
   and every tree level's AND gates operate on one ``(digits,) + shape``
   stacked array: one dealer request, one numpy kernel and one wire event
   per level instead of one per digit;
3. **sub-byte payloads** — the OT tables ship as packed 2-bit elements and
   every AND opening and the select's ``c`` as packed 1-bit planes (see
   :mod:`repro.crypto.transport`), cutting the boolean wire volume 4-8x;
4. **live lanes only** — a party process (``ctx.live_lane`` set) computes
   its own side alone, through :func:`~repro.crypto.kernels.per_lane`: S0
   draws the pads and builds the OT table, S1 only selects from what
   arrives, and every AND mask, tree level, DReLU finish and select opening
   and finish leaves the peer's lane the read-only
   :func:`~repro.crypto.kernels.dead_lane`.

Every interactive routine is a phase generator (``*_phases``) whose yielded
round groups encode the protocol's intrinsic parallelism: all digit OTs ride
one round, each tree level's AND gates ride one round.  The plain functions
drive the generators sequentially (the reference semantics).

On top of the raw comparison this module builds:

- :func:`drelu` -- XOR-shared derivative of ReLU, i.e. the bit (x > 0),
  computed from the shares' MSBs and a carry comparison;
- :func:`select` -- multiplexing a shared value by an XOR-shared bit in one
  round: a dealer daBit widened with a Beaver half-triple turns it into one
  packed 1-bit opening plus one ring-word opening, finished locally.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import fan_out_rows
from repro.crypto.events import open_bits_event, open_ring_event, run_phases, transfer_event
from repro.crypto.kernels import KERNELS, dead_lane, per_lane
from repro.crypto.protocols.registry import (
    OpTrace,
    element_bytes,
    open_bits_trace_event,
    open_trace_event,
    packed_payload_bytes,
    send_trace_event,
)
from repro.crypto.ring import FixedPointRing
from repro.crypto.sharing import SharePair, sub_shares

XorSharedBit = Tuple[np.ndarray, np.ndarray]


def _and_prepare(ctx: TwoPartyContext, x: XorSharedBit, y: XorSharedBit, tag: str):
    """Local-compute half of a fan-out GMW AND gate.

    ``y`` stacks ``gates`` rows of second operands, ``x`` the
    :func:`~repro.crypto.dealer.fan_out_rows` shared first operands: gate row
    ``k`` computes ``x[k mod len(x)] & y[k]``.  Pops the fan-out triple and
    masks the held lanes of the inputs, each shared operand once; returns the
    pending opening event plus the local-finish closure that consumes the
    opened planes.  Splitting the gate this way lets callers batch several
    independent AND gates into one round group — and, with stacked inputs,
    into one event.
    """
    fan, gates = len(x[0]), len(y[0])
    triple = ctx.dealer.bit_triple(y[0].shape)
    a, b = (triple.a0, triple.a1), (triple.b0, triple.b1)

    def masked_lane(i: int) -> np.ndarray:
        # d = x ^ a over the shared rows, e = y ^ b over the gate rows
        masked = np.empty((fan + gates,) + y[i].shape[1:], dtype=np.uint8)
        np.bitwise_xor(x[i], a[i], out=masked[:fan])
        np.bitwise_xor(y[i], b[i], out=masked[fan:])
        return masked

    # One stacked 1-bit plane per direction.
    masked = per_lane(ctx.live_lane, (fan + gates,) + y[0].shape[1:], masked_lane, np.uint8)
    event = open_bits_event(*masked, tag=tag)

    def finish(opened: np.ndarray) -> XorSharedBit:
        d = opened[:fan]
        e = opened[fan:]
        kc = ctx.kernels
        if kc is not None:
            z0, z1 = KERNELS["and-finish"](
                d, e, triple.a0, triple.a1, triple.b0, triple.b1, triple.c0, triple.c1,
                live=kc.live,
            )
            kc.count()
            return z0, z1
        shared = np.arange(gates) % fan
        d = d[shared]
        z0 = triple.c0 ^ (d & triple.b0) ^ (e & triple.a0[shared]) ^ (d & e)
        z1 = triple.c1 ^ (d & triple.b1) ^ (e & triple.a1[shared])
        return z0.astype(np.uint8), z1.astype(np.uint8)

    return event, finish


def secure_and_phases(ctx: TwoPartyContext, x: XorSharedBit, y: XorSharedBit, tag: str = "and"):
    """GMW AND gate on XOR-shared bits using a dealer bit triple.

    Each party opens (x ^ a) and (y ^ b); the shares of x AND y are then a
    local affine combination of the opened values and the triple shares.
    It is the one-row fan-out gate: one shared operand, one gate.
    """
    event, finish = _and_prepare(ctx, (x[0][None], x[1][None]), (y[0][None], y[1][None]), tag)
    (opened,) = yield (event,)
    z = finish(opened)
    return z[0][0], z[1][0]


def secure_and(
    ctx: TwoPartyContext, x: XorSharedBit, y: XorSharedBit, tag: str = "and"
) -> XorSharedBit:
    """Sequential entry point of :func:`secure_and_phases`."""
    return run_phases(ctx, secure_and_phases(ctx, x, y, tag=tag))


def _tree_level_widths(num_digits: int):
    """The fan-out AND gates of the prefix tree, level by root-ward level.

    Yields ``(remaining, combine_count, gate_count)`` per tree level:
    ``combine_count`` adjacent (hi, lo) pairs of the ``remaining`` nodes are
    combined, each masking its shared ``eq_hi`` once and costing two gates
    (``eq_hi & gt_lo`` and ``eq_hi & eq_lo``).  The last position's equality
    bit is never read — at the root it is the root itself, below that the
    position that folds into it — so when ``remaining`` is even the last
    combine drops its ``eq_lo`` gate; when it is odd, the carried node holds
    the last position and every combine keeps both gates.  The generator and
    the trace iterate this exact sequence, which is what keeps randomness
    requests and wire events in lockstep.
    """
    remaining = num_digits
    while remaining > 1:
        combines = remaining // 2
        gates = 2 * combines - (1 - remaining % 2)
        yield remaining, combines, gates
        remaining -= combines


def millionaire_gt_phases(
    ctx: TwoPartyContext,
    value_s0: np.ndarray,
    value_s1: np.ndarray,
    bit_width: int,
    digit_bits: int = 2,
    tag: str = "cmp",
):
    """Secure greater-than between a value held by S0 and one held by S1.

    Args:
        value_s0: unsigned integers (dtype uint64) private to server 0.
        value_s1: unsigned integers private to server 1, same shape.
        bit_width: number of bits of the compared values.
        digit_bits: digit size for the OT decomposition (paper uses 2).

    Returns:
        XOR shares of the bit ``value_s0 > value_s1``.

    One stacked 1-of-``2^digit_bits`` OT covers every digit in a single
    2-bit-packed transfer; the per-digit (gt, eq) indicator pairs are then
    folded MSB-first with the associative comparison combine in a balanced
    tree — ``ceil(log2(num_digits))`` AND rounds, each one stacked fan-out
    gate.
    A party process reads only its own value and computes only its own lane.
    """
    if value_s0.shape != value_s1.shape:
        raise ValueError("compared values must have the same shape")
    if bit_width % digit_bits:
        raise ValueError("digit_bits must divide bit_width")
    if digit_bits not in (1, 2):
        raise ValueError("a digit's 2-bit OT entries must fit one byte: digit_bits is 1 or 2")
    num_digits = bit_width // digit_bits
    radix = 1 << digit_bits
    shape = value_s0.shape
    stacked = (num_digits,) + shape
    live = ctx.live_lane

    def lanes(rows: int, compute) -> XorSharedBit:
        """The held lanes of a ``(rows,) + shape`` bit stack."""
        return per_lane(live, (rows,) + shape, compute, dtype=np.uint8)

    # Stacked digit extraction: axis 0 runs over the digits, LSB first.
    shifts = (np.arange(num_digits, dtype=np.uint64) * np.uint64(digit_bits)).reshape(
        (num_digits,) + (1,) * len(shape)
    )

    def digits(value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.uint64)[None, ...]
        return ((value >> shifts) & np.uint64(radix - 1)).astype(np.uint8)

    # One stacked OT: S0 prepares masked (gt, eq) indicator bits for every
    # candidate value of every digit; S1 selects with its own digits.  The
    # sender pushes all masked messages onto the wire (what the real OT
    # extension transmits too); the receiver selects from what actually
    # arrived, so it never builds the table.  Each table entry is a 2-bit
    # value (gt << 1 | eq), so the whole payload ships 2-bit packed.
    if live in (None, 0):
        # The OT masks are *local* randomness of the sender, drawn by S0
        # alone — from the context RNG, not the dealer, so the dealer stream
        # holds only the offline material (which lets the plan runtime
        # pre-generate it without perturbing the online protocol).
        pad_gt = ctx.rng.integers(0, 2, size=stacked, dtype=np.uint8)
        pad_eq = ctx.rng.integers(0, 2, size=stacked, dtype=np.uint8)
        a_digits = digits(value_s0)
        candidates = np.arange(radix, dtype=np.uint8).reshape((radix,) + (1,) * len(stacked))
        # entry = (gt << 1 | eq) ^ (pad_gt << 1 | pad_eq), per candidate
        payload = np.greater(a_digits, candidates).view(np.uint8) << np.uint8(1)
        payload |= np.equal(a_digits, candidates).view(np.uint8)
        payload ^= (pad_gt << np.uint8(1)) | pad_eq
    else:
        payload = dead_lane((radix,) + stacked, np.uint8)
    (received,) = yield (
        transfer_event(0, 1, payload, tag=f"{tag}/ot-digits", element_bits=2),
    )
    if live in (None, 1):
        # S1 selects in one pass: a digit's 2-bit entries packed into one
        # byte, shifted down by twice its own digit
        entries = received[0].copy()
        for candidate in range(1, radix):
            entries |= received[candidate] << np.uint8(2 * candidate)
        chosen = (entries >> (digits(value_s1) << np.uint8(1))) & np.uint8(3)

    # XOR-shared stacked indicator bits, reordered MSB-first for the tree:
    # S0's are its pads, S1's the (gt, eq) entries it selected.  ``eq`` holds
    # every position but the last, whose equality bit no level reads.
    gt = lanes(num_digits, lambda i: (pad_gt if i == 0 else chosen >> 1)[::-1])
    eq = lanes(num_digits - 1, lambda i: (pad_eq if i == 0 else chosen & 1)[:0:-1])

    # Balanced prefix combine:  (hi) ∘ (lo) = (gt_hi ^ (eq_hi & gt_lo),
    # eq_hi & eq_lo).  The operator is associative, so the tree computes the
    # same MSB-first fold as the sequential chain in log depth.  Each level
    # is one fan-out gate — eq_hi shared by [gt_lo; eq_lo] — so ONE dealer
    # request and ONE packed 1-bit opening; eq_lo stops where ``eq`` does.
    for level, (remaining, combines, gates) in enumerate(_tree_level_widths(num_digits)):
        hi = slice(0, 2 * combines, 2)
        lo = slice(1, 2 * combines, 2)
        rest = slice(2 * combines, None)
        shared = lanes(combines, lambda i: eq[i][hi])
        operands = lanes(gates, lambda i: np.concatenate([gt[i][lo], eq[i][lo]]))
        event, finish = _and_prepare(ctx, shared, operands, tag=f"{tag}/tree{level}")
        (opened,) = yield (event,)
        z = finish(opened)
        folded = remaining - combines
        gt = lanes(folded, lambda i: np.concatenate([gt[i][hi] ^ z[i][:combines], gt[i][rest]]))
        eq = lanes(folded - 1, lambda i: np.concatenate([z[i][combines:], eq[i][rest]]))
    return gt[0][0], gt[1][0]


def millionaire_gt(
    ctx: TwoPartyContext,
    value_s0: np.ndarray,
    value_s1: np.ndarray,
    bit_width: int,
    digit_bits: int = 2,
    tag: str = "cmp",
) -> XorSharedBit:
    """Sequential entry point of :func:`millionaire_gt_phases`."""
    return run_phases(
        ctx,
        millionaire_gt_phases(
            ctx, value_s0, value_s1, bit_width, digit_bits=digit_bits, tag=tag
        ),
    )


def drelu_phases(ctx: TwoPartyContext, x: SharePair, tag: str = "drelu"):
    """XOR-shared DReLU bit: 1 where the shared value is positive.

    Uses the identity  msb(x) = msb(x0) ^ msb(x1) ^ carry  where ``carry`` is
    the carry out of adding the low k-1 bits of the two shares; the carry is
    obtained with one millionaire comparison between values privately held by
    the two servers.  DReLU is the complement of the MSB.
    """
    ring = ctx.ring
    live = ctx.live_lane
    shares = (x.share0, x.share1)
    half = np.uint64((1 << (ring.ring_bits - 1)) - 1)
    # carry = (low0 + low1) >= 2^{k-1}  <=>  low0 > (2^{k-1} - 1) - low1
    low0, threshold_s1 = per_lane(
        live,
        x.shape,
        lambda i: ring.low_bits(shares[0]) if i == 0 else half - ring.low_bits(shares[1]),
    )
    carry = yield from millionaire_gt_phases(
        ctx, low0, threshold_s1, bit_width=ring.ring_bits, tag=f"{tag}/carry"
    )

    def lane(i: int) -> np.ndarray:
        # XOR shares of msb(x) = msb(x0) ^ msb(x1) ^ carry; NOT flips S0's
        bit = carry[i] ^ ring.msb(shares[i])
        if i == 0:
            bit ^= np.uint8(1)
        return bit

    return per_lane(live, x.shape, lane, dtype=np.uint8)


def drelu(ctx: TwoPartyContext, x: SharePair, tag: str = "drelu") -> XorSharedBit:
    """Sequential entry point of :func:`drelu_phases`."""
    return run_phases(ctx, drelu_phases(ctx, x, tag=tag))


def select_phases(ctx: TwoPartyContext, x: SharePair, bit: XorSharedBit, tag: str = "select"):
    """Shares of ``x * bit`` (bit in {0,1}) — the ReLU/MaxPool multiplexer.

    One round: the dealer's daBit holds a random bit ``r`` XOR-shared and
    additively shared, plus additive shares of a random ``a`` and of
    ``r·a`` (a Beaver half-triple, ABY3's bit injection).  The parties open
    ``c = b ^ r`` (one packed bit) and ``e = x - a`` (one ring word) in a
    single round group; then, as ``b = c ^ r = c + (1 - 2c)·r`` and ``r·x =
    e·r + r·a``::

        [b·x] = c·[x] + (1 - 2c)·(e·[r] + [r·a])

    locally — exact, no truncation and no public constant on either party.
    """
    ring = ctx.ring
    live = ctx.live_lane
    dab = ctx.dealer.dabit(x.shape)
    r = (dab.r0, dab.r1)
    masked = per_lane(live, x.shape, lambda i: bit[i] ^ r[i], dtype=np.uint8)
    e = sub_shares(x, dab.a, live)
    c, e = yield (
        open_bits_event(*masked, tag=f"{tag}/open-c"),
        open_ring_event(e.share0, e.share1, tag=f"{tag}/open-e"),
    )
    kc = ctx.kernels
    if kc is not None and ring.ring_bits == 64:
        s0, s1 = KERNELS["select-finish"](
            c, e, x.share0, x.share1, dab.arith.share0, dab.arith.share1,
            dab.ra.share0, dab.ra.share1, live=kc.live,
        )
        kc.count()
        return SharePair(s0, s1, ring)
    shares = (x.share0, x.share1)
    arith = (dab.arith.share0, dab.arith.share1)
    ra = (dab.ra.share0, dab.ra.share1)
    flip = c.astype(bool)

    def lane(i: int) -> np.ndarray:
        # t = e·[r] + [r·a] shares r·x; the lane holds x - t where c is set
        t = ring.add(ring.mul(e, arith[i]), ra[i])
        return np.where(flip, ring.sub(shares[i], t), t)

    s0, s1 = per_lane(live, x.shape, lane)
    return SharePair(s0, s1, ring)


def select(
    ctx: TwoPartyContext, x: SharePair, bit: XorSharedBit, tag: str = "select"
) -> SharePair:
    """Sequential entry point of :func:`select_phases`."""
    return run_phases(ctx, select_phases(ctx, x, bit, tag=tag))


# --------------------------------------------------------------------------- #
# Trace functions (plan-compiler accounting; mirror the phase generators)
# --------------------------------------------------------------------------- #
def _and_trace(gate_shape: Tuple[int, ...]) -> OpTrace:
    """One fan-out AND gate: its triple, then both parties open ``d`` over
    the shared rows and ``e`` over the gate rows as one packed 1-bit plane
    per direction."""
    gates = gate_shape[0]
    per_row = int(np.prod(gate_shape[1:], dtype=np.int64))
    opened = (fan_out_rows(gates) + gates) * per_row
    return OpTrace().request("bit", gate_shape).group([open_bits_trace_event(opened)])


def secure_and_trace(shape: Tuple[int, ...]) -> OpTrace:
    """One GMW AND gate: the one-row fan-out gate over ``shape``."""
    return _and_trace((1,) + tuple(shape))


def millionaire_trace(
    shape: Tuple[int, ...], ring: FixedPointRing, digit_bits: int = 2
) -> OpTrace:
    """Trace of :func:`millionaire_gt`: one stacked 1-of-4 OT (all masked
    2-bit table entries cross the wire, packed, in a single round) followed
    by ``ceil(log2(num_digits))`` tree levels, each one stacked fan-out AND
    gate in a round group of its own.  Requests and groups iterate the exact
    ``_tree_level_widths`` sequence the generator walks.
    """
    n = int(np.prod(shape)) if shape else 1
    num_digits = ring.ring_bits // digit_bits
    radix = 1 << digit_bits
    trace = OpTrace()
    trace.group(
        [send_trace_event(0, packed_payload_bytes(radix * num_digits * n, digit_bits))]
    )
    for _remaining, _combines, gates in _tree_level_widths(num_digits):
        trace.extend(_and_trace((gates,) + tuple(shape)))
    return trace


def drelu_trace(shape: Tuple[int, ...], ring: FixedPointRing) -> OpTrace:
    """DReLU is one millionaire comparison (the carry); MSB mixing is local."""
    return millionaire_trace(shape, ring)


def select_trace(shape: Tuple[int, ...], ring: FixedPointRing) -> OpTrace:
    """One daBit, then ``c`` (packed 1-bit) and ``e`` (ring width) open in
    one round group."""
    n = int(np.prod(shape)) if shape else 1
    trace = OpTrace().request("dabit", shape)
    trace.group(
        [open_bits_trace_event(n, element_bits=1), open_trace_event(n * element_bytes(ring))]
    )
    return trace
