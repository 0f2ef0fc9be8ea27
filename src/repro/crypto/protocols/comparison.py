"""Secure comparison: the non-polynomial core of 2PC private inference.

The comparison protocol ("millionaires' problem") determines whose value is
larger without revealing the values.  Following the paper's OT-flow
(Section III-C.1) the values are decomposed into 2-bit digits; a 1-of-4 OT
per digit transfers masked greater-than / equality indicator bits, which are
then combined with a GMW-style prefix circuit (AND gates from dealer bit
triples) into a single XOR-shared comparison bit.

Three structural optimizations make this module the fast path it is:

1. **log-depth prefix tree** — the per-digit (gt, eq) pairs are folded with
   the associative comparison combine ``(hi) ∘ (lo) = (gt_hi ^ (eq_hi &
   gt_lo), eq_hi & eq_lo)`` in a Kogge-Stone-style balanced tree, so a
   64-bit comparison over 32 digits needs ``ceil(log2(32)) = 5`` AND rounds
   instead of the 32 sequential prefix steps of the naive chain;
2. **stacked-digit kernels** — digit extraction, the OT table construction
   and every tree level's AND gates operate on one ``(digits,) + shape``
   stacked array: one dealer request, one numpy kernel and one wire event
   per level instead of one per digit;
3. **sub-byte payloads** — the OT tables ship as packed 2-bit elements and
   every AND/daBit opening as packed 1-bit planes (see
   :mod:`repro.crypto.transport`), cutting the boolean wire volume 4-8x.

Every interactive routine is a phase generator (``*_phases``) whose yielded
round groups encode the protocol's intrinsic parallelism: all digit OTs ride
one round, each tree level's AND gates ride one round.  The plain functions
drive the generators sequentially (the reference semantics).

On top of the raw comparison this module builds:

- :func:`drelu` -- XOR-shared derivative of ReLU, i.e. the bit (x > 0),
  computed from the shares' MSBs and a carry comparison;
- :func:`bit_to_arithmetic` -- B2A conversion of an XOR-shared bit via a
  dealer daBit: one packed 1-bit opening, no ring-width traffic;
- :func:`select` -- multiplexing a shared value by a shared bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.events import open_bits_event, run_phases, transfer_event
from repro.crypto.kernels import KERNELS
from repro.crypto.protocols.arithmetic import multiply_phases, multiply_trace
from repro.crypto.protocols.registry import (
    OpTrace,
    TraceEvent,
    open_bits_trace_event,
    packed_payload_bytes,
    send_trace_event,
)
from repro.crypto.ring import FixedPointRing
from repro.crypto.sharing import SharePair

XorSharedBit = Tuple[np.ndarray, np.ndarray]


def _and_prepare(ctx: TwoPartyContext, x: XorSharedBit, y: XorSharedBit, tag: str):
    """Local-compute half of a GMW AND gate (elementwise over any shape).

    Pops the bit triple and masks the inputs; returns the pending opening
    event plus the local-finish closure that consumes the opened planes.
    Splitting the gate this way lets callers batch several independent AND
    gates into one round group — and, with stacked inputs, into one event.
    """
    x0, x1 = x
    y0, y1 = y
    triple = ctx.dealer.bit_triple(x0.shape)
    d0 = x0 ^ triple.a0
    d1 = x1 ^ triple.a1
    e0 = y0 ^ triple.b0
    e1 = y1 ^ triple.b1
    # Open d = x ^ a and e = y ^ b: one stacked 1-bit plane per direction.
    event = open_bits_event(
        np.stack([d0, e0]).astype(np.uint8),
        np.stack([d1, e1]).astype(np.uint8),
        tag=tag,
    )

    def finish(opened: np.ndarray) -> XorSharedBit:
        d = opened[0]
        e = opened[1]
        kc = ctx.kernels
        if kc is not None:
            z0, z1 = KERNELS["and-finish"](
                d, e, triple.a0, triple.a1, triple.b0, triple.b1, triple.c0, triple.c1
            )
            kc.count()
            return z0.astype(np.uint8, copy=False), z1.astype(np.uint8, copy=False)
        z0 = triple.c0 ^ (d & triple.b0) ^ (e & triple.a0) ^ (d & e)
        z1 = triple.c1 ^ (d & triple.b1) ^ (e & triple.a1)
        return z0.astype(np.uint8), z1.astype(np.uint8)

    return event, finish


def secure_and_phases(ctx: TwoPartyContext, x: XorSharedBit, y: XorSharedBit, tag: str = "and"):
    """GMW AND gate on XOR-shared bits using a dealer bit triple.

    Each party opens (x ^ a) and (y ^ b); the shares of x AND y are then a
    local affine combination of the opened values and the triple shares.
    """
    event, finish = _and_prepare(ctx, x, y, tag)
    (opened,) = yield (event,)
    return finish(opened)


def secure_and(
    ctx: TwoPartyContext, x: XorSharedBit, y: XorSharedBit, tag: str = "and"
) -> XorSharedBit:
    """Sequential entry point of :func:`secure_and_phases`."""
    return run_phases(ctx, secure_and_phases(ctx, x, y, tag=tag))


def secure_xor(x: XorSharedBit, y: XorSharedBit) -> XorSharedBit:
    """XOR of XOR-shared bits is local."""
    return (x[0] ^ y[0]).astype(np.uint8), (x[1] ^ y[1]).astype(np.uint8)


def secure_not(x: XorSharedBit) -> XorSharedBit:
    """NOT flips one party's share."""
    return (x[0] ^ np.uint8(1)).astype(np.uint8), x[1].astype(np.uint8)


def _tree_level_widths(num_digits: int):
    """The AND-gate counts of the prefix tree, level by root-ward level.

    Yields ``(pair_count, combine_count, and_count)`` per tree level:
    ``combine_count`` adjacent (hi, lo) pairs are combined, each costing two
    AND gates (``eq_hi & gt_lo`` and ``eq_hi & eq_lo``) — except the root
    combine, whose equality output is never consumed, so it costs one.  The
    generator and the trace iterate this exact sequence, which is what keeps
    randomness requests and wire events in lockstep.
    """
    remaining = num_digits
    while remaining > 1:
        combines = remaining // 2
        final = remaining == 2
        and_count = 2 * combines - (1 if final else 0)
        yield remaining, combines, and_count
        remaining = combines + (remaining - 2 * combines)


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
    tree — ``ceil(log2(num_digits))`` AND rounds, each one stacked gate.
    """
    if value_s0.shape != value_s1.shape:
        raise ValueError("compared values must have the same shape")
    if bit_width % digit_bits:
        raise ValueError("digit_bits must divide bit_width")
    num_digits = bit_width // digit_bits
    radix = 1 << digit_bits
    shape = value_s0.shape

    value_s0 = value_s0.astype(np.uint64)
    value_s1 = value_s1.astype(np.uint64)
    digit_mask = np.uint64(radix - 1)

    # The OT masks are *local* randomness of the sender (S0), not correlated
    # randomness — they come from the context RNG so the dealer stream holds
    # only the offline material (which lets the plan runtime pre-generate it
    # without perturbing the online protocol).
    rng = ctx.rng

    # Stacked digit extraction: axis 0 runs over the digits, LSB first.
    shifts = (np.arange(num_digits, dtype=np.uint64) * np.uint64(digit_bits)).reshape(
        (num_digits,) + (1,) * len(shape)
    )
    a_digits = ((value_s0[None, ...] >> shifts) & digit_mask).astype(np.uint8)
    b_digits = ((value_s1[None, ...] >> shifts) & digit_mask).astype(np.uint8)

    # One stacked OT: S0 prepares masked (gt, eq) indicator bits for every
    # candidate value of every digit; S1 selects with its own digits.  The
    # sender pushes all masked messages onto the wire (what the real OT
    # extension transmits too); the receiver selects from what actually
    # arrived.  Each table entry is a 2-bit value (gt << 1 | eq), so the
    # whole payload ships 2-bit packed.
    pad_gt = rng.integers(0, 2, size=(num_digits,) + shape, dtype=np.uint8)
    pad_eq = rng.integers(0, 2, size=(num_digits,) + shape, dtype=np.uint8)
    candidates = np.arange(radix, dtype=np.uint8).reshape(
        (radix, 1) + (1,) * len(shape)
    )
    gt_table = (a_digits[None, ...] > candidates).astype(np.uint8) ^ pad_gt[None, ...]
    eq_table = (a_digits[None, ...] == candidates).astype(np.uint8) ^ pad_eq[None, ...]
    payload = ((gt_table << 1) | eq_table).astype(np.uint8)
    (received,) = yield (
        transfer_event(0, 1, payload, tag=f"{tag}/ot-digits", element_bits=2),
    )
    chosen = np.take_along_axis(received, b_digits[None, ...].astype(np.intp), axis=0)[0]

    # XOR-shared stacked indicator bits, reordered MSB-first for the tree.
    order = slice(None, None, -1)
    gt0 = pad_gt[order].copy()
    gt1 = ((chosen >> 1) & np.uint8(1))[order].copy()
    eq0 = pad_eq[order].copy()
    eq1 = (chosen & np.uint8(1))[order].copy()

    # Balanced prefix combine:  (hi) ∘ (lo) = (gt_hi ^ (eq_hi & gt_lo),
    # eq_hi & eq_lo).  The operator is associative, so the tree computes the
    # same MSB-first fold as the sequential chain in log depth.  Each level
    # stacks all its AND gates — eq_hi against [gt_lo; eq_lo] — into ONE
    # dealer request and ONE packed 1-bit opening; the root level drops the
    # unused equality gate.
    level = 0
    for remaining, combines, and_count in _tree_level_widths(num_digits):
        hi = slice(0, 2 * combines, 2)
        lo = slice(1, 2 * combines, 2)
        final = remaining == 2
        if final:
            x_stack = (eq0[hi], eq1[hi])
            y_stack = (gt0[lo], gt1[lo])
        else:
            x_stack = (
                np.concatenate([eq0[hi], eq0[hi]]),
                np.concatenate([eq1[hi], eq1[hi]]),
            )
            y_stack = (
                np.concatenate([gt0[lo], eq0[lo]]),
                np.concatenate([gt1[lo], eq1[lo]]),
            )
        event, finish = _and_prepare(ctx, x_stack, y_stack, tag=f"{tag}/tree{level}")
        (opened,) = yield (event,)
        z0, z1 = finish(opened)
        gt0 = np.concatenate([gt0[hi] ^ z0[:combines], gt0[2 * combines :]])
        gt1 = np.concatenate([gt1[hi] ^ z1[:combines], gt1[2 * combines :]])
        if not final:
            eq0 = np.concatenate([z0[combines:], eq0[2 * combines :]])
            eq1 = np.concatenate([z1[combines:], eq1[2 * combines :]])
        level += 1
    return gt0[0], gt1[0]


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
    half = np.uint64((1 << (ring.ring_bits - 1)) - 1)
    low0 = ring.low_bits(x.share0)
    low1 = ring.low_bits(x.share1)
    # carry = (low0 + low1) >= 2^{k-1}  <=>  low0 > (2^{k-1} - 1) - low1
    threshold_s1 = (half - low1).astype(np.uint64)
    carry = yield from millionaire_gt_phases(
        ctx, low0, threshold_s1, bit_width=ring.ring_bits, tag=f"{tag}/carry"
    )
    msb = secure_xor(carry, (ring.msb(x.share0), ring.msb(x.share1)))
    return secure_not(msb)


def drelu(ctx: TwoPartyContext, x: SharePair, tag: str = "drelu") -> XorSharedBit:
    """Sequential entry point of :func:`drelu_phases`."""
    return run_phases(ctx, drelu_phases(ctx, x, tag=tag))


def bit_to_arithmetic_phases(ctx: TwoPartyContext, bit: XorSharedBit, tag: str = "b2a"):
    """Convert an XOR-shared bit into additive shares of the same bit value.

    daBit conversion: the dealer supplies a random bit ``r`` both XOR-shared
    and arithmetically shared.  The parties open ``c = b ^ r`` (one packed
    1-bit exchange — the only interaction) and compute ``[b] = c + (1 - 2c)
    * [r]`` locally, S0 adding the public constant by convention.  This
    replaces the Beaver-multiply B2A and its two ring-width openings.
    """
    ring = ctx.ring
    b0, b1 = bit
    dab = ctx.dealer.dabit(b0.shape)
    (c,) = yield (
        open_bits_event(b0 ^ dab.r0, b1 ^ dab.r1, tag=f"{tag}/open-c"),
    )
    c_ring = c.astype(np.uint64)
    kc = ctx.kernels
    if kc is not None and ring.ring_bits == 64:
        ones, fresh = kc.arena.get(("b2a-ones", c.shape), c.shape)
        if fresh:
            ones.fill(1)
        s0, s1 = KERNELS["b2a-finish"](ones, c_ring, dab.arith.share0, dab.arith.share1)
        kc.count()
        return SharePair(s0, s1, ring)
    # coeff = 1 - 2c in the ring: +1 where c == 0, -1 where c == 1.
    coeff = ring.sub(
        np.ones(c.shape, dtype=np.uint64), ring.scalar_mul(c_ring, 2)
    )
    s0 = ring.add(c_ring, ring.mul(coeff, dab.arith.share0))
    s1 = ring.mul(coeff, dab.arith.share1)
    return SharePair(s0, s1, ring)


def bit_to_arithmetic(ctx: TwoPartyContext, bit: XorSharedBit, tag: str = "b2a") -> SharePair:
    """Sequential entry point of :func:`bit_to_arithmetic_phases`."""
    return run_phases(ctx, bit_to_arithmetic_phases(ctx, bit, tag=tag))


def select_phases(ctx: TwoPartyContext, x: SharePair, bit: XorSharedBit, tag: str = "select"):
    """Shares of ``x * bit`` (bit in {0,1}) — the ReLU multiplexer."""
    arith_bit = yield from bit_to_arithmetic_phases(ctx, bit, tag=f"{tag}/b2a")
    result = yield from multiply_phases(ctx, x, arith_bit, truncate=False, tag=f"{tag}/mux")
    return result


def select(
    ctx: TwoPartyContext, x: SharePair, bit: XorSharedBit, tag: str = "select"
) -> SharePair:
    """Sequential entry point of :func:`select_phases`."""
    return run_phases(ctx, select_phases(ctx, x, bit, tag=tag))


# --------------------------------------------------------------------------- #
# Trace functions (plan-compiler accounting; mirror the phase generators)
# --------------------------------------------------------------------------- #
def _and_trace_event(shape: Tuple[int, ...]) -> TraceEvent:
    """One stacked GMW AND opening: two 1-bit planes per element per
    direction, packed eight bits per byte."""
    n = int(np.prod(shape)) if shape else 1
    return open_bits_trace_event(2 * n, element_bits=1)


def secure_and_trace(shape: Tuple[int, ...]) -> OpTrace:
    """One GMW AND gate: a bit triple, then both parties open (d, e) as one
    packed 1-bit plane pair per direction."""
    return OpTrace().request("bit", shape).group([_and_trace_event(shape)])


def millionaire_trace(
    shape: Tuple[int, ...], ring: FixedPointRing, digit_bits: int = 2
) -> OpTrace:
    """Trace of :func:`millionaire_gt`: one stacked 1-of-4 OT (all masked
    2-bit table entries cross the wire, packed, in a single round) followed
    by ``ceil(log2(num_digits))`` tree levels, each one stacked AND gate in
    a round group of its own.  Requests and groups iterate the exact
    ``_tree_level_widths`` sequence the generator walks.
    """
    n = int(np.prod(shape)) if shape else 1
    num_digits = ring.ring_bits // digit_bits
    radix = 1 << digit_bits
    trace = OpTrace()
    trace.group(
        [send_trace_event(0, packed_payload_bytes(radix * num_digits * n, digit_bits))]
    )
    for _remaining, _combines, and_count in _tree_level_widths(num_digits):
        level_shape = (and_count,) + tuple(shape)
        trace.request("bit", level_shape)
        trace.group([_and_trace_event(level_shape)])
    return trace


def drelu_trace(shape: Tuple[int, ...], ring: FixedPointRing) -> OpTrace:
    """DReLU is one millionaire comparison (the carry); MSB mixing is local."""
    return millionaire_trace(shape, ring)


def bit_to_arithmetic_trace(shape: Tuple[int, ...], ring: FixedPointRing) -> OpTrace:
    """B2A is one daBit and one packed 1-bit opening."""
    n = int(np.prod(shape)) if shape else 1
    trace = OpTrace().request("dabit", shape)
    trace.group([open_bits_trace_event(n, element_bits=1)])
    return trace


def select_trace(shape: Tuple[int, ...], ring: FixedPointRing) -> OpTrace:
    """Multiplexing = daBit B2A conversion plus one Beaver multiplication."""
    return bit_to_arithmetic_trace(shape, ring).extend(multiply_trace(shape, ring))
