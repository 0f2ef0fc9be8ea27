"""Secure comparison: the non-polynomial core of 2PC private inference.

The comparison protocol ("millionaires' problem") determines whose value is
larger without revealing the values.  Following the paper's OT-flow
(Section III-C.1) the values are decomposed into 2-bit digits; a 1-of-4 OT
per digit transfers masked greater-than / equality indicator bits, which are
then combined with a prefix circuit of multi-input AND gates (dealer mask
products) into a single XOR-shared comparison bit.

Four structural optimizations make this module the fast path it is:

1. **a three-level tree of multi-input AND combines** — the per-digit (gt,
   eq) pairs are folded MSB-first by radix-``k`` combines ``gt = gt_0 ⊕
   eq_0·gt_1 ⊕ … ⊕ eq_0···eq_{k-2}·gt_{k-1}``, ``eq = eq_0···eq_{k-1}``.
   The terms are mutually exclusive, so XOR is exact, and one round
   evaluates them all: each input is opened once under a fresh mask and the
   dealer supplies shares of the mask products (ABY2.0's multi-input AND
   gates).  :func:`tree_schedule` picks the radix of every level from its
   cost table — the fewest rounds whose material stays within 1.5× that of
   the radix-2 tree — so a 64-bit comparison over 32 digits folds
   ``32 → 16 → 4 → 1`` in 3 AND rounds (5 at radix 2, 32 for the
   sequential chain), and the last position's equality bit, which no level
   reads, is never computed: 80 opened bits per party per element;
2. **stacked-digit kernels** — digit extraction, the OT table construction
   and every tree level's combines operate on one ``(digits,) + shape``
   stacked array: one dealer request per combine radix, one fused finish
   and one wire event per level instead of one per digit;
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
one round, each tree level's combines ride one round.  The plain functions
drive the generators sequentially (the reference semantics).

On top of the raw comparison this module builds:

- :func:`drelu` -- XOR-shared derivative of ReLU, i.e. the bit (x > 0),
  computed from the shares' MSBs and a carry comparison;
- :func:`select` -- multiplexing a shared value by an XOR-shared bit in one
  round: a dealer daBit widened with a Beaver half-triple turns it into one
  packed 1-bit opening plus one ring-word opening, finished locally.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np

from repro.crypto.andgates import and_table, and_terms, unpack_planes
from repro.crypto.context import TwoPartyContext
from repro.crypto.events import open_bits_event, open_ring_event, run_phases, transfer_event
from repro.crypto.kernels import KERNELS, dead_lane, per_lane
from repro.crypto.sharing import SharePair, sub_shares

XorSharedBit = Tuple[np.ndarray, np.ndarray]
#: one AND block: ``(radix, outputs, inputs)``, ``inputs`` the held lanes of
#: an ``(I,) + S`` stack of the combine's XOR-shared input bits
AndBlock = Tuple[int, int, XorSharedBit]

#: the radices a tree level may fold with
RADICES = (2, 4, 8)


def _and_prepare(ctx: TwoPartyContext, blocks: List[AndBlock], tag: str):
    """Local-compute half of one round of multi-input AND combines.

    Pops one AND item per block (its inputs are the first planes of the
    combine's :class:`~repro.crypto.andgates.AndTable`) and masks every input
    once; all blocks' masked inputs ride one packed 1-bit plane per
    direction.  Returns the pending opening event plus the local finish
    that turns the opened plane into each block's ``(outputs,) + S``
    XOR-shared product terms.  Splitting the gate this way lets callers
    batch independent combines into one round group and one event.
    """
    items = [ctx.dealer.draw("bit", (k, o) + x[0].shape[1:]) for k, o, x in blocks]
    bounds = np.cumsum([0] + [x[0].size for _, _, x in blocks])
    spans = list(zip(blocks, items, bounds, bounds[1:]))

    def masked_lane(i: int) -> np.ndarray:
        masked = np.empty(bounds[-1], dtype=np.uint8)
        for (_, _, x), item, start, stop in spans:
            lam = unpack_planes(item[f"lam{i}"][: len(x[i])], x[i].shape[1:])
            np.bitwise_xor(x[i], lam, out=masked[start:stop].reshape(x[i].shape))
        return masked

    masked = per_lane(ctx.live_lane, (int(bounds[-1]),), masked_lane, np.uint8)
    event = open_bits_event(*masked, tag=tag)

    def finish(opened: np.ndarray) -> List[XorSharedBit]:
        return [
            _and_finish(ctx, k, o, opened[start:stop].reshape(x[0].shape), item)
            for (k, o, x), item, start, stop in spans
        ]

    return event, finish


def _and_finish(ctx: TwoPartyContext, radix: int, outputs: int, d: np.ndarray, item):
    """Shares of a combine's product terms from its opened inputs ``d``.

    The fused kernel groups the terms by mask plane; the reference expands
    ``∏_{i∈m} (d_i ⊕ λ_i) = ⊕_{T⊆m} d_{m∖T}·λ_T`` one term at a time.
    """
    kc = ctx.kernels
    if kc is not None:
        z = KERNELS["and-table"](d, item["lam0"], item["lam1"], radix, outputs, live=kc.live)
        kc.count()
        return z
    table = and_table(radix, outputs)
    terms = []
    for output, mask in table.monomials:
        subset = mask
        while True:
            coefficient = np.ones(d.shape[1:], dtype=np.uint8)
            for i in range(table.inputs):
                if (mask ^ subset) >> i & 1:
                    coefficient &= d[i]
            terms.append((output, subset, coefficient))
            if not subset:
                break
            subset = (subset - 1) & mask

    def lane(i: int) -> np.ndarray:
        lam = unpack_planes(item[f"lam{i}"], d.shape[1:])
        z = np.zeros((outputs,) + d.shape[1:], dtype=np.uint8)
        for output, subset, coefficient in terms:
            if subset:
                z[output] ^= coefficient & lam[table.planes[subset]]
            elif i == 0:  # the public product d_m
                z[output] ^= coefficient
        return z

    return per_lane(ctx.live_lane, (outputs,) + d.shape[1:], lane, np.uint8)


def secure_and_phases(ctx: TwoPartyContext, x: XorSharedBit, y: XorSharedBit, tag: str = "and"):
    """AND gate on XOR-shared bits: the one-monomial AND item.

    A radix-2 combine computing ``gt`` only, ``x`` as its ``eq_0`` and
    ``y`` as its ``gt_1``: each party opens ``x ⊕ λ_x`` and ``y ⊕ λ_y``,
    and the shares of ``x·y`` are a local combination of the opened values
    and the shares of ``λ_x``, ``λ_y`` and ``λ_x·λ_y``.
    """
    inputs = per_lane(ctx.live_lane, (2,) + x[0].shape, lambda i: np.stack([x[i], y[i]]), np.uint8)
    event, finish = _and_prepare(ctx, [(2, 1, inputs)], tag)
    (opened,) = yield (event,)
    ((z0, z1),) = finish(opened)
    return z0[0], z1[0]


def secure_and(
    ctx: TwoPartyContext, x: XorSharedBit, y: XorSharedBit, tag: str = "and"
) -> XorSharedBit:
    """Sequential entry point of :func:`secure_and_phases`."""
    return run_phases(ctx, secure_and_phases(ctx, x, y, tag=tag))


# --------------------------------------------------------------------------- #
# The tree schedule
# --------------------------------------------------------------------------- #
def tree_levels(num_leaves: int, radices: Tuple[int, ...]):
    """The combines of a tree schedule, level by root-ward level.

    Yields ``(remaining, radix, full, last)`` per level: the ``remaining``
    nodes, MSB first, are cut into groups of ``radix``.  The ``full`` groups
    before the last keep their ``eq`` output; the last group, ``last``
    nodes, holds the last position, whose equality bit no level reads, so
    it computes ``gt`` only (one node is carried as it is).  The generator
    and :func:`schedule_cost` iterate this exact sequence.
    """
    remaining = num_leaves
    for radix in radices:
        full = (remaining - 1) // radix
        last = remaining - full * radix
        yield remaining, radix, full, last
        remaining = full + 1
    if remaining != 1:
        raise ValueError(f"schedule {radices} leaves {remaining} of {num_leaves} nodes unfolded")


def _combine_inputs(
    gt: np.ndarray, eq: np.ndarray, radix: int, outputs: int, combines: int, first: int
) -> np.ndarray:
    """One lane's ``(inputs, combines) + S`` stack of a block's AND inputs:
    ``eq_0..`` then ``gt_1..`` of each of ``combines`` consecutive groups of
    ``radix`` nodes from node ``first`` (the order of the
    :class:`~repro.crypto.andgates.AndTable` inputs)."""
    stop = first + combines * radix
    element = gt.shape[1:]
    eqs = eq[first:stop].reshape((combines, radix - 2 + outputs) + element)
    gts = gt[first:stop].reshape((combines, radix) + element)
    return np.concatenate([eqs.swapaxes(0, 1), gts.swapaxes(0, 1)[1:]])


def level_blocks(radix: int, full: int, last: int) -> List[Tuple[int, int, int, int]]:
    """``(radix, outputs, combines, first node)`` of a level's AND blocks."""
    blocks = [(radix, 2, full, 0)] if full else []
    if last > 1:
        blocks.append((last, 1, 1, full * radix))
    return blocks


def schedule_cost(num_leaves: int, radices: Tuple[int, ...]) -> Tuple[int, int, int]:
    """``(rounds, opened bits, material bits)`` per element and party: a
    combine opens its table's inputs and holds one share bit per plane."""
    opened = material = 0
    for _remaining, radix, full, last in tree_levels(num_leaves, radices):
        for k, outputs, combines, _first in level_blocks(radix, full, last):
            inputs, _monomials, subsets = and_terms(k, outputs)
            opened += combines * inputs
            material += combines * len(subsets)
    return len(radices), opened, material


def schedules(remaining: int):
    """Every sequence of :data:`RADICES` that folds ``remaining`` nodes to
    one root; a level's radix never exceeds the nodes it folds."""
    if remaining == 1:
        yield ()
        return
    for radix in RADICES:
        if radix <= remaining:
            for rest in schedules((remaining - 1) // radix + 1):
                yield (radix,) + rest


@functools.lru_cache(maxsize=64)
def tree_schedule(num_leaves: int) -> Tuple[int, ...]:
    """The radices the comparison tree over ``num_leaves`` folds with.

    The rule, applied to :func:`schedule_cost`'s table: the fewest rounds,
    subject to material of at most 1.5× the radix-2 tree's; ties go to
    fewer material bits.  32 leaves give ``(2, 4, 4)``.
    """
    budget = schedule_cost(num_leaves, (2,) * (num_leaves - 1).bit_length())[2] * 3 / 2
    costs = {radices: schedule_cost(num_leaves, radices) for radices in schedules(num_leaves)}
    fitting = [radices for radices, (_, _, material) in costs.items() if material <= budget]
    return min(fitting, key=lambda radices: (costs[radices][0], costs[radices][2]))


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
    folded MSB-first by the levels of :func:`tree_schedule`, each one round
    of multi-input AND combines.
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

    # Each level folds groups of nodes in one round of AND combines: the
    # full groups as one radix-k block, the last group (gt only) as another.
    levels = tree_levels(num_digits, tree_schedule(num_digits))
    for level, (remaining, fold, full, last) in enumerate(levels):
        groups = level_blocks(fold, full, last)
        blocks = []
        for k, o, c, first in groups:
            held = per_lane(
                live,
                (and_terms(k, o)[0], c) + shape,
                lambda i: _combine_inputs(gt[i], eq[i], k, o, c, first),
                np.uint8,
            )
            blocks.append((k, o, held))
        event, finish = _and_prepare(ctx, blocks, tag=f"{tag}/tree{level}")
        (opened,) = yield (event,)
        z = finish(opened)

        def fold_gt(i: int) -> np.ndarray:
            # gt = gt_0 ⊕ (the block's product terms), one node per group
            parts = [
                gt[i][first : first + c * k : k] ^ terms[i][0]
                for (k, _o, c, first), terms in zip(groups, z)
            ]
            return np.concatenate(parts + ([gt[i][remaining - 1 :]] if last == 1 else []))

        gt = lanes(full + 1, fold_gt)
        eq = lanes(full, lambda i: z[0][i][1] if full else np.empty((0,) + shape, np.uint8))
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
    dab = ctx.dealer.draw("dabit", x.shape)
    r = (dab["r0"], dab["r1"])
    masked = per_lane(live, x.shape, lambda i: bit[i] ^ r[i], dtype=np.uint8)
    e = sub_shares(x, dab["a"], live)
    c, e = yield (
        open_bits_event(*masked, tag=f"{tag}/open-c"),
        open_ring_event(e.share0, e.share1, tag=f"{tag}/open-e"),
    )
    kc = ctx.kernels
    if kc is not None and ring.ring_bits == 64:
        s0, s1 = KERNELS["select-finish"](
            c, e, x.share0, x.share1, dab["arith"].share0, dab["arith"].share1,
            dab["ra"].share0, dab["ra"].share1, live=kc.live,
        )
        kc.count()
        return SharePair(s0, s1, ring)
    shares = (x.share0, x.share1)
    arith = (dab["arith"].share0, dab["arith"].share1)
    ra = (dab["ra"].share0, dab["ra"].share1)
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
