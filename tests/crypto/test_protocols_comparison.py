"""Tests for the comparison protocols (millionaire, DReLU, one-round select)."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import PartyChannel, make_context, reconstruct, share
from repro.crypto.events import as_group
from repro.crypto.kernels import KernelContext, dead_lane
from repro.crypto.plan import PreprocessingManifest, record_phases
from repro.crypto.protocols.comparison import (
    _and_prepare,
    drelu,
    drelu_phases,
    millionaire_gt,
    millionaire_gt_phases,
    schedule_cost,
    schedules,
    secure_and,
    secure_and_phases,
    select,
    select_phases,
    tree_levels,
    tree_schedule,
)
from repro.crypto.protocols.registry import RandomnessRequest
from repro.crypto.ring import DEFAULT_RING, PAPER_RING
from repro.crypto.sharing import SharePair, share_ring_elements
from repro.crypto.transport import LoopbackTransport


def xor_open(bit) -> np.ndarray:
    return (bit[0] ^ bit[1]).astype(bool)


def millionaire_trace(shape, ring):
    """The recorded trace of one comparison of ``shape``-shaped values."""
    zeros = np.zeros(shape, dtype=np.uint64)
    return record_phases(
        lambda c: millionaire_gt_phases(c, zeros, zeros, bit_width=ring.ring_bits), ring
    )[0]


def drelu_trace(shape, ring):
    x = SharePair(np.zeros(shape, np.uint64), np.zeros(shape, np.uint64), ring)
    return record_phases(lambda c: drelu_phases(c, x), ring)[0]


def select_trace(shape, ring):
    x = SharePair(np.zeros(shape, np.uint64), np.zeros(shape, np.uint64), ring)
    bit = (np.zeros(shape, np.uint8), np.zeros(shape, np.uint8))
    return record_phases(lambda c: select_phases(c, x, bit), ring)[0]


class TestBitGates:
    def test_secure_and_truth_table(self, ctx):
        combos = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        x = (combos[:, 0], np.zeros(4, dtype=np.uint8))
        y = (np.zeros(4, dtype=np.uint8), combos[:, 1])
        result = xor_open(secure_and(ctx, x, y))
        np.testing.assert_array_equal(result, [False, False, False, True])

    def test_secure_and_on_random_shared_bits(self, ctx, rng):
        a = rng.integers(0, 2, 64, dtype=np.uint8)
        b = rng.integers(0, 2, 64, dtype=np.uint8)
        mask_a = rng.integers(0, 2, 64, dtype=np.uint8)
        mask_b = rng.integers(0, 2, 64, dtype=np.uint8)
        out = secure_and(ctx, (mask_a, a ^ mask_a), (mask_b, b ^ mask_b))
        np.testing.assert_array_equal(xor_open(out), (a & b).astype(bool))

    def test_and_consumes_communication(self, ctx, rng):
        ctx.reset_communication()
        bits = rng.integers(0, 2, 16, dtype=np.uint8)
        secure_and(ctx, (bits, bits), (bits, bits))
        assert ctx.communication_bytes > 0


class TestMillionaire:
    def test_known_comparisons(self, ctx):
        a = np.array([5, 10, 100, 7], dtype=np.uint64)
        b = np.array([9, 10, 50, 3], dtype=np.uint64)
        result = xor_open(millionaire_gt(ctx, a, b, bit_width=8))
        np.testing.assert_array_equal(result, [False, False, True, True])

    def test_random_comparisons_64bit(self, ctx, rng):
        a = rng.integers(0, 2**62, 40).astype(np.uint64)
        b = rng.integers(0, 2**62, 40).astype(np.uint64)
        result = xor_open(millionaire_gt(ctx, a, b, bit_width=64))
        np.testing.assert_array_equal(result, a > b)

    def test_equal_values_are_not_greater(self, ctx):
        a = np.array([42, 0, 2**31], dtype=np.uint64)
        result = xor_open(millionaire_gt(ctx, a, a.copy(), bit_width=64))
        assert not result.any()

    def test_rejects_shape_mismatch(self, ctx):
        with pytest.raises(ValueError):
            millionaire_gt(ctx, np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64), 32)

    def test_rejects_indivisible_digit_width(self, ctx):
        with pytest.raises(ValueError):
            millionaire_gt(
                ctx, np.zeros(2, dtype=np.uint64), np.zeros(2, dtype=np.uint64), 31, digit_bits=2
            )

    def test_one_bit_digits_compare_too(self, ctx, rng):
        a = rng.integers(0, 2**16, size=64, dtype=np.uint64)
        b = rng.integers(0, 2**16, size=64, dtype=np.uint64)
        result = xor_open(millionaire_gt(ctx, a, b, bit_width=16, digit_bits=1))
        np.testing.assert_array_equal(result, a > b)

    def test_rejects_digits_whose_ot_entries_overflow_a_byte(self, ctx):
        with pytest.raises(ValueError, match="one byte"):
            millionaire_gt(
                ctx, np.zeros(2, dtype=np.uint64), np.zeros(2, dtype=np.uint64), 12, digit_bits=3
            )


class TestDReLUAndSelect:
    def test_drelu_sign_pattern(self, ctx, rng):
        x = rng.uniform(-10, 10, size=(4, 5))
        bits = xor_open(drelu(ctx, share(x, ctx.ring, rng)))
        np.testing.assert_array_equal(bits, x > 0)

    def test_drelu_on_small_magnitudes(self, ctx, rng):
        x = np.array([-0.01, 0.01, -1e-3, 5e-4])
        bits = xor_open(drelu(ctx, share(x, ctx.ring, rng)))
        np.testing.assert_array_equal(bits, x > 0)

    def test_select_multiplexes(self, ctx, rng):
        x = rng.uniform(-5, 5, size=(20,))
        bits = rng.integers(0, 2, 20, dtype=np.uint8)
        mask = rng.integers(0, 2, 20, dtype=np.uint8)
        out = select(ctx, share(x, ctx.ring, rng), (mask, bits ^ mask))
        np.testing.assert_allclose(reconstruct(out), x * bits, atol=1e-3)


class TestLogDepthTree:
    """Comparison in a few rounds of multi-input AND combines, packed."""

    @pytest.mark.parametrize(
        "bit_width,expected_levels",
        [(64, 3), (32, 3), (16, 2), (8, 2), (4, 1), (2, 0)],
    )
    def test_and_round_count_is_logarithmic(self, bit_width, expected_levels):
        """One OT round plus one round per :func:`tree_schedule` level."""
        from repro.crypto import make_context
        from repro.crypto.events import as_group

        ctx = make_context(seed=1)
        rng = np.random.default_rng(0)
        a = (rng.integers(0, 1 << min(bit_width, 62), 6)).astype(np.uint64)
        b = (rng.integers(0, 1 << min(bit_width, 62), 6)).astype(np.uint64)
        from repro.crypto.protocols.comparison import millionaire_gt_phases

        gen = millionaire_gt_phases(ctx, a, b, bit_width=bit_width)
        groups = 0
        feed = None
        while True:
            try:
                group = as_group(gen.send(feed))
            except StopIteration:
                break
            groups += 1
            feed = tuple(ctx.channel.run_round(group))
        assert groups == 1 + expected_levels  # OT + tree levels

    def test_trace_matches_sequential_execution_exactly(self, ctx, rng):
        """Bytes AND dealer requests of the recorded trace match a
        sequential execution on the simulated channel."""
        shape = (3, 5)
        x = rng.uniform(-4, 4, size=shape)
        ctx.reset_communication()
        dealer = ctx.dealer
        bits_before = dealer.generated["bit"]
        drelu(ctx, share(x, ctx.ring, rng))
        trace = drelu_trace(shape, ctx.ring)
        assert ctx.communication_bytes == trace.online_bytes
        consumed = dealer.generated["bit"] - bits_before
        requested = sum(
            r.num_elements for r in trace.requests if r.kind == "bit"
        )
        assert consumed == requested

    def test_ot_payload_ships_two_bit_packed(self, ctx):
        """The stacked digit OT accounts 2 bits per table entry."""
        n = 8
        trace = millionaire_trace((n,), ctx.ring)
        (ot_event,) = trace.groups[0]
        ((sender, num_bytes),) = ot_event
        num_digits = ctx.ring.ring_bits // 2
        assert sender == 0
        assert num_bytes == 4 * num_digits * n * 2 // 8  # radix * D * n entries

    def test_tree_holds_207_material_bits_per_party_per_element(self, ctx):
        """Masks and mask products per party: 15 radix-2 combines of 5 bits
        and one of 3 (no eq output), then three radix-4 combines of 29 and
        one of 21, then one of 21 — 1.43x the radix-2 tree's 145."""
        trace = millionaire_trace((1,), ctx.ring)
        per_level = [r.num_elements for r in trace.requests if r.kind == "bit"]
        assert per_level == [15 * 5, 3, 3 * 29, 21, 21]
        assert sum(per_level) == 207


def _boundary_words(ring, count: int = 64) -> np.ndarray:
    """The ring-boundary values 0, 1, 2^(k-1) - 1, 2^(k-1), 2^k - 1, then
    uniformly random ring words up to ``count``."""
    half = 1 << (ring.ring_bits - 1)
    edges = np.array([0, 1, half - 1, half, ring.modulus - 1], dtype=np.uint64)
    rest = ring.random((count - len(edges),), np.random.default_rng(31))
    return np.concatenate([edges, rest])


def _bit_plane(kind: str, n: int) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(n, dtype=np.uint8)
    if kind == "ones":
        return np.ones(n, dtype=np.uint8)
    return np.random.default_rng(32).integers(0, 2, n, dtype=np.uint8)


def _select_inputs(ring, plane: str):
    """Raw words ``x``, a plane ``b``, and their sharings: ``[x]`` additive,
    ``b`` XOR-shared."""
    x = _boundary_words(ring)
    b = _bit_plane(plane, len(x))
    rng = np.random.default_rng(33)
    mask = rng.integers(0, 2, len(x), dtype=np.uint8)
    return x, b, share_ring_elements(x, ring, rng), (mask, b ^ mask)


def _expected_select(ring, x, b) -> np.ndarray:
    return np.where(b.astype(bool), x, np.uint64(0))


PLANES = ["zeros", "ones", "random"]
RINGS = [pytest.param(DEFAULT_RING, id="r64"), pytest.param(PAPER_RING, id="r32")]


class TestOneRoundSelect:
    """The multiplexer is one daBit, one bit and one ring-word opening, and
    exact on every ring value and every bit plane."""

    @pytest.mark.parametrize("fused", [False, True], ids=["reference", "fused"])
    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("plane", PLANES)
    def test_select_is_exact_at_ring_boundaries(self, plane, ring, fused):
        ctx = make_context(ring=ring, seed=5)
        if fused:
            ctx.kernels = KernelContext()
        x, b, shared, bit = _select_inputs(ring, plane)
        out = select(ctx, shared, bit)
        np.testing.assert_array_equal(
            ring.add(out.share0, out.share1), _expected_select(ring, x, b)
        )

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("plane", PLANES)
    def test_select_is_exact_over_party_channels_with_dead_peer_lanes(self, plane, ring):
        """Each party thread holds its own lanes only; the peer's are the
        read-only placeholder, and the two live results reconstruct b·x."""
        x, b, shared, bit = _select_inputs(ring, plane)
        transports = LoopbackTransport.pair(timeout=60.0)
        results, errors = {}, []

        def party_main(party):
            try:
                ctx = make_context(ring=ring, seed=5)
                ctx.channel = PartyChannel(transports[party], party, ring=ring)
                ctx.kernels = KernelContext(live=party)
                held = ((shared.share0, shared.share1)[party], bit[party])
                peer = (dead_lane(x.shape), dead_lane(x.shape, np.uint8))
                x_lanes, b_lanes = zip(*((held, peer) if party == 0 else (peer, held)))
                out = select(ctx, SharePair(*x_lanes, ring), b_lanes)
                results[party] = (out.share0, out.share1)
            except BaseException as exc:
                errors.append(exc)
                transports[party].close()

        threads = [threading.Thread(target=party_main, args=(p,)) for p in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        if errors:
            raise errors[0]
        for party in (0, 1):
            peer = results[party][1 - party]
            assert not peer.flags.writeable and not any(peer.strides)
        got = ring.add(results[0][0], results[1][1])
        np.testing.assert_array_equal(got, _expected_select(ring, x, b))

    def test_trace_is_one_dabit_and_one_round_group(self, ctx, rng):
        shape = (5, 8)
        n = 40
        trace = select_trace(shape, ctx.ring)
        assert [(r.kind, r.shape) for r in trace.requests] == [("dabit", shape)]
        assert len(trace.groups) == 1
        assert trace.online_bytes == 2 * (8 * n + -(-n // 8))
        assert trace.scheduled_rounds == 2  # one frame each way

        values = rng.uniform(-4, 4, size=shape)
        bits = rng.integers(0, 2, shape, dtype=np.uint8)
        mask = rng.integers(0, 2, shape, dtype=np.uint8)
        generated_before = dict(ctx.dealer.generated)
        ctx.reset_communication()
        select(ctx, share(values, ctx.ring, rng), (mask, bits ^ mask))
        generated_before["dabit"] = generated_before.get("dabit", 0) + n
        assert ctx.dealer.generated == generated_before  # a daBit and nothing else
        assert ctx.communication_bytes == trace.online_bytes

    @pytest.mark.parametrize("plane", ["zeros", "ones"])
    def test_opened_bit_is_balanced_on_constant_planes(self, plane):
        """``c = b ^ r`` is what the peer sees of ``b``: at a fixed seed its
        mean over 2^14 elements is 0.5 whether ``b`` is all zeros or all
        ones."""
        n = 1 << 14
        ctx = make_context(seed=9)
        b = _bit_plane(plane, n)
        x = share(np.zeros(n), ctx.ring, np.random.default_rng(34))
        gen = select_phases(ctx, x, (b, np.zeros(n, dtype=np.uint8)))
        group = as_group(gen.send(None))
        opened = ctx.channel.run_round(group)
        assert abs(float(opened[0].mean()) - 0.5) <= 0.02

    def test_dabit_reconstructs_consistently(self):
        from repro.crypto.dealer import TrustedDealer

        dealer = TrustedDealer(seed=7)
        dab = dealer.draw("dabit", (200,))
        ring = dealer.ring
        xor_bit = dab["r0"] ^ dab["r1"]
        arith_bit = ring.add(dab["arith"].share0, dab["arith"].share1)
        np.testing.assert_array_equal(arith_bit.astype(np.uint8), xor_bit)
        assert set(np.unique(xor_bit)) <= {0, 1}
        a = ring.add(dab["a"].share0, dab["a"].share1)
        ra = ring.add(dab["ra"].share0, dab["ra"].share1)
        np.testing.assert_array_equal(ra, ring.mul(arith_bit, a))


def _gt_pairs(ring) -> tuple:
    """``(a, b)`` pairs at the ring boundaries 0, 1, 2^(k-2) - 1, 2^(k-1) - 1
    against each other, equal pairs, and ``b = a - 1`` pairs."""
    edges = np.array([0, 1, (1 << (ring.ring_bits - 2)) - 1, (1 << (ring.ring_bits - 1)) - 1])
    edges = edges.astype(np.uint64)
    rest = ring.random((60,), np.random.default_rng(41)) >> np.uint64(1)
    values = np.concatenate([edges, rest])
    a = np.concatenate([np.repeat(edges, len(edges)), values, values[1:]])
    b = np.concatenate([np.tile(edges, len(edges)), values, values[1:] - np.uint64(1)])
    return a, b


class TestTreeSchedule:
    """The level schedule is a pure function; the radix comes from its cost
    table by one rule: the fewest rounds whose material is at most 1.5x the
    radix-2 tree's, ties to fewer material bits."""

    @pytest.mark.parametrize(
        "leaves,radices,rounds,opened,material",
        [
            (32, (2, 2, 2, 2, 2), 5, 88, 145),
            (32, (2, 2, 2, 4), 4, 87, 155),
            (32, (2, 4, 4), 3, 80, 207),
            (32, (4, 4, 2), 3, 70, 277),
            (32, (2, 2, 8), 3, 84, 497),
            (32, (4, 8), 2, 69, 605),
            (32, (8, 4), 2, 65, 1929),
            (63, (2, 2, 2, 2, 2, 2), 6, 181, 300),
            (63, (2, 2, 4, 4), 4, 173, 362),
            (63, (2, 4, 8), 3, 162, 760),
            (63, (4, 4, 4), 3, 142, 573),
            (63, (8, 8), 2, 131, 4133),
        ],
    )
    def test_cost_table(self, leaves, radices, rounds, opened, material):
        """Rounds, opened bits and material bits per element and party."""
        assert schedule_cost(leaves, radices) == (rounds, opened, material)

    @pytest.mark.parametrize(
        "leaves,levels",
        [
            (32, [(32, 2, 15, 2), (16, 4, 3, 4), (4, 4, 0, 4)]),
            (63, [(63, 2, 31, 1), (32, 2, 15, 2), (16, 4, 3, 4), (4, 4, 0, 4)]),
            (7, [(7, 2, 3, 1), (4, 4, 0, 4)]),
            (1, []),
        ],
    )
    def test_levels_of_the_picked_schedule(self, leaves, levels):
        """``(remaining, radix, full, last)``: ``full`` groups keep their eq
        output, the last group of ``last`` nodes holds the last position
        (one node is carried)."""
        assert list(tree_levels(leaves, tree_schedule(leaves))) == levels

    @pytest.mark.parametrize(
        "leaves,pick",
        [
            (32, (2, 4, 4)),
            (63, (2, 2, 4, 4)),
            (16, (2, 2, 4)),
            (8, (2, 4)),
            (4, (2, 2)),
            (2, (2,)),
            (1, ()),
        ],
    )
    def test_rule_pick(self, leaves, pick):
        """Every schedule with fewer rounds breaks the budget, and no
        schedule of as many rounds within it holds less material."""
        assert tree_schedule(leaves) == pick
        budget = 1.5 * schedule_cost(leaves, (2,) * (leaves - 1).bit_length())[2]
        rounds, _, material = schedule_cost(leaves, pick)
        assert material <= budget
        for other in schedules(leaves):
            cost = schedule_cost(leaves, other)
            fewer_rounds, as_many = cost[0] < rounds, cost[0] == rounds
            assert not (fewer_rounds and cost[2] <= budget)
            assert not (as_many and cost[2] < material)

    def test_a_schedule_must_reach_the_root(self):
        with pytest.raises(ValueError, match="unfolded"):
            list(tree_levels(32, (2, 4)))


class TestMultiInputAndTree:
    """Each tree level folds groups of 2 or 4 nodes in one round of
    multi-input AND combines, and computes no equality bit for the last
    position."""

    @pytest.mark.parametrize("fused", [False, True], ids=["reference", "fused"])
    @pytest.mark.parametrize("ring", RINGS)
    def test_millionaire_is_exact_on_boundary_equal_and_adjacent_pairs(self, ring, fused):
        ctx = make_context(ring=ring, seed=6)
        if fused:
            ctx.kernels = KernelContext()
        a, b = _gt_pairs(ring)
        result = xor_open(millionaire_gt(ctx, a, b, bit_width=ring.ring_bits))
        np.testing.assert_array_equal(result, a > b)

    @pytest.mark.parametrize("ring", RINGS)
    def test_millionaire_is_exact_over_party_channels_with_dead_peer_lanes(self, ring):
        a, b = _gt_pairs(ring)
        transports = LoopbackTransport.pair(timeout=60.0)
        results, errors = {}, []

        def party_main(party):
            try:
                ctx = make_context(ring=ring, seed=6)
                ctx.channel = PartyChannel(transports[party], party, ring=ring)
                ctx.kernels = KernelContext(live=party)
                values = (a, dead_lane(b.shape)) if party == 0 else (dead_lane(a.shape), b)
                results[party] = millionaire_gt(ctx, *values, bit_width=ring.ring_bits)
            except BaseException as exc:
                errors.append(exc)
                transports[party].close()

        threads = [threading.Thread(target=party_main, args=(p,)) for p in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        if errors:
            raise errors[0]
        for party in (0, 1):
            peer = results[party][1 - party]
            assert not peer.flags.writeable and not any(peer.strides)
        got = (results[0][0] ^ results[1][1]).astype(bool)
        np.testing.assert_array_equal(got, a > b)

    @pytest.mark.parametrize("fused", [False, True], ids=["reference", "fused"])
    @pytest.mark.parametrize("bit_width", [6, 10, 14, 18, 22, 58])
    def test_odd_digit_counts_compare_exactly(self, bit_width, fused):
        """3, 5, 7, 9, 11 and 29 two-bit digits: radix-2 levels with a
        carried node, and radix-4 levels whose last group is one carried
        node, 2 nodes or 3 nodes.  All pairs of a 128-value grid spanning
        the domain, plus ``b = a - 1``."""
        ctx = make_context(seed=7)
        if fused:
            ctx.kernels = KernelContext()
        grid = np.arange(1 << min(bit_width, 7), dtype=np.uint64) << np.uint64(
            max(bit_width - 7, 0)
        )
        a = np.repeat(grid, len(grid))
        b = np.tile(grid, len(grid))
        b = np.concatenate([b, grid[1:] - np.uint64(1)])
        a = np.concatenate([a, grid[1:]])
        result = xor_open(millionaire_gt(ctx, a, b, bit_width=bit_width))
        np.testing.assert_array_equal(result, a > b)

    @pytest.mark.parametrize("fused", [False, True], ids=["reference", "fused"])
    def test_63_one_bit_leaves_compare_exactly(self, fused):
        """The 63-leaf tree of a masked-opening comparison: boundary, equal
        and adjacent pairs of 63-bit values."""
        ctx = make_context(seed=8)
        if fused:
            ctx.kernels = KernelContext()
        a, b = _gt_pairs(DEFAULT_RING)
        result = xor_open(millionaire_gt(ctx, a, b, bit_width=63, digit_bits=1))
        np.testing.assert_array_equal(result, a > b)

    def test_tree_opens_80_bits_per_party_per_element(self, ctx):
        """47 + 27 + 6 opened bits per party, so a 64-bit DReLU is 32 B of
        OT plus 20 B of tree per element."""
        n = 8
        trace = millionaire_trace((n,), ctx.ring)
        per_party = [messages[0][1] * 8 // n for (messages,) in trace.groups[1:]]
        assert per_party == [47, 27, 6]
        assert drelu_trace((n,), ctx.ring).online_bytes == 52 * n

    @pytest.mark.parametrize("shape", [(4, 2, 3, 5), (4, 1, 1, 7), (2, 2, 15, 4), (3, 1, 2)])
    def test_and_item_planes_are_mask_products(self, shape):
        """Plane ``p`` reconstructs to the product of the masks in
        ``subsets[p]``, per item and over a stacked pool group."""
        from repro.crypto.dealer import TrustedDealer
        from repro.crypto.andgates import and_table, unpack_planes

        table = and_table(shape[0], shape[1])

        def check(packed):
            lam = unpack_planes(packed, shape[2:])
            axis = lam.ndim - len(shape) + 1  # the plane axis, before S
            for plane, subset in enumerate(table.subsets):
                chosen = [i for i in range(table.inputs) if subset >> i & 1]
                expected = np.bitwise_and.reduce(np.take(lam, chosen, axis=axis), axis=axis)
                np.testing.assert_array_equal(np.take(lam, plane, axis=axis), expected)

        dealer = TrustedDealer(seed=8)
        for item in (dealer.draw("bit", shape), dealer.draw("bit", shape)):
            assert item["lam0"].shape == (len(table.subsets), -(-np.prod(shape[2:]) // 8))
            check(item["lam0"] ^ item["lam1"])
        pool = TrustedDealer(seed=8).preprocess(
            PreprocessingManifest(
                requests=(RandomnessRequest("bit", shape),) * 3, ring=DEFAULT_RING
            )
        )
        group = pool.group("bit", shape)
        check(group["lam0"] ^ group["lam1"])
        assert pool.remaining == 3

    @pytest.mark.parametrize("radix,outputs", [(2, 1), (2, 2), (3, 1), (4, 1), (4, 2), (8, 1)])
    def test_fused_finish_equals_the_term_by_term_expansion(self, radix, outputs):
        """The kernel's coefficient planes and the reference's one-term-at-a-
        time expansion give the same shares, and they reconstruct to the
        combine's gt (and eq) products of the unmasked inputs."""
        from repro.crypto.dealer import TrustedDealer
        from repro.crypto.andgates import and_table

        table = and_table(radix, outputs)
        shape = (table.inputs, 3, 5)
        rng = np.random.default_rng(radix * 10 + outputs)
        x = rng.integers(0, 2, shape, dtype=np.uint8)
        mask = rng.integers(0, 2, shape, dtype=np.uint8)
        results = []
        for fused in (False, True):
            ctx = make_context(seed=12)
            ctx.dealer = TrustedDealer(seed=12)
            if fused:
                ctx.kernels = KernelContext()
            event, finish = _and_prepare(ctx, [(radix, outputs, (mask, x ^ mask))], "t")
            (z,) = finish(ctx.channel.run_round((event,))[0])
            results.append(z)
        for lane in (0, 1):
            np.testing.assert_array_equal(results[0][lane], results[1][lane])
        z = results[0][0] ^ results[0][1]
        for output in range(outputs):
            expected = np.zeros(shape[1:], dtype=np.uint8)
            for o, monomial in table.monomials:
                if o == output:
                    chosen = [i for i in range(table.inputs) if monomial >> i & 1]
                    expected ^= np.bitwise_and.reduce(x[chosen], axis=0)
            np.testing.assert_array_equal(z[output], expected)

    def test_secure_and_is_the_one_monomial_and_item(self, ctx):
        x = (np.zeros((4, 5), np.uint8), np.zeros((4, 5), np.uint8))
        trace, _ = record_phases(lambda c: secure_and_phases(c, x, x), ctx.ring)
        assert trace.requests[0].shape == (2, 1, 4, 5)
        bits = np.ones(20, dtype=np.uint8)
        before = ctx.dealer.generated["bit"]
        secure_and(ctx, (bits, bits ^ 1), (bits, bits ^ 1))
        assert ctx.dealer.generated["bit"] - before == 3 * 20


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_millionaire_matches_plain_comparison(seed):
    rng = np.random.default_rng(seed)
    ctx = make_context(seed=seed)
    a = rng.integers(0, 2**20, 10).astype(np.uint64)
    b = rng.integers(0, 2**20, 10).astype(np.uint64)
    result = millionaire_gt(ctx, a, b, bit_width=32)
    np.testing.assert_array_equal((result[0] ^ result[1]).astype(bool), a > b)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_drelu_matches_sign(seed):
    rng = np.random.default_rng(seed)
    ctx = make_context(seed=seed)
    x = rng.uniform(-100, 100, size=(8,))
    bits = drelu(ctx, share(x, ctx.ring, rng))
    np.testing.assert_array_equal((bits[0] ^ bits[1]).astype(bool), x > 0)
