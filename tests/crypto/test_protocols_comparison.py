"""Tests for the comparison protocols (millionaire, DReLU, B2A, select)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import make_context, reconstruct, share
from repro.crypto.protocols.comparison import (
    bit_to_arithmetic,
    drelu,
    millionaire_gt,
    secure_and,
    select,
)


def xor_open(bit) -> np.ndarray:
    return (bit[0] ^ bit[1]).astype(bool)


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

    def test_bit_to_arithmetic_round_trip(self, ctx, rng):
        bits = rng.integers(0, 2, 32, dtype=np.uint8)
        mask = rng.integers(0, 2, 32, dtype=np.uint8)
        arith = bit_to_arithmetic(ctx, (mask, bits ^ mask))
        recovered = ctx.ring.add(arith.share0, arith.share1)
        np.testing.assert_array_equal(recovered.astype(np.uint8), bits)

    def test_select_multiplexes(self, ctx, rng):
        x = rng.uniform(-5, 5, size=(20,))
        bits = rng.integers(0, 2, 20, dtype=np.uint8)
        mask = rng.integers(0, 2, 20, dtype=np.uint8)
        out = select(ctx, share(x, ctx.ring, rng), (mask, bits ^ mask))
        np.testing.assert_allclose(reconstruct(out), x * bits, atol=1e-3)


class TestLogDepthTree:
    """The tentpole: comparison in ceil(log2(digits)) AND rounds, packed."""

    @pytest.mark.parametrize(
        "bit_width,expected_levels",
        [(64, 5), (32, 4), (16, 3), (8, 2), (4, 1), (2, 0)],
    )
    def test_and_round_count_is_logarithmic(self, bit_width, expected_levels):
        """One OT round plus ceil(log2(bit_width / 2)) stacked AND rounds."""
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
        from repro.crypto.events import perform_event

        while True:
            try:
                group = as_group(gen.send(feed))
            except StopIteration:
                break
            groups += 1
            feed = tuple(perform_event(ctx.channel, event) for event in group)
        assert groups == 1 + expected_levels  # OT + tree levels

    def test_trace_matches_sequential_execution_exactly(self, ctx, rng):
        """Bytes AND dealer requests of the trace mirror the generator."""
        from repro.crypto.protocols.comparison import drelu_trace

        shape = (3, 5)
        x = rng.uniform(-4, 4, size=shape)
        ctx.reset_communication()
        dealer = ctx.dealer
        bits_before = dealer.bit_triples_generated
        drelu(ctx, share(x, ctx.ring, rng))
        trace = drelu_trace(shape, ctx.ring)
        assert ctx.communication_bytes == trace.online_bytes
        consumed = dealer.bit_triples_generated - bits_before
        requested = sum(
            r.num_elements for r in trace.requests if r.kind == "bit"
        )
        assert consumed == requested

    def test_ot_payload_ships_two_bit_packed(self, ctx):
        """The stacked digit OT accounts 2 bits per table entry."""
        from repro.crypto.protocols.comparison import millionaire_trace

        n = 8
        trace = millionaire_trace((n,), ctx.ring)
        (ot_event,) = trace.groups[0]
        ((sender, num_bytes),) = ot_event
        num_digits = ctx.ring.ring_bits // 2
        assert sender == 0
        assert num_bytes == 4 * num_digits * n * 2 // 8  # radix * D * n entries

    def test_fewer_and_gates_than_the_sequential_chain(self, ctx):
        """The tree spends 61 AND gates per element where the chain spent 63
        (the root combine drops its unused equality gate)."""
        from repro.crypto.protocols.comparison import millionaire_trace

        trace = millionaire_trace((1,), ctx.ring)
        total_ands = sum(
            r.num_elements for r in trace.requests if r.kind == "bit"
        )
        assert total_ands == 61


class TestDaBitB2A:
    def test_b2a_uses_one_dabit_and_one_bit_opening(self, ctx, rng):
        from repro.crypto.protocols.comparison import bit_to_arithmetic_trace

        shape = (40,)
        bits = rng.integers(0, 2, shape, dtype=np.uint8)
        mask = rng.integers(0, 2, shape, dtype=np.uint8)
        dabits_before = ctx.dealer.dabits_generated
        ctx.reset_communication()
        bit_to_arithmetic(ctx, (mask, bits ^ mask))
        assert ctx.dealer.dabits_generated - dabits_before == 40
        trace = bit_to_arithmetic_trace(shape, ctx.ring)
        assert ctx.communication_bytes == trace.online_bytes
        # 40 bits per direction packed: 5 bytes each way — no ring traffic
        assert ctx.communication_bytes == 10

    def test_dabit_reconstructs_consistently(self):
        from repro.crypto.dealer import TrustedDealer

        dealer = TrustedDealer(seed=7)
        dab = dealer.dabit((200,))
        xor_bit = dab.r0 ^ dab.r1
        arith_bit = dealer.ring.add(dab.arith.share0, dab.arith.share1)
        np.testing.assert_array_equal(arith_bit.astype(np.uint8), xor_bit)
        assert set(np.unique(xor_bit)) <= {0, 1}


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
