"""Tests for fixed-point ring arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.protocols.linear import ring_matmul
from repro.crypto.ring import DEFAULT_RING, PAPER_RING, FixedPointRing


class TestEncodeDecode:
    @pytest.mark.parametrize("ring", [DEFAULT_RING, PAPER_RING])
    def test_round_trip_within_precision(self, ring, rng):
        values = rng.uniform(-50, 50, size=(4, 5))
        decoded = ring.decode(ring.encode(values))
        np.testing.assert_allclose(decoded, values, atol=1.0 / ring.scale)

    def test_negative_values_use_ring_wraparound(self):
        ring = PAPER_RING
        encoded = ring.encode(np.array(-1.0))
        assert encoded == ring.modulus - ring.scale
        assert ring.decode(encoded) == pytest.approx(-1.0)

    def test_to_signed_interprets_top_half_as_negative(self):
        ring = FixedPointRing(ring_bits=8, frac_bits=2)
        assert ring.to_signed(np.array([255], dtype=np.uint64))[0] == -1
        assert ring.to_signed(np.array([127], dtype=np.uint64))[0] == 127

    def test_max_representable(self):
        ring = PAPER_RING
        value = np.array(ring.max_representable)
        assert ring.decode(ring.encode(value)) == pytest.approx(float(value), rel=1e-6)


class TestArithmetic:
    def test_add_sub_wrap(self):
        ring = FixedPointRing(ring_bits=8, frac_bits=0)
        a = np.array([250], dtype=np.uint64)
        b = np.array([10], dtype=np.uint64)
        assert ring.add(a, b)[0] == 4
        assert ring.sub(b, a)[0] == 16

    def test_neg_is_additive_inverse(self, rng):
        ring = PAPER_RING
        a = ring.random((10,), rng)
        np.testing.assert_array_equal(ring.add(a, ring.neg(a)), np.zeros(10, dtype=np.uint64))

    def test_scalar_mul_matches_mul(self, rng):
        ring = PAPER_RING
        a = ring.random((6,), rng)
        np.testing.assert_array_equal(ring.scalar_mul(a, 7), ring.mul(a, np.uint64(7)))

    def test_matmul_wraps(self):
        ring = FixedPointRing(ring_bits=8, frac_bits=0)
        a = np.full((1, 4), 100, dtype=np.uint64)
        b = np.full((4, 1), 100, dtype=np.uint64)
        assert ring_matmul(ring, a, b)[0, 0] == (4 * 100 * 100) % 256


class TestTruncation:
    def test_plain_truncation_divides_by_scale(self):
        ring = FixedPointRing(ring_bits=32, frac_bits=4)
        value = ring.encode(np.array(3.0))
        product = ring.mul(value, ring.encode(np.array(2.0)))
        truncated = ring.truncate_plain(product)
        assert ring.decode(truncated) == pytest.approx(6.0, abs=1.0 / ring.scale)

    def test_local_share_truncation_error_at_most_one_lsb(self, rng):
        ring = DEFAULT_RING
        values = rng.uniform(-30, 30, size=(64,))
        encoded = ring.mul(ring.encode(values), ring.encode(np.ones(64)))
        share0 = ring.random(encoded.shape, rng)
        share1 = ring.sub(encoded, share0)
        t0 = ring.truncate_local(share0, party=0)
        t1 = ring.truncate_local(share1, party=1)
        recovered = ring.decode(ring.add(t0, t1))
        np.testing.assert_allclose(recovered, values, atol=3.0 / ring.scale)

    @pytest.mark.parametrize("magnitude_bits", [24, 28])
    def test_local_truncation_fails_at_the_rate_secureml_predicts(self, magnitude_bits):
        """On a 32-bit ring a split of |x| < 2^l fails when the two signed
        shares wrap, with probability |x| / 2^k (SecureML bounds it by
        2^(l+1-k)); a failure is off by ~2^(k-f), every other result by at
        most one LSB."""
        ring, trials = PAPER_RING, 1 << 16
        rng = np.random.default_rng(magnitude_bits)
        x = rng.integers(-(1 << magnitude_bits) + 1, 1 << magnitude_bits, size=trials)
        element = ring.wrap(x.astype(np.uint64))
        share0 = ring.random((trials,), rng)
        share1 = ring.sub(element, share0)
        result = ring.add(ring.truncate_local(share0, 0), ring.truncate_local(share1, 1))
        error = np.abs(ring.to_signed(ring.sub(result, ring.truncate_plain(element))))
        failed = error > 1
        wrapped = ring.to_signed(share0) + ring.to_signed(share1) != x
        np.testing.assert_array_equal(failed, wrapped)
        assert (error[failed] >= (1 << (ring.ring_bits - ring.frac_bits)) - 1).all()
        # a binomial count: within 5 standard deviations of the exact mean
        expected = np.abs(x).sum() / 2.0**ring.ring_bits
        assert abs(failed.sum() - expected) <= 5 * np.sqrt(expected)
        assert failed.mean() < 2.0 ** (magnitude_bits + 1 - ring.ring_bits)


class TestBitDecomposition:
    def test_msb_of_negative_is_one(self):
        ring = PAPER_RING
        assert ring.msb(ring.encode(np.array(-2.0))) == 1
        assert ring.msb(ring.encode(np.array(2.0))) == 0

    def test_digits_round_trip(self, rng):
        ring = PAPER_RING
        values = ring.random((12,), rng)
        digits = ring.digits(values, digit_bits=2)
        assert digits.shape == (16, 12)
        np.testing.assert_array_equal(ring.from_digits(digits, digit_bits=2), values)

    def test_digits_requires_divisible_width(self):
        with pytest.raises(ValueError):
            PAPER_RING.digits(np.zeros(1, dtype=np.uint64), digit_bits=5)

    def test_low_bits_clears_msb(self):
        ring = FixedPointRing(ring_bits=8, frac_bits=0)
        assert ring.low_bits(np.array([0xFF], dtype=np.uint64))[0] == 0x7F


class TestValidation:
    def test_rejects_bad_ring_bits(self):
        with pytest.raises(ValueError):
            FixedPointRing(ring_bits=70, frac_bits=10)

    def test_rejects_bad_frac_bits(self):
        with pytest.raises(ValueError):
            FixedPointRing(ring_bits=16, frac_bits=15)

    def test_random_elements_cover_full_range(self, rng):
        ring = FixedPointRing(ring_bits=8, frac_bits=0)
        samples = ring.random((5000,), rng)
        assert samples.max() > 250 and samples.min() < 5


@settings(max_examples=40, deadline=None)
@given(
    value=st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    seed=st.integers(0, 100),
)
def test_property_encode_decode_round_trip(value, seed):
    ring = DEFAULT_RING
    decoded = float(ring.decode(ring.encode(np.array(value))))
    assert decoded == pytest.approx(value, abs=1.0 / ring.scale)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_addition_homomorphism(seed):
    """encode(a) + encode(b) decodes to a + b."""
    rng = np.random.default_rng(seed)
    ring = DEFAULT_RING
    a = rng.uniform(-100, 100, size=(8,))
    b = rng.uniform(-100, 100, size=(8,))
    decoded = ring.decode(ring.add(ring.encode(a), ring.encode(b)))
    np.testing.assert_allclose(decoded, a + b, atol=2.0 / ring.scale)
