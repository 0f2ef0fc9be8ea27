"""Edge-case tests for ring configurations and protocol robustness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import make_context, reconstruct, share
from repro.crypto.events import transfer_event
from repro.crypto.protocols.arithmetic import multiply, square
from repro.crypto.protocols.comparison import drelu
from repro.crypto.ring import FixedPointRing


class TestAlternativeRings:
    def test_integer_only_ring(self, rng):
        """frac_bits = 0 gives exact integer arithmetic."""
        ring = FixedPointRing(ring_bits=32, frac_bits=0)
        ctx = make_context(ring=ring, seed=0)
        x = rng.integers(-50, 50, size=(6,)).astype(np.float64)
        y = rng.integers(-50, 50, size=(6,)).astype(np.float64)
        result = multiply(ctx, share(x, ring, rng), share(y, ring, rng), truncate=False)
        np.testing.assert_allclose(reconstruct(result), x * y, atol=0)

    def test_paper_32bit_ring_multiplication(self, rng):
        """The paper's 32-bit / 12-fraction-bit ring handles small values."""
        ring = FixedPointRing(ring_bits=32, frac_bits=12)
        ctx = make_context(ring=ring, seed=1)
        x = rng.uniform(-3, 3, size=(8,))
        y = rng.uniform(-3, 3, size=(8,))
        result = multiply(ctx, share(x, ring, rng), share(y, ring, rng))
        np.testing.assert_allclose(reconstruct(result), x * y, atol=5e-3)

    def test_paper_ring_drelu(self, rng):
        ring = FixedPointRing(ring_bits=32, frac_bits=12)
        ctx = make_context(ring=ring, seed=2)
        x = rng.uniform(-5, 5, size=(16,))
        bits = drelu(ctx, share(x, ring, rng))
        np.testing.assert_array_equal((bits[0] ^ bits[1]).astype(bool), x > 0)

    def test_small_ring_overflows_gracefully_detectable(self, rng):
        """Values beyond the representable range wrap — decode reflects it."""
        ring = FixedPointRing(ring_bits=16, frac_bits=8)
        too_big = np.array(ring.max_representable * 4)
        decoded = float(ring.decode(ring.encode(too_big)))
        assert decoded != pytest.approx(float(too_big))

    def test_channel_element_bytes_follow_ring(self):
        ring = FixedPointRing(ring_bits=32, frac_bits=12)
        ctx = make_context(ring=ring, seed=3)
        ctx.channel.run_round([transfer_event(0, 1, np.zeros(10, dtype=np.uint64))])
        assert ctx.channel.total_bytes == 40  # 4 bytes per 32-bit element


class TestProtocolRobustness:
    def test_square_of_large_batch(self, ctx, rng):
        x = rng.uniform(-2, 2, size=(4, 3, 8, 8))
        result = reconstruct(square(ctx, share(x, ctx.ring, rng)))
        np.testing.assert_allclose(result, x * x, atol=1e-3)

    def test_multiply_broadcast_shapes_must_match_triple(self, ctx, rng):
        """The generic multiply contracts operand shapes through the supplied
        bilinear map; elementwise default requires equal shapes."""
        x = share(rng.normal(size=(4,)), ctx.ring, rng)
        y = share(rng.normal(size=(5,)), ctx.ring, rng)
        with pytest.raises(ValueError):
            multiply(ctx, x, y)

    def test_drelu_extreme_magnitudes(self, ctx):
        x = np.array([1e4, -1e4, 1e-4, -1e-4])
        rng = np.random.default_rng(0)
        bits = drelu(ctx, share(x, ctx.ring, rng))
        np.testing.assert_array_equal((bits[0] ^ bits[1]).astype(bool), x > 0)

    def test_reconstruction_precision_bound(self, ctx, rng):
        """Secret sharing itself is lossless up to the fixed-point encoding."""
        x = rng.uniform(-100, 100, size=(64,))
        np.testing.assert_allclose(
            reconstruct(share(x, ctx.ring, rng)), x, atol=1.0 / ctx.ring.scale
        )
