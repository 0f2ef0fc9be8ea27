"""Tests for the secure DNN layer protocols: activation, pooling, conv, linear."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import reconstruct, share
from repro.crypto.protocols.activation import secure_relu, secure_x2act
from repro.crypto.protocols.linear import (
    fold_batchnorm,
    ring_conv2d,
    secure_conv2d_public_weight,
    secure_linear_public_weight,
)
from repro.crypto.protocols.pooling import (
    secure_avgpool2d,
    secure_global_avgpool,
    secure_maxpool2d,
)
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestSecureActivations:
    def test_relu_matches_plaintext(self, ctx, rng):
        x = rng.uniform(-4, 4, size=(2, 3, 4, 4))
        out = reconstruct(secure_relu(ctx, share(x, ctx.ring, rng)))
        np.testing.assert_allclose(out, np.maximum(x, 0), atol=1e-3)

    def test_relu_on_all_negative_input(self, ctx, rng):
        x = -np.abs(rng.uniform(1, 3, size=(10,)))
        out = reconstruct(secure_relu(ctx, share(x, ctx.ring, rng)))
        np.testing.assert_allclose(out, np.zeros(10), atol=1e-3)

    def test_x2act_matches_eq4(self, ctx, rng):
        x = rng.uniform(-2, 2, size=(2, 8))
        w1, w2, b, c = 0.4, 0.85, -0.05, 1.0
        n_x = 8
        out = reconstruct(
            secure_x2act(ctx, share(x, ctx.ring, rng), w1, w2, b, num_elements=n_x, scale_constant=c)
        )
        expected = c / np.sqrt(n_x) * w1 * x**2 + w2 * x + b
        np.testing.assert_allclose(out, expected, atol=2e-3)

    def test_x2act_infers_num_elements(self, ctx, rng):
        x = rng.uniform(-1, 1, size=(2, 4, 3, 3))
        out = reconstruct(secure_x2act(ctx, share(x, ctx.ring, rng), 0.1, 1.0, 0.0))
        expected = 1.0 / np.sqrt(4 * 9) * 0.1 * x**2 + x
        np.testing.assert_allclose(out, expected, atol=2e-3)

    def test_relu_is_much_more_expensive_than_x2act(self, ctx, rng):
        x = share(rng.uniform(-1, 1, size=(1, 4, 4, 4)), ctx.ring, rng)
        ctx.reset_communication()
        secure_x2act(ctx, x, 0.1, 1.0, 0.0)
        x2act_bytes = ctx.communication_bytes
        ctx.reset_communication()
        secure_relu(ctx, x)
        relu_bytes = ctx.communication_bytes
        # still several times more expensive, though the packed sub-byte wire
        # format and the daBit B2A cut the old >10x gap to ~6x
        assert relu_bytes > 4 * x2act_bytes


class TestSecurePooling:
    def test_maxpool_matches_plaintext(self, ctx, rng):
        x = rng.uniform(-3, 3, size=(1, 2, 4, 4))
        out = reconstruct(secure_maxpool2d(ctx, share(x, ctx.ring, rng), kernel_size=2))
        expected = F.max_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out, expected, atol=1e-3)

    def test_maxpool_3x3_window(self, ctx, rng):
        x = rng.uniform(-3, 3, size=(1, 1, 6, 6))
        out = reconstruct(
            secure_maxpool2d(ctx, share(x, ctx.ring, rng), kernel_size=3, stride=3)
        )
        expected = F.max_pool2d(Tensor(x), 3, stride=3).data
        np.testing.assert_allclose(out, expected, atol=1e-3)

    def test_avgpool_matches_plaintext(self, ctx, rng):
        x = rng.uniform(-3, 3, size=(2, 3, 4, 4))
        out = reconstruct(secure_avgpool2d(ctx, share(x, ctx.ring, rng), kernel_size=2))
        expected = F.avg_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out, expected, atol=1e-3)

    def test_avgpool_needs_no_communication(self, ctx, rng):
        x = share(rng.normal(size=(1, 2, 4, 4)), ctx.ring, rng)
        ctx.reset_communication()
        secure_avgpool2d(ctx, x, kernel_size=2)
        assert ctx.communication_bytes == 0

    def test_global_avgpool(self, ctx, rng):
        x = rng.uniform(-2, 2, size=(2, 5, 4, 4))
        out = reconstruct(secure_global_avgpool(ctx, share(x, ctx.ring, rng)))
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), atol=1e-3)


class TestSecureLinearLayers:
    def test_conv_with_public_weight(self, ctx, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3)) * 0.5
        out = reconstruct(
            secure_conv2d_public_weight(ctx, share(x, ctx.ring, rng), w, stride=2, padding=1)
        )
        expected = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        np.testing.assert_allclose(out, expected, atol=5e-3)

    def test_public_weight_conv_needs_no_communication(self, ctx, rng):
        x = share(rng.normal(size=(1, 2, 4, 4)), ctx.ring, rng)
        ctx.reset_communication()
        secure_conv2d_public_weight(ctx, x, rng.normal(size=(2, 2, 3, 3)), padding=1)
        assert ctx.communication_bytes == 0

    def test_linear_with_public_weight(self, ctx, rng):
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(4, 6)) * 0.5
        out = reconstruct(secure_linear_public_weight(ctx, share(x, ctx.ring, rng), w))
        np.testing.assert_allclose(out, x @ w.T, atol=5e-3)

    def test_ring_conv_matches_float_conv_for_integers(self, ctx):
        ring = ctx.ring
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        w = np.ones((1, 1, 3, 3))
        out = ring_conv2d(ring, ring.encode(x) , ring.encode(w), padding=1)
        expected = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        np.testing.assert_allclose(ring.decode(ring.truncate_plain(out)), expected, atol=1e-3)

    def test_ring_conv_rejects_channel_mismatch(self, ctx):
        with pytest.raises(ValueError):
            ring_conv2d(
                ctx.ring,
                np.zeros((1, 2, 4, 4), dtype=np.uint64),
                np.zeros((1, 3, 3, 3), dtype=np.uint64),
            )

    def test_fold_batchnorm_equivalence(self, rng):
        w = rng.normal(size=(4, 3, 3, 3))
        bias = rng.normal(size=4)
        scale = rng.uniform(0.5, 2.0, size=4)
        shift = rng.normal(size=4)
        fused_w, fused_b = fold_batchnorm(w, bias, scale, shift)
        x = rng.normal(size=(2, 3, 5, 5))
        plain = F.conv2d(Tensor(x), Tensor(w), Tensor(bias), padding=1).data
        bn_applied = plain * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
        fused = F.conv2d(Tensor(x), Tensor(fused_w), Tensor(fused_b), padding=1).data
        np.testing.assert_allclose(fused, bn_applied, atol=1e-10)
