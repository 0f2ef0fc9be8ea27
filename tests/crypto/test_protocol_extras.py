"""Tests for the auxiliary protocols: secure argmax/max and stand-alone
batch norm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import make_context, reconstruct, share
from repro.crypto.protocols.argmax import secure_argmax, secure_max
from repro.crypto.protocols.normalization import (
    secure_batchnorm_public,
    secure_batchnorm_shared,
)


class TestSecureMaxArgmax:
    def test_secure_max_matches_plaintext(self, ctx, rng):
        x = rng.uniform(-5, 5, size=(4, 6))
        result = reconstruct(secure_max(ctx, share(x, ctx.ring, rng)))
        np.testing.assert_allclose(result, x.max(axis=1), atol=1e-3)

    def test_secure_argmax_indices(self, ctx, rng):
        x = rng.uniform(-5, 5, size=(5, 7))
        indices, max_shares = secure_argmax(ctx, share(x, ctx.ring, rng))
        np.testing.assert_array_equal(indices, x.argmax(axis=1))
        np.testing.assert_allclose(reconstruct(max_shares), x.max(axis=1), atol=1e-3)

    def test_secure_argmax_with_winner_in_first_column(self, ctx, rng):
        x = rng.uniform(-1, 1, size=(3, 4))
        x[:, 0] = 10.0
        indices, _ = secure_argmax(ctx, share(x, ctx.ring, rng))
        np.testing.assert_array_equal(indices, np.zeros(3, dtype=np.int64))

    def test_argmax_cost_scales_with_classes(self, rng):
        x_small = rng.uniform(-1, 1, size=(1, 3))
        x_large = rng.uniform(-1, 1, size=(1, 9))
        ctx_small, ctx_large = make_context(seed=1), make_context(seed=2)
        secure_argmax(ctx_small, share(x_small, ctx_small.ring, rng))
        secure_argmax(ctx_large, share(x_large, ctx_large.ring, rng))
        assert ctx_large.communication_bytes > 2 * ctx_small.communication_bytes


class TestSecureBatchNorm:
    def test_public_affine_matches_plaintext(self, ctx, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        scale = rng.uniform(0.5, 1.5, size=3)
        shift = rng.normal(size=3)
        out = reconstruct(secure_batchnorm_public(ctx, share(x, ctx.ring, rng), scale, shift))
        expected = x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(out, expected, atol=2e-3)

    def test_public_affine_on_2d_features(self, ctx, rng):
        x = rng.normal(size=(4, 6))
        scale = rng.uniform(0.5, 1.5, size=6)
        shift = rng.normal(size=6)
        out = reconstruct(secure_batchnorm_public(ctx, share(x, ctx.ring, rng), scale, shift))
        np.testing.assert_allclose(out, x * scale + shift, atol=2e-3)

    def test_public_affine_needs_no_communication(self, ctx, rng):
        x = share(rng.normal(size=(1, 2, 3, 3)), ctx.ring, rng)
        ctx.reset_communication()
        secure_batchnorm_public(ctx, x, np.ones(2), np.zeros(2))
        assert ctx.communication_bytes == 0

    def test_shared_affine_matches_plaintext(self, ctx, rng):
        x = rng.normal(size=(2, 8))
        scale = rng.uniform(0.5, 1.5, size=(2, 8))
        shift = rng.normal(size=(2, 8))
        out = reconstruct(
            secure_batchnorm_shared(
                ctx,
                share(x, ctx.ring, rng),
                share(scale, ctx.ring, rng),
                share(shift, ctx.ring, rng),
            )
        )
        np.testing.assert_allclose(out, x * scale + shift, atol=5e-3)

    def test_shared_affine_shape_validation(self, ctx, rng):
        x = share(rng.normal(size=(2, 8)), ctx.ring, rng)
        bad = share(rng.normal(size=(8,)), ctx.ring, rng)
        with pytest.raises(ValueError):
            secure_batchnorm_shared(ctx, x, bad, bad)

