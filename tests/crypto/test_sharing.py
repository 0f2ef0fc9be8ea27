"""Tests for additive secret sharing and local share algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ring import DEFAULT_RING, PAPER_RING
from repro.crypto.sharing import (
    SharePair,
    add_public,
    add_shares,
    reconstruct,
    reconstruct_ring,
    scale_shares,
    share,
    share_ring_elements,
    sub_shares,
)


class TestShareReconstruct:
    def test_round_trip(self, rng):
        values = rng.uniform(-20, 20, size=(3, 4))
        pair = share(values, DEFAULT_RING, rng)
        np.testing.assert_allclose(reconstruct(pair), values, atol=1e-4)

    def test_individual_shares_look_uniform(self, rng):
        values = np.zeros((2000,))
        pair = share(values, PAPER_RING, rng)
        # A share of an all-zeros secret still spans the whole ring.
        assert pair.share0.max() > 0.9 * PAPER_RING.modulus
        assert pair.share0.min() < 0.1 * PAPER_RING.modulus

    def test_two_sharings_of_same_secret_differ(self, rng):
        values = np.ones((16,))
        first = share(values, DEFAULT_RING, rng)
        second = share(values, DEFAULT_RING, rng)
        assert not np.array_equal(first.share0, second.share0)
        np.testing.assert_allclose(reconstruct(first), reconstruct(second), atol=1e-4)

    def test_share_ring_elements_round_trip(self, rng):
        elements = DEFAULT_RING.random((7,), rng)
        pair = share_ring_elements(elements, DEFAULT_RING, rng)
        np.testing.assert_array_equal(reconstruct_ring(pair), elements)

    def test_share_pair_shape_validation(self):
        with pytest.raises(ValueError):
            SharePair(np.zeros(3, dtype=np.uint64), np.zeros(4, dtype=np.uint64))


class TestLocalAlgebra:
    def test_addition(self, rng):
        x = rng.normal(size=(5,))
        y = rng.normal(size=(5,))
        out = add_shares(share(x, DEFAULT_RING, rng), share(y, DEFAULT_RING, rng))
        np.testing.assert_allclose(reconstruct(out), x + y, atol=1e-4)

    def test_subtraction(self, rng):
        x = rng.normal(size=(5,))
        y = rng.normal(size=(5,))
        out = sub_shares(share(x, DEFAULT_RING, rng), share(y, DEFAULT_RING, rng))
        np.testing.assert_allclose(reconstruct(out), x - y, atol=1e-4)

    def test_add_public_constant(self, rng):
        x = rng.normal(size=(4,))
        out = add_public(share(x, DEFAULT_RING, rng), np.array(2.5))
        np.testing.assert_allclose(reconstruct(out), x + 2.5, atol=1e-4)

    def test_scale_by_real_scalar(self, rng):
        x = rng.uniform(-5, 5, size=(6,))
        out = scale_shares(share(x, DEFAULT_RING, rng), 0.25)
        np.testing.assert_allclose(reconstruct(out), 0.25 * x, atol=1e-3)

    def test_mixed_ring_rejected(self, rng):
        a = share(np.ones(3), DEFAULT_RING, rng)
        b = share(np.ones(3), PAPER_RING, rng)
        with pytest.raises(ValueError):
            add_shares(a, b)

    def test_eq1_linear_combination(self, rng):
        """The paper's Eq. 1: [aX + Y] computed locally from [X], [Y]."""
        x = rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3))
        a = 3.0
        combined = add_shares(
            scale_shares(share(x, DEFAULT_RING, rng), a), share(y, DEFAULT_RING, rng)
        )
        np.testing.assert_allclose(reconstruct(combined), a * x + y, atol=1e-3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_sharing_is_additively_homomorphic(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50, 50, size=(4,))
    y = rng.uniform(-50, 50, size=(4,))
    out = add_shares(share(x, DEFAULT_RING, rng), share(y, DEFAULT_RING, rng))
    np.testing.assert_allclose(reconstruct(out), x + y, atol=1e-3)
