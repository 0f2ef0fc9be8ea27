"""Tests for the vectorized randomness-generation stream layout.

The invariant everything rests on: one stacked ``count=k`` draw is
bit-identical to ``k`` per-item draws against the same substream, for every
group kind and both ring widths — so the stacked pool fill, the lazy dealer
and a factory process all produce the same material at the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import compile_plan
from repro.crypto.dealer import TrustedDealer
from repro.crypto.ring import DEFAULT_RING, PAPER_RING
from repro.models.vgg import vgg_tiny
from repro.offline.generation import (
    GROUP_FIELDS,
    PARTY_FIELDS,
    draw_group,
    generate_group,
    restrict_group_arrays,
    substream,
    unpack_ring_words,
    words_per_plane,
)

RINGS = (DEFAULT_RING, PAPER_RING)
CASES = [
    ("triple", (3, 4)),
    ("triple", ()),
    ("square", (2, 5)),
    ("bit", (7,)),
    ("bit", (4, 130)),  # spills across several words per plane
    ("dabit", (3, 3)),
    ("shared-bit", (6,)),
    ("shared-ring", (2, 2)),
]


class TestSplitTransparency:
    @pytest.mark.parametrize("ring", RINGS, ids=["r64", "r32"])
    @pytest.mark.parametrize("kind,shape", CASES)
    def test_stacked_draw_equals_per_item_draws(self, ring, kind, shape):
        count = 9
        stream = substream(11, ring, kind, shape)
        stacked = draw_group(ring, np.random.default_rng(stream), kind, shape, count)
        rng = np.random.default_rng(stream)
        singles = [draw_group(ring, rng, kind, shape, 1) for _ in range(count)]
        for name in GROUP_FIELDS[kind]:
            merged = np.concatenate([one[name] for one in singles])
            assert np.array_equal(stacked[name], merged), (kind, shape, name)

    @pytest.mark.parametrize("kind,shape", CASES)
    def test_zero_count_draws_empty_stacks(self, kind, shape):
        arrays = generate_group(DEFAULT_RING, 0, kind, shape, 0)
        for name in GROUP_FIELDS[kind]:
            assert arrays[name].shape == (0,) + shape

    def test_lazy_dealer_matches_stacked_group(self):
        """Per-item lazy draws on a dealer == one stacked factory draw."""
        shape = (2, 3)
        dealer = TrustedDealer(DEFAULT_RING, seed=5)
        lazy = [dealer.elementwise_triple(shape) for _ in range(4)]
        stacked = generate_group(DEFAULT_RING, 5, "triple", shape, 4)
        for i, item in enumerate(lazy):
            assert np.array_equal(item.a.share0, stacked["a0"][i])
            assert np.array_equal(item.b.share1, stacked["b1"][i])
            assert np.array_equal(item.z.share0, stacked["z0"][i])


class TestSubstreams:
    def test_substream_is_deterministic_and_domain_separated(self):
        base = substream(7, DEFAULT_RING, "triple", (2, 2)).generate_state(4)
        again = substream(7, DEFAULT_RING, "triple", (2, 2)).generate_state(4)
        assert np.array_equal(base, again)
        for other in (
            substream(8, DEFAULT_RING, "triple", (2, 2)),
            substream(7, PAPER_RING, "triple", (2, 2)),
            substream(7, DEFAULT_RING, "square", (2, 2)),
            substream(7, DEFAULT_RING, "triple", (4,)),
            substream(7, DEFAULT_RING, "triple", (2, 2), (3,)),
        ):
            assert not np.array_equal(base, other.generate_state(4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown randomness kind"):
            substream(0, DEFAULT_RING, "nonsense", (1,))
        with pytest.raises(ValueError, match="unknown randomness kind"):
            draw_group(DEFAULT_RING, np.random.default_rng(0), "nonsense", (1,), 1)


class TestBitUnpacking:
    @pytest.mark.parametrize("ring", RINGS, ids=["r64", "r32"])
    def test_unpack_matches_manual_bit_extraction(self, ring):
        count = 2 * ring.ring_bits + 5
        planes = words_per_plane(ring, count)
        words = ring.random((3, planes), np.random.default_rng(9))
        bits = unpack_ring_words(words, ring, count)
        assert bits.shape == (3, count)
        assert bits.dtype == np.uint8
        for row in range(3):
            for j in range(count):
                word = int(words[row, j // ring.ring_bits])
                assert bits[row, j] == (word >> (j % ring.ring_bits)) & 1

    def test_zero_count(self):
        assert words_per_plane(DEFAULT_RING, 0) == 0
        out = unpack_ring_words(np.zeros((4, 0), dtype=np.uint64), DEFAULT_RING, 0)
        assert out.shape == (4, 0)


class TestCorrelations:
    """The generated material satisfies its defining algebraic relation."""

    @pytest.mark.parametrize("ring", RINGS, ids=["r64", "r32"])
    def test_triple_and_square_relations(self, ring):
        arrays = generate_group(ring, 3, "triple", (4, 4), 8)
        a = ring.wrap(arrays["a0"] + arrays["a1"])
        b = ring.wrap(arrays["b0"] + arrays["b1"])
        z = ring.wrap(arrays["z0"] + arrays["z1"])
        assert np.array_equal(z, ring.wrap(ring.mul(a, b)))
        arrays = generate_group(ring, 3, "square", (4, 4), 8)
        a = ring.wrap(arrays["a0"] + arrays["a1"])
        z = ring.wrap(arrays["z0"] + arrays["z1"])
        assert np.array_equal(z, ring.wrap(ring.mul(a, a)))

    def test_bit_triple_and_dabit_relations(self):
        ring = DEFAULT_RING
        arrays = generate_group(ring, 4, "bit", (100,), 6)
        a = arrays["a0"] ^ arrays["a1"]
        b = arrays["b0"] ^ arrays["b1"]
        c = arrays["c0"] ^ arrays["c1"]
        assert np.array_equal(c, a & b)
        assert set(np.unique(a)) <= {0, 1}
        arrays = generate_group(ring, 4, "dabit", (100,), 6)
        r = arrays["r0"] ^ arrays["r1"]
        arith = ring.wrap(arrays["arith0"] + arrays["arith1"])
        assert np.array_equal(arith, r.astype(np.uint64))


class TestPreprocessEquivalence:
    def test_preprocess_accepts_manifest_directly(self):
        plan = compile_plan(vgg_tiny(input_size=8), batch_size=1)
        from_plan = TrustedDealer(DEFAULT_RING, seed=2).preprocess(plan)
        from_manifest = TrustedDealer(DEFAULT_RING, seed=2).preprocess(plan.manifest)
        assert from_plan.manifest_hash == from_manifest.manifest_hash
        assert from_plan.remaining == from_manifest.remaining


class TestPartyRestriction:
    def test_restrict_group_arrays_zeroes_only_other_world(self):
        arrays = generate_group(DEFAULT_RING, 1, "triple", (2,), 3)
        restricted = restrict_group_arrays(arrays, "triple", 0)
        for name in PARTY_FIELDS["triple"][0]:
            assert restricted[name] is arrays[name]  # pass-through, no copy
        for name in PARTY_FIELDS["triple"][1]:
            assert not restricted[name].any()
            assert restricted[name].shape == arrays[name].shape

    def test_restrict_rejects_bad_inputs(self):
        arrays = generate_group(DEFAULT_RING, 1, "triple", (2,), 1)
        with pytest.raises(ValueError, match="party must be 0 or 1"):
            restrict_group_arrays(arrays, "triple", 2)
        with pytest.raises(ValueError, match="no party-restricted form"):
            restrict_group_arrays(arrays, "shared-ring", 0)


class TestManifestIdentity:
    def test_content_hash_depends_on_material_not_interleaving(self):
        from repro.crypto.plan import PreprocessingManifest
        from repro.crypto.protocols.registry import RandomnessRequest

        t = RandomnessRequest(kind="triple", shape=(2, 2))
        s = RandomnessRequest(kind="square", shape=(3,))
        a = PreprocessingManifest(requests=(t, s, t), ring=DEFAULT_RING)
        b = PreprocessingManifest(requests=(t, t, s), ring=DEFAULT_RING)
        assert a.content_hash == b.content_hash
        c = PreprocessingManifest(requests=(t, s), ring=DEFAULT_RING)
        d = PreprocessingManifest(requests=(t, s, t), ring=PAPER_RING)
        assert len({a.content_hash, c.content_hash, d.content_hash}) == 3

    def test_grouped_requests_first_occurrence_order(self):
        from repro.crypto.plan import PreprocessingManifest
        from repro.crypto.protocols.registry import RandomnessRequest

        t = RandomnessRequest(kind="triple", shape=(2,))
        b = RandomnessRequest(kind="bit", shape=(5,))
        manifest = PreprocessingManifest(requests=(t, b, t, b, t), ring=DEFAULT_RING)
        assert manifest.grouped_requests() == [
            ("triple", (2,), 3),
            ("bit", (5,), 2),
        ]
