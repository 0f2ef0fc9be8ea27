"""Tests for the vectorized randomness-generation stream layout.

The invariant everything rests on: one stacked ``count=k`` draw is
bit-identical to ``k`` per-item draws against the same substream, for every
group kind and both ring widths — so the stacked pool fill and per-item
dealer draws produce the same material at the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import compile_plan
from repro.crypto.dealer import (
    PARTY_FIELDS,
    RandomnessPool,
    TrustedDealer,
    draw_group,
    item_elements,
    random_bytes,
    substream,
    unpack_ring_words,
    words_per_plane,
)
from repro.crypto.andgates import and_table, plane_bytes, unpack_planes
from repro.crypto.ring import DEFAULT_RING, PAPER_RING, FixedPointRing
from repro.crypto.sharing import SharePair
from repro.models.vgg import vgg_tiny
from tests.crypto.test_zoo import CASES as ZOO_CASES
from tests.crypto.test_zoo import _resident_bytes

RINGS = (DEFAULT_RING, PAPER_RING)
CASES = [
    ("triple", (3, 4)),
    ("triple", ()),
    ("square", (2, 5)),
    ("bit", (2, 1, 7)),
    ("bit", (4, 2, 3, 130)),  # spills across several words per plane
    ("dabit", (3, 3)),
]
#: items that skip at least ``_MIN_SKIP_WORDS`` of party 0's unused words
SKIPPING_CASES = [
    ("triple", (2, 2048)),
    ("square", (4096,)),
    ("bit", (2, 1, 262144)),
    ("dabit", (4096,)),
]


def _fresh_group(ring, seed, kind, shape, count):
    """One group drawn from a fresh substream at ``seed``: what a fresh
    dealer at that seed draws for the group."""
    rng = np.random.default_rng(substream(seed, ring, kind, shape))
    return draw_group(ring, rng, kind, shape, count)


class TestSplitTransparency:
    @pytest.mark.parametrize("ring", RINGS, ids=["r64", "r32"])
    @pytest.mark.parametrize("kind,shape", CASES)
    def test_stacked_draw_equals_per_item_draws(self, ring, kind, shape):
        count = 9
        stream = substream(11, ring, kind, shape)
        stacked = draw_group(ring, np.random.default_rng(stream), kind, shape, count)
        rng = np.random.default_rng(stream)
        singles = [draw_group(ring, rng, kind, shape, 1) for _ in range(count)]
        for name in stacked:
            merged = np.concatenate([one[name] for one in singles])
            assert np.array_equal(stacked[name], merged), (kind, shape, name)

    @pytest.mark.parametrize("kind,shape", CASES)
    def test_zero_count_draws_empty_stacks(self, kind, shape):
        arrays = _fresh_group(DEFAULT_RING, 0, kind, shape, 0)
        for name, array in arrays.items():
            if kind == "bit":  # one packed row per plane of the combine's table
                planes = len(and_table(shape[0], shape[1]).subsets)
                assert array.shape == (0, planes, plane_bytes(shape[2:]))
            else:
                assert array.shape == (0,) + shape

    @pytest.mark.parametrize("ring", RINGS, ids=["r64", "r32"])
    @pytest.mark.parametrize("kind,shape", CASES)
    def test_lazy_dealer_matches_stacked_group(self, ring, kind, shape):
        """``k`` dealer draws are rows ``0..k-1`` of one stacked draw, field by
        field, and a pool holding that stack serves the same rows as views."""
        count = 4
        stacked = _fresh_group(ring, 5, kind, shape, count)
        dealer, pool = TrustedDealer(ring, seed=5), RandomnessPool(ring)
        pool.install_group(kind, shape, stacked)
        for row in range(count):
            for source in (dealer, pool):
                fields = _fields(source.draw(kind, shape))
                assert fields.keys() == stacked.keys()
                for name, value in fields.items():
                    assert np.array_equal(value, stacked[name][row]), (source, row, name)
                    if source is pool and shape:
                        assert np.shares_memory(value, stacked[name]), (row, name)
        assert dealer.generated == {kind: count * item_elements(kind, shape)}


def _fields(item):
    """An item's arrays by group field name: a share pair's stem gains the
    share index, a bit plane keeps its name."""
    fields = {}
    for stem, value in item.items():
        if isinstance(value, SharePair):
            fields[stem + "0"], fields[stem + "1"] = value.share0, value.share1
        else:
            fields[stem] = value
    return fields


class TestWordsPerElement:
    @pytest.mark.parametrize("ring_bits", [64, 32, 20])
    def test_elements_consume_whole_words_only_above_32_bits(self, ring_bits):
        """``n`` elements of a ring draw take ``n`` 64-bit words on a ring
        wider than 32 bits, and ``ceil(n / 2)`` on one of 32 bits or less —
        an odd element's other half is buffered in the bit generator.  Party
        0's skipped spans (``bit_generator.advance``) rest on the first."""
        ring = FixedPointRing(ring_bits=ring_bits, frac_bits=8)
        for n in (1, 5, 6):
            drawn = np.random.default_rng(3)
            ring.random((n,), drawn)
            words = n if ring_bits > 32 else (n + 1) // 2
            skipped = np.random.default_rng(3)
            skipped.bit_generator.advance(words)
            assert drawn.bit_generator.state["state"] == skipped.bit_generator.state["state"]
            assert drawn.bit_generator.state["has_uint32"] == (ring_bits <= 32 and n % 2)


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
        ):
            assert not np.array_equal(base, other.generate_state(4))
        with pytest.raises(TypeError):  # a substream belongs to one shape
            substream(7, DEFAULT_RING, "triple", (2, 2), (3,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown randomness kind"):
            substream(0, DEFAULT_RING, "nonsense", (1,))
        with pytest.raises(ValueError, match="unknown randomness kind"):
            draw_group(DEFAULT_RING, np.random.default_rng(0), "nonsense", (1,), 1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 0"):
            draw_group(DEFAULT_RING, np.random.default_rng(0), "triple", (2,), -1)


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

    @pytest.mark.parametrize("ring_bits", [64, 32, 20])
    def test_random_bytes_are_the_packed_bit_plane(self, ring_bits):
        """A whole-byte ring's words cut into low bytes give the same bytes
        as packing the :func:`unpack_ring_words` plane, bit for bit."""
        ring = FixedPointRing(ring_bits=ring_bits, frac_bits=8)
        count = 3 * ring_bits // 8 + 3
        words = ring.random((4, words_per_plane(ring, 8 * count)), np.random.default_rng(10))
        plane = unpack_ring_words(words, ring, 8 * count)
        expected = np.packbits(plane, axis=-1, bitorder="little")
        np.testing.assert_array_equal(random_bytes(words, ring, count), expected)

    def test_zero_count(self):
        assert words_per_plane(DEFAULT_RING, 0) == 0
        out = unpack_ring_words(np.zeros((4, 0), dtype=np.uint64), DEFAULT_RING, 0)
        assert out.shape == (4, 0)


class TestCorrelations:
    """The generated material satisfies its defining algebraic relation."""

    @pytest.mark.parametrize("ring", RINGS, ids=["r64", "r32"])
    def test_triple_and_square_relations(self, ring):
        arrays = _fresh_group(ring, 3, "triple", (4, 4), 8)
        a = ring.wrap(arrays["a0"] + arrays["a1"])
        b = ring.wrap(arrays["b0"] + arrays["b1"])
        z = ring.wrap(arrays["z0"] + arrays["z1"])
        assert np.array_equal(z, ring.wrap(ring.mul(a, b)))
        arrays = _fresh_group(ring, 3, "square", (4, 4), 8)
        a = ring.wrap(arrays["a0"] + arrays["a1"])
        z = ring.wrap(arrays["z0"] + arrays["z1"])
        assert np.array_equal(z, ring.wrap(ring.mul(a, a)))

    @pytest.mark.parametrize("radix,outputs", [(2, 1), (2, 2), (3, 1), (4, 2), (8, 1)])
    def test_and_item_and_dabit_relations(self, radix, outputs):
        """Plane ``p`` of an AND item reconstructs to the product of the
        masks in ``subsets[p]``; the first ``inputs`` planes are the masks."""
        ring = DEFAULT_RING
        table = and_table(radix, outputs)
        arrays = _fresh_group(ring, 4, "bit", (radix, outputs, 100), 6)
        assert arrays["lam0"].shape == (6, len(table.subsets), 13)
        lam = unpack_planes(arrays["lam0"] ^ arrays["lam1"], (100,))
        assert set(np.unique(lam)) <= {0, 1}
        masks = lam[:, : table.inputs]
        for plane, subset in enumerate(table.subsets):
            chosen = [i for i in range(table.inputs) if subset >> i & 1]
            assert np.array_equal(lam[:, plane], np.bitwise_and.reduce(masks[:, chosen], axis=1))
        assert 0.45 < masks.mean() < 0.55
        arrays = _fresh_group(ring, 4, "dabit", (100,), 6)
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


class TestDealerPoolFill:
    """``TrustedDealer.preprocess`` is the one pool producer: its pool at a
    seed is fully determined by the manifest and that seed."""

    @pytest.mark.parametrize("ring", RINGS, ids=["r64", "r32"])
    def test_each_group_is_one_draw_from_its_fresh_substream(self, ring):
        manifest = compile_plan(vgg_tiny(input_size=8), batch_size=2, ring=ring).manifest
        pool = TrustedDealer(ring, seed=17).preprocess(manifest)
        assert pool.manifest_hash == manifest.content_hash
        for kind, shape, count in manifest.grouped_requests():
            stacks = pool.group(kind, shape)
            expected = _fresh_group(ring, 17, kind, shape, count)
            assert stacks.keys() == expected.keys()
            for name in expected:
                assert np.array_equal(stacks[name], expected[name]), (kind, shape, name)

    def test_pool_is_a_pure_function_of_the_seed(self):
        manifest = compile_plan(vgg_tiny(input_size=8), batch_size=2).manifest
        first, again, other = (
            TrustedDealer(DEFAULT_RING, seed=seed).preprocess(manifest)
            for seed in (3, 3, 4)
        )
        kind, shape, _count = manifest.grouped_requests()[0]
        for name, stack in first.group(kind, shape).items():
            assert np.array_equal(stack, again.group(kind, shape)[name])
        field = PARTY_FIELDS[kind][0][0]
        assert not np.array_equal(first.group(kind, shape)[field], other.group(kind, shape)[field])

    def test_pool_holds_exactly_the_manifest_material(self):
        manifest = compile_plan(vgg_tiny(input_size=8), batch_size=2).manifest
        pool = TrustedDealer(DEFAULT_RING, seed=0).preprocess(manifest)
        held = sum(
            stack.nbytes
            for kind, shape, _count in manifest.grouped_requests()
            for stack in pool.group(kind, shape).values()
        )
        assert held == manifest.material_bytes > 0
        assert pool.remaining == len(manifest.requests)


class TestPartyRestriction:
    def test_restrict_group_arrays_zeroes_only_other_world(self):
        """``RandomnessPool.restrict_to_party`` swaps the other party's
        stacks for read-only zero placeholders and keeps this party's values,
        copied out of the multi-lane draw they were views into."""
        arrays = _fresh_group(DEFAULT_RING, 1, "triple", (2,), 3)
        kept = {name: arrays[name].copy() for name in PARTY_FIELDS["triple"][0]}
        pool = RandomnessPool(DEFAULT_RING)
        pool.install_group("triple", (2,), arrays)
        assert pool.restrict_to_party(0) is pool
        assert pool.group("triple", (2,)) is arrays  # the same group dict
        for name in PARTY_FIELDS["triple"][0]:
            assert np.array_equal(arrays[name], kept[name])
            assert arrays[name].base is None  # the 5-lane draw is no longer pinned
        for name in PARTY_FIELDS["triple"][1]:
            assert not arrays[name].any() and not arrays[name].flags.writeable
            assert arrays[name].shape == (3, 2) and not any(arrays[name].strides)
        item = pool.draw("triple", (2,))  # a row view
        assert np.array_equal(item["a"].share0, kept["a0"][0]) and not item["a"].share1.any()

    @pytest.mark.parametrize("party", [0, 1])
    def test_restricted_pool_keeps_its_world_bit_for_bit(self, party):
        """A party's pool is the dealer's pool at the same seed with only the
        other share-world released, for every group of a real manifest."""
        manifest = compile_plan(vgg_tiny(input_size=8), batch_size=2).manifest
        full = TrustedDealer(DEFAULT_RING, seed=9).preprocess(manifest)
        mine = TrustedDealer(DEFAULT_RING, seed=9).preprocess(manifest)
        mine.restrict_to_party(party)
        assert mine.restricted_to == party
        assert mine.manifest_hash == full.manifest_hash
        for kind, shape, _count in manifest.grouped_requests():
            ours = mine.group(kind, shape)
            theirs = full.group(kind, shape)
            for name in PARTY_FIELDS[kind][party]:
                assert np.array_equal(ours[name], theirs[name]), (kind, shape, name)
            for name in PARTY_FIELDS[kind][1 - party]:
                assert not ours[name].any(), (kind, shape, name)
                assert ours[name].shape == theirs[name].shape

    @pytest.mark.parametrize("ring_bits", [64, 40, 32, 20])
    @pytest.mark.parametrize("party", [0, 1])
    @pytest.mark.parametrize("kind,shape", CASES + SKIPPING_CASES)
    def test_party_draw_leaves_the_stream_where_the_full_draw_does(
        self, kind, shape, party, ring_bits
    ):
        """Small items draw whole and big ones skip party 0's unused spans
        (rings wider than 32 bits); either way the stream ends up where the
        full draw leaves it."""
        ring = FixedPointRing(ring_bits=ring_bits, frac_bits=8)
        stream = substream(4, ring, kind, shape)
        full_rng, own_rng = np.random.default_rng(stream), np.random.default_rng(stream)
        for count in (3, 1, 0, 2):
            full = draw_group(ring, full_rng, kind, shape, count)
            own = draw_group(ring, own_rng, kind, shape, count, party)
            assert own.keys() == full.keys()
            for name in PARTY_FIELDS[kind][party]:
                assert np.array_equal(own[name], full[name]), (count, name)
                assert own[name].dtype == full[name].dtype
            for name in PARTY_FIELDS[kind][1 - party]:
                assert own[name].shape == full[name].shape and not any(own[name].strides)
            assert own_rng.bit_generator.state == full_rng.bit_generator.state

    @pytest.mark.parametrize("ring", RINGS, ids=["r64", "r32"])
    @pytest.mark.parametrize("party", [0, 1])
    @pytest.mark.parametrize("build,polynomial,batch", ZOO_CASES)
    def test_party_preprocess_is_the_restricted_full_pool(
        self, build, polynomial, batch, party, ring, monkeypatch
    ):
        """``preprocess(plan, party=p)`` draws only party ``p``'s world,
        bit-identical to restricting the full pool, on every zoo plan — and
        a second pool from the same dealer still matches, so the skipped
        words leave every substream where the full draw leaves it.  Party 0
        skips every span it does not hold here, however small."""
        monkeypatch.setattr("repro.crypto.dealer._MIN_SKIP_WORDS", 0)
        spec = build(input_size=8)
        if polynomial:
            spec = spec.with_all_polynomial()
        manifest = compile_plan(spec, batch_size=batch, ring=ring).manifest
        full_dealer, own_dealer = TrustedDealer(ring, seed=5), TrustedDealer(ring, seed=5)
        for _ in range(2):
            full = full_dealer.preprocess(manifest).restrict_to_party(party)
            own = own_dealer.preprocess(manifest, party=party)
            assert own.restricted_to == party
            assert own.manifest_hash == full.manifest_hash
            assert own.remaining == full.remaining == len(manifest.requests)
            for kind, shape, _count in manifest.grouped_requests():
                ours, theirs = own.group(kind, shape), full.group(kind, shape)
                assert ours.keys() == theirs.keys()
                for name in ours:
                    assert ours[name].dtype == theirs[name].dtype, (kind, shape, name)
                    assert np.array_equal(ours[name], theirs[name]), (kind, shape, name)
                for name in PARTY_FIELDS[kind][1 - party]:
                    assert not ours[name].flags.writeable and not any(ours[name].strides)
            # ring elements are stored as uint64, so a 32-bit ring pins more
            # than its manifest's wire-width bytes — as much as restriction
            assert _resident_bytes(own) == _resident_bytes(full)
            if ring.ring_bits == 64:
                assert _resident_bytes(own) == manifest.material_bytes // 2
        assert own_dealer._streams.keys() == full_dealer._streams.keys()
        for key, rng in own_dealer._streams.items():
            assert rng.bit_generator.state == full_dealer._streams[key].bit_generator.state
        assert own_dealer.generated == full_dealer.generated

    def test_restrict_rejects_bad_inputs(self):
        pool = RandomnessPool(DEFAULT_RING)
        pool.install_group("triple", (2,), _fresh_group(DEFAULT_RING, 1, "triple", (2,), 1))
        with pytest.raises(ValueError, match="party must be 0 or 1"):
            pool.restrict_to_party(2)
        pool.restrict_to_party(0)
        with pytest.raises(ValueError, match="already restricted to party 0"):
            pool.restrict_to_party(1)


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
        b = RandomnessRequest(kind="bit", shape=(2, 1, 5))
        manifest = PreprocessingManifest(requests=(t, b, t, b, t), ring=DEFAULT_RING)
        assert manifest.grouped_requests() == [
            ("triple", (2,), 3),
            ("bit", (2, 1, 5), 2),
        ]
