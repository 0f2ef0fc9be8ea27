"""Trusted dealer for correlated randomness (offline phase).

The online 2PC protocols consume four kinds of correlated randomness:
Beaver triples (``triple``, for the elementwise product of Eq. 2), Beaver
pairs (``square``, Eq. 3), multi-input AND items (``bit``: XOR shares of a
comparison-tree combine's mask planes, bit-packed) and daBits (``dabit``: a
random bit ``r`` both XOR- and additively shared, next to shares of a random
``a`` and of ``r·a``, for the one-round ReLU/MaxPool multiplexer).
In deployments this correlated randomness is produced by an OT-based or
HE-based offline phase; the paper (like CrypTen and Delphi) separates it
from the online latency it reports, so the reproduction models it as a local
dealer.  The dealer never sees the secret inputs — it only outputs shares of
random correlated values.

A compiled plan runs only against a :class:`RandomnessPool`:
:meth:`TrustedDealer.preprocess` draws every request of the plan's manifest
up front, and the online phase serves from the pool without a single
generation call — the executable counterpart of the offline/online split of
Fig. 3.  Dealer and pool share one verb, ``draw(kind, shape)``: a protocol
called on its own (outside a plan) draws its items from the dealer one at a
time, a plan's ops pop theirs from the pool.  An item is the row of its
group keyed by field stem (:data:`PARTY_FIELDS`): each ring-word share pair
one :class:`~repro.crypto.sharing.SharePair` (``a``, ``b``, ``z``,
``arith``, ``ra``), each bit plane its two arrays (``lam0``/``lam1``,
``r0``/``r1``).

Stream layout
-------------

- every (kind, shape) group draws from its own seeded **substream**
  (:func:`substream`), derived deterministically from ``(seed, ring, kind,
  shape)`` via :class:`numpy.random.SeedSequence` — so the order in which
  different groups generate is irrelevant to the bits each group produces;
- within a substream, each item's material is exactly **one** fixed-shape
  ``uint64`` draw.  NumPy's ``Generator.integers`` with a 64-bit dtype
  consumes one 64-bit word per element on a ring wider than 32 bits; on a
  ring of 32 bits or less it consumes one 32-bit half per element and
  buffers the other half in the bit generator (6 elements take 3 words).
  Either way the stream does not depend on how calls are split, so ``k``
  per-item draws and one stacked ``(k, ...)`` draw yield bit-identical
  arrays.  (8-bit draws do *not* have this property — which is why random
  bits are drawn as ring words and unpacked, never as ``uint8`` streams.)
- the draw is cut into named spans (:func:`_layout`): party 0's share of
  each correlated value is a span and party 1's is the correction, so a
  party process draws only its own share-world (``preprocess(plan,
  party=p)``); party 0 skips the spans it does not hold where a span's
  word count is known (rings wider than 32 bits) and the item is large.

So ``preprocess`` draws each group as one stacked generator call and is
still bit-identical to per-item draws at the same seed.  A group is a dict
of stacked share arrays — e.g. the ``a0`` shares of 64 triples of shape
``(4, 4)`` form one ``(64, 4, 4)`` array — and an item is a set of row
views into it, so party restriction operates on whole stacks, never items.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.andgates import and_table, and_terms, plane_bytes
from repro.crypto.kernels import dead_lane
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.sharing import SharePair

#: domain-separation tag of the stream layout (first SeedSequence word)
STREAM_DOMAIN = 0x0FF1D0

_KIND_IDS = {
    "triple": 1,
    "square": 2,
    "bit": 3,
    "dabit": 4,
}

#: group fields held by party 0 / party 1 (the rest is the other share-world)
PARTY_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "triple": (("a0", "b0", "z0"), ("a1", "b1", "z1")),
    "square": (("a0", "z0"), ("a1", "z1")),
    "bit": (("lam0",), ("lam1",)),
    "dabit": (("r0", "arith0", "a0", "ra0"), ("r1", "arith1", "a1", "ra1")),
}

#: a pool's group key: (kind, item shape)
GroupKey = Tuple[str, Tuple[int, ...]]


def numel(shape: Tuple[int, ...]) -> int:
    """Number of elements of one item of the given shape (scalar -> 1)."""
    return int(math.prod(shape))


def item_elements(kind: str, shape: Tuple[int, ...]) -> int:
    """Elements of one item: an AND item of shape ``(radix, outputs) + S``
    counts its mask and mask-product bits per party, every other kind its
    shape's elements."""
    if kind == "bit":
        if len(shape) < 2:
            raise ValueError("an AND item's shape leads with its radix and output count")
        return len(and_terms(shape[0], shape[1])[2]) * numel(shape[2:])
    return numel(shape)


def substream(
    seed: int, ring: FixedPointRing, kind: str, shape: Tuple[int, ...]
) -> np.random.SeedSequence:
    """The seeded substream of one (kind, shape) group.

    Domain-separated on the base seed, the ring parameters, the kind and
    the item shape, so every group owns an independent deterministic
    stream and generation order across groups cannot change the bits.
    """
    if kind not in _KIND_IDS:
        raise ValueError(f"unknown randomness kind {kind!r}")
    entropy = [STREAM_DOMAIN, int(seed), ring.ring_bits, ring.frac_bits, _KIND_IDS[kind]]
    return np.random.SeedSequence(entropy + [len(shape), *(int(dim) for dim in shape)])


def words_per_plane(ring: FixedPointRing, count: int) -> int:
    """Ring words needed to carry ``count`` random bits (one plane)."""
    return math.ceil(count / ring.ring_bits) if count else 0


def unpack_ring_words(words: np.ndarray, ring: FixedPointRing, count: int) -> np.ndarray:
    """Unpack uniformly random ring words into ``count`` uniform bits.

    ``words`` has shape ``(..., W)``; the result has shape ``(..., count)``
    and dtype ``uint8`` with values in {0, 1}.  Bit ``j`` of the plane is
    bit ``j % ring_bits`` of word ``j // ring_bits`` — every kept bit of a
    uniform ring element is itself uniform, so the plane is uniform.  The
    plane owns its memory, so a pool holding it never pins ``words``.
    """
    lead = words.shape[:-1]
    if count == 0 or words.size == 0:
        return np.zeros(lead + (count,), dtype=np.uint8)
    little = np.ascontiguousarray(words.astype("<u8", copy=False))
    as_bytes = little.view(np.uint8).reshape(words.shape + (8,))
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")  # (..., W, 64)
    bits = bits[..., : ring.ring_bits].reshape(lead + (words.shape[-1] * ring.ring_bits,))
    return bits[..., :count].copy()


def random_bytes(words: np.ndarray, ring: FixedPointRing, count: int) -> np.ndarray:
    """``count`` uniformly random bytes per row of ring words ``(..., W)``:
    the :func:`unpack_ring_words` plane of ``8 * count`` bits, packed in
    little bit order (a whole-byte ring's words are simply cut into their
    low bytes, copied out so that ``words`` is never pinned)."""
    if ring.ring_bits % 8:
        return np.packbits(unpack_ring_words(words, ring, 8 * count), axis=-1, bitorder="little")
    little = np.ascontiguousarray(words.astype("<u8", copy=False)).view(np.uint8)
    low = little.reshape(words.shape + (8,))[..., : ring.ring_bits // 8]
    flat = low.reshape(words.shape[:-1] + (words.shape[-1] * (ring.ring_bits // 8),))
    return flat[..., :count].copy()


# --------------------------------------------------------------------------- #
# Per-kind item layouts: an item's one uint64 draw cut into named spans.
# Party 0's share of each correlated value is a decoded span; party 1's is
# the correction computed from all of them.
# --------------------------------------------------------------------------- #
#: one span of an item's draw: (name, words, decode of its (count, words) block)
_Span = Tuple[str, int, Callable[[np.ndarray], np.ndarray]]


@functools.lru_cache(maxsize=256)
def _layout(ring: FixedPointRing, kind: str, shape: Tuple[int, ...]) -> Tuple[_Span, ...]:
    """The spans of one item's draw of a (kind, shape) group, in draw order."""
    n = numel(shape)

    def ring_words(block: np.ndarray) -> np.ndarray:
        return block.reshape(block.shape[:1] + shape)

    if kind == "triple":
        return tuple((name, n, ring_words) for name in ("a", "b", "a0", "b0", "z0"))
    if kind == "square":
        return tuple((name, n, ring_words) for name in ("a", "a0", "z0"))
    if kind == "bit":
        table, width = and_table(shape[0], shape[1]), plane_bytes(shape[2:])

        def byte_planes(count: int) -> Tuple[int, Callable[[np.ndarray], np.ndarray]]:
            def decode(block: np.ndarray) -> np.ndarray:
                return random_bytes(block, ring, count * width).reshape((len(block), count, width))

            return words_per_plane(ring, 8 * count * width), decode

        # the opened inputs' masks, then party 0's share of every product plane
        return (("masks", *byte_planes(table.inputs)), ("lam0", *byte_planes(len(table.subsets))))
    if kind == "dabit":
        def bits(block: np.ndarray) -> np.ndarray:
            return unpack_ring_words(block, ring, n).reshape(block.shape[:1] + shape)

        planes = words_per_plane(ring, n)
        return (("r", planes, bits), ("r0", planes, bits)) + tuple(
            (name, n, ring_words) for name in ("a", "arith0", "a0", "ra0")
        )
    raise ValueError(f"unknown randomness kind {kind!r}")


def material_bytes(
    ring: FixedPointRing, kind: str, shape: Tuple[int, ...], word_bytes: int = 0
) -> int:
    """Bytes of randomness material the dealer ships for one item.

    A Beaver triple is three shared tensors (two shares each), a square
    pair two, an AND item two shares of each plane packed eight bits a
    byte, a daBit one bit byte plus three ring elements (``r``, ``a``,
    ``r·a``) per party.  A ring element counts ``word_bytes``, by default
    its wire width.
    """
    eb = word_bytes or ring.ring_bits // 8
    if kind == "bit":
        return 2 * len(and_terms(shape[0], shape[1])[2]) * plane_bytes(shape[2:])
    return 2 * numel(shape) * {"triple": 3 * eb, "square": 2 * eb, "dabit": 1 + 3 * eb}[kind]


def _world1(
    ring: FixedPointRing, kind: str, shape: Tuple[int, ...], v: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Party 1's fields: each correlated value less party 0's share of it."""
    if kind == "triple":
        a1, b1 = ring.sub(v["a"], v["a0"]), ring.sub(v["b"], v["b0"])
        return {"a1": a1, "b1": b1, "z1": ring.sub(ring.mul(v["a"], v["b"]), v["z0"])}
    if kind == "square":
        return {"a1": ring.sub(v["a"], v["a0"]), "z1": ring.sub(ring.mul(v["a"], v["a"]), v["z0"])}
    if kind == "bit":
        # the masks, then every product the monomials read, built up by size
        table = and_table(shape[0], shape[1])
        lam = np.empty(v["lam0"].shape, dtype=np.uint8)
        lam[:, : table.inputs] = v["masks"]
        table.products(lam.swapaxes(0, 1))
        return {"lam1": lam ^ v["lam0"]}
    r = v["r"].astype(np.uint64)
    return {
        "r1": v["r"] ^ v["r0"],
        "arith1": ring.sub(r, v["arith0"]),
        "a1": ring.sub(v["a"], v["a0"]),
        "ra1": ring.sub(ring.mul(r, v["a"]), v["ra0"]),
    }


#: the fewest words an item must skip for party 0 to pass over them with
#: ``advance``: below it, the generator calls of a per-item draw cost more
#: than drawing the whole item and copying party 0's spans out
_MIN_SKIP_WORDS = 4096


def _draw_blocks(
    ring: FixedPointRing, rng: np.random.Generator, count: int, layout: Tuple[_Span, ...], only=None
) -> Dict[str, np.ndarray]:
    """The ``(count, words)`` block of every span of ``count`` items, or of
    the spans named in ``only`` (owning their memory), leaving ``rng`` where
    drawing every span leaves it.

    A skipped span is passed over with ``bit_generator.advance``, which
    counts 64-bit words: that is one word per element on a ring wider than
    32 bits only, so a narrower ring draws every span and keeps copies (as
    does an item that skips fewer than :data:`_MIN_SKIP_WORDS`).
    """
    may_skip = only is not None and ring.ring_bits > 32
    if not may_skip or sum(w for name, w, _ in layout if name not in only) < _MIN_SKIP_WORDS:
        words = ring.random((count, sum(span[1] for span in layout)), rng)
        blocks, start = {}, 0
        for name, width, _decode in layout:
            blocks[name], start = words[:, start : start + width], start + width
        return blocks if only is None else {name: blocks[name].copy() for name in only}
    blocks = {name: np.empty((count, w), np.uint64) for name, w, _ in layout if name in only}
    for row in range(count):
        for name, width, _decode in layout:
            if name in blocks:
                blocks[name][row] = ring.random((width,), rng)
            else:
                rng.bit_generator.advance(width)
    return blocks


def draw_group(
    ring: FixedPointRing,
    rng: np.random.Generator,
    kind: str,
    shape: Tuple[int, ...],
    count: int,
    party: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Draw ``count`` items of one (kind, shape) group from ``rng``.

    One call with ``count=k`` is bit-identical to ``k`` calls with
    ``count=1`` against the same generator — the split-transparency
    invariant both callers (per-item dealer draws, pool fill) rely on.

    With ``party``, only that party's share-world is built and the peer's
    fields are :func:`~repro.crypto.kernels.dead_lane` placeholders: the
    arrays equal the full draw's and ``rng`` ends where the full draw leaves
    it.  Party 0 draws just its own spans; party 1 draws every word and
    keeps only its own fields.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if party not in (None, 0, 1):
        raise ValueError(f"party must be 0 or 1, got {party}")
    shape = tuple(shape)
    layout = _layout(ring, kind, shape)
    own = PARTY_FIELDS[kind][0]
    blocks = _draw_blocks(ring, rng, count, layout, own if party == 0 else None)
    values = {name: decode(blocks[name]) for name, _width, decode in layout if name in blocks}
    out = {} if party == 1 else {name: values[name] for name in own}
    if party != 0:
        out.update(_world1(ring, kind, shape, values))
    if party is not None:
        for mine, peer in zip(PARTY_FIELDS[kind][party], PARTY_FIELDS[kind][1 - party]):
            out[peer] = dead_lane(out[mine].shape, out[mine].dtype)
    return out


def _row(ring: FixedPointRing, kind: str, arrays: Dict[str, np.ndarray], row: int) -> Dict:
    """The item at ``row`` of a stacked group, keyed by field stem: a ring-word
    share pair is one :class:`SharePair`, a bit plane keeps its two arrays.
    Every array is a row *view* into the stacks, never a copy."""
    item: Dict[str, object] = {}
    for name0, name1 in zip(*PARTY_FIELDS[kind]):
        share0, share1 = arrays[name0][row], arrays[name1][row]
        if share0.dtype == np.uint8:
            item[name0], item[name1] = share0, share1
        else:
            item[name0[:-1]] = SharePair(share0, share1, ring)
    return item


class TrustedDealer:
    """Generates correlated randomness for the online protocols;
    ``generated[kind]`` counts the elements drawn per kind."""

    def __init__(self, ring: FixedPointRing = DEFAULT_RING, seed: int = 0) -> None:
        self.ring = ring
        self.seed = int(seed)
        self._streams: Dict[Tuple, np.random.Generator] = {}
        self.generated: Dict[str, int] = Counter()

    def _stream(self, kind: str, shape: Tuple[int, ...]) -> np.random.Generator:
        """The (cached) generator of one (kind, shape) substream.

        Substreams persist across :meth:`preprocess` calls on one dealer,
        so successive pools from a shared dealer keep advancing the same
        streams per-item draws would.
        """
        key = (kind, shape)
        rng = self._streams.get(key)
        if rng is None:
            rng = np.random.default_rng(substream(self.seed, self.ring, kind, shape))
            self._streams[key] = rng
        return rng

    # -- per-item draws (protocols called outside a plan) --------------------- #
    def draw(self, kind: str, shape: Tuple[int, ...]) -> Dict:
        """One item of a (kind, shape) group: the row of a one-row group draw."""
        shape = tuple(shape)
        arrays = draw_group(self.ring, self._stream(kind, shape), kind, shape, 1)
        self.generated[kind] += item_elements(kind, shape)
        return _row(self.ring, kind, arrays, 0)

    # -- offline phase -------------------------------------------------------- #
    def preprocess(self, plan_or_manifest, party: Optional[int] = None) -> "RandomnessPool":
        """Generate all correlated randomness of a compiled plan up front.

        Accepts an :class:`repro.crypto.plan.InferencePlan` or its
        :class:`~repro.crypto.plan.PreprocessingManifest` and returns a
        :class:`RandomnessPool` holding every item the online phase will
        consume.  Each (kind, shape) group of the manifest is drawn as
        **one** stacked generator call from its substream, which is
        bit-identical to per-item draws at the same seed.  With ``party``
        the pool holds only that party's share-world (:func:`draw_group`):
        bit-identical to ``preprocess(plan).restrict_to_party(party)``, and
        every substream advances as far.
        """
        manifest = getattr(plan_or_manifest, "manifest", plan_or_manifest)
        pool = RandomnessPool(ring=self.ring, manifest_hash=manifest.content_hash)
        for kind, shape, count in manifest.grouped_requests():
            rng = self._stream(kind, shape)
            pool.install_group(kind, shape, draw_group(self.ring, rng, kind, shape, count, party))
            self.generated[kind] += count * item_elements(kind, shape)
        pool.restricted_to = party
        return pool


class PreprocessingExhausted(RuntimeError):
    """Raised when the online phase requests randomness the pool lacks.

    Carries the missing ``kind`` and ``shape``, the pool's remaining depth
    per kind (``remaining_by_kind``) and the ``manifest_hash`` the pool was
    provisioned for, so under-provisioning is diagnosable from the error
    alone.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: Optional[str] = None,
        shape: Optional[Tuple[int, ...]] = None,
        remaining_by_kind: Optional[Dict[str, int]] = None,
        manifest_hash: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.shape = shape
        self.remaining_by_kind = dict(remaining_by_kind or {})
        self.manifest_hash = manifest_hash


class RandomnessPool:
    """Pre-generated correlated randomness served during the online phase.

    Serves :meth:`draw` like :class:`TrustedDealer`, so it stands in as
    ``ctx.dealer`` during plan execution — but it never *generates*: a
    request the offline phase did not provision raises
    :class:`PreprocessingExhausted`.

    The pool holds one stacked group per (kind, shape) and a window
    ``[cursor, stop)`` of the rows it may still serve.  A draw returns the
    item at the cursor row — row views into the stacks — and advances the
    cursor; :meth:`partition` hands out consecutive windows over the same
    stacks; :meth:`restrict_to_party` swaps the peer's stacks for a
    placeholder.  Nothing is prebuilt and no share is copied.
    """

    def __init__(
        self,
        ring: FixedPointRing = DEFAULT_RING,
        manifest_hash: Optional[str] = None,
    ) -> None:
        self.ring = ring
        self.manifest_hash = manifest_hash
        self.restricted_to: Optional[int] = None
        self._groups: Dict[GroupKey, Dict[str, np.ndarray]] = {}
        #: per group, ``[cursor, stop]``: the rows still to serve
        self._windows: Dict[GroupKey, List[int]] = {}
        self.served = 0

    # -- filling (offline) -------------------------------------------------- #
    def install_group(
        self, kind: str, shape: Tuple[int, ...], arrays: Dict[str, np.ndarray]
    ) -> None:
        """Install the stacked group of one (kind, shape); all its rows are
        served.  A pool holds at most one group per key."""
        key = (kind, tuple(shape))
        if key in self._groups:
            raise ValueError(f"pool already holds the {kind!r} group of shape {key[1]}")
        self._groups[key] = arrays
        self._windows[key] = [0, len(next(iter(arrays.values())))]

    def group(self, kind: str, shape: Tuple[int, ...]) -> Dict[str, np.ndarray]:
        """The stacked share arrays of one (kind, shape) group."""
        return self._groups[(kind, tuple(shape))]

    # -- consumption (online) ------------------------------------------------ #
    def _exhausted(self, kind: str, shape: Tuple[int, ...]) -> PreprocessingExhausted:
        remaining_by_kind = self.remaining_by_kind
        depth = (
            ", ".join(f"{k}={n}" for k, n in sorted(remaining_by_kind.items())) or "empty"
        )
        return PreprocessingExhausted(
            f"online phase requested a {kind!r} of shape {tuple(shape)} that "
            "the preprocessing manifest did not provision — recompile the "
            "plan or rerun TrustedDealer.preprocess() "
            f"(remaining depth: {depth}; manifest {self.manifest_hash or 'unknown'})",
            kind=kind,
            shape=tuple(shape),
            remaining_by_kind=remaining_by_kind,
            manifest_hash=self.manifest_hash,
        )

    def draw(self, kind: str, shape: Tuple[int, ...]) -> Dict:
        """The item at the cursor row of the (kind, shape) group."""
        key = (kind, tuple(shape))
        window = self._windows.get(key)
        if window is None or window[0] == window[1]:
            raise self._exhausted(kind, shape)
        window[0] += 1
        self.served += 1
        return _row(self.ring, kind, self._groups[key], window[0] - 1)

    # -- party restriction (networked runtime) ------------------------------- #
    def restrict_to_party(self, party: int) -> "RandomnessPool":
        """Release the other party's share-world of every group.

        The reference for a party's pool: a party process draws its own
        world directly (``TrustedDealer.preprocess(plan, party=p)``), which
        is bit-identical to this applied to the full pool.  The other
        world's stacks become the read-only
        :func:`~repro.crypto.kernels.dead_lane` placeholder and own stacks
        that are views into a multi-lane draw are copied out, so the pool
        pins exactly half of the manifest's material bytes.  Restricting an
        already-restricted pool is a no-op for the same party and an error
        for the other one — the genuine share-world is already gone.
        """
        if party not in (0, 1):
            raise ValueError(f"party must be 0 or 1, got {party}")
        if self.restricted_to is not None:
            if self.restricted_to == party:
                return self
            raise ValueError(
                f"pool is already restricted to party {self.restricted_to}; "
                f"party {party}'s share-world has been released and cannot be recovered"
            )
        for (kind, _shape), arrays in self._groups.items():
            for name in PARTY_FIELDS[kind][1 - party]:
                arrays[name] = dead_lane(arrays[name].shape, arrays[name].dtype)
            for name in PARTY_FIELDS[kind][party]:
                if arrays[name].base is not None:
                    arrays[name] = arrays[name].copy()
        self.restricted_to = party
        return self

    # -- per-op partitioning (round-coalescing scheduler) --------------------- #
    def partition(self, request_groups) -> "List[RandomnessPool]":
        """Split the pool into per-consumer sub-pools, in manifest order.

        ``request_groups`` is an iterable of per-op
        :class:`~repro.crypto.protocols.registry.RandomnessRequest` sequences
        (e.g. ``[op.requests for op in plan.ops]``).  For each (kind, shape)
        its op requests, a sub-pool gets the next window of rows of this
        pool's stack, so an op served from its sub-pool consumes the
        *identical* correlated randomness it would have drawn from this pool
        in a sequential execution — regardless of how a round-coalescing
        scheduler interleaves the ops.  The stacks are shared, never
        copied.  This pool is drained in the process; an empty request group
        yields an empty sub-pool.

        All or nothing: every window is checked before any cursor moves, so
        a partition that raises :class:`PreprocessingExhausted` leaves this
        pool as it was.
        """
        tallies: List[Dict[GroupKey, int]] = []
        demand: Dict[GroupKey, int] = {}
        for requests in request_groups:
            tally: Dict[GroupKey, int] = {}
            for request in requests:
                key = (request.kind, tuple(request.shape))
                tally[key] = tally.get(key, 0) + 1
                demand[key] = demand.get(key, 0) + 1
            tallies.append(tally)
        for key, count in demand.items():
            window = self._windows.get(key)
            if window is None or window[1] - window[0] < count:
                raise self._exhausted(*key)

        pools: "List[RandomnessPool]" = []
        for tally in tallies:
            sub = RandomnessPool(ring=self.ring, manifest_hash=self.manifest_hash)
            sub.restricted_to = self.restricted_to
            for key, count in tally.items():
                window = self._windows[key]
                sub._groups[key] = self._groups[key]
                sub._windows[key] = [window[0], window[0] + count]
                window[0] += count
            pools.append(sub)
        self.served += sum(demand.values())
        return pools

    @property
    def remaining(self) -> int:
        return sum(stop - cursor for cursor, stop in self._windows.values())

    @property
    def remaining_by_kind(self) -> Dict[str, int]:
        """Rows still to serve per randomness kind."""
        totals: Dict[str, int] = {}
        for (kind, _shape), (cursor, stop) in self._windows.items():
            totals[kind] = totals.get(kind, 0) + stop - cursor
        return totals
