"""Vectorized batched generation of correlated randomness.

The trusted dealer historically drew every Beaver triple / bit triple /
daBit with per-item generator calls inside a Python loop; at serving scale
the interpreter overhead dominates the offline phase.  This module defines
the *stream layout* that makes batching safe:

- every (kind, shape) group draws from its own seeded **substream**
  (:func:`substream`), derived deterministically from ``(seed, ring,
  kind, shape)`` via :class:`numpy.random.SeedSequence` — so the order in
  which different groups generate is irrelevant to the bits each group
  produces;
- within a substream, each item's material is exactly **one** fixed-shape
  ``uint64`` draw (:data:`GROUP_LAYOUTS`).  NumPy's ``Generator.integers``
  with a 64-bit dtype consumes the bit stream one word per element
  regardless of how calls are split, so ``k`` per-item draws and one
  stacked ``(k, ...)`` draw yield bit-identical arrays.  (8-bit draws do
  *not* have this property — which is why random bits are drawn as ring
  words and unpacked, never as ``uint8`` streams.)

Consequently the lazy (interpretive) dealer and the vectorized pool fill
produce bit-identical material at the same seed.

Shares in a group are stored stacked — e.g. the ``a0`` shares of 64
triples of shape ``(4, 4)`` form one ``(64, 4, 4)`` array — and pool items
are row views into the stack, so party restriction operates on whole
groups instead of items.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.crypto.ring import FixedPointRing

#: domain-separation tag of this stream layout (first SeedSequence word)
STREAM_DOMAIN = 0x0FF1D0

_KIND_IDS = {
    "triple": 1,
    "square": 2,
    "bit": 3,
    "dabit": 4,
    "triple-generic": 5,
    "shared-bit": 6,
    "shared-ring": 7,
}

#: stacked-array field names of each group kind, in serialization order
GROUP_FIELDS: Dict[str, Tuple[str, ...]] = {
    "triple": ("a0", "a1", "b0", "b1", "z0", "z1"),
    "square": ("a0", "a1", "z0", "z1"),
    "bit": ("a0", "a1", "b0", "b1", "c0", "c1"),
    "dabit": ("r0", "r1", "arith0", "arith1"),
    "shared-bit": ("mask", "masked"),
    "shared-ring": ("share0", "share1"),
}

#: fields held by party 0 / party 1 (the rest is the other share-world)
PARTY_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "triple": (("a0", "b0", "z0"), ("a1", "b1", "z1")),
    "square": (("a0", "z0"), ("a1", "z1")),
    "bit": (("a0", "b0", "c0"), ("a1", "b1", "c1")),
    "dabit": (("r0", "arith0"), ("r1", "arith1")),
}


def numel(shape: Tuple[int, ...]) -> int:
    """Number of elements of one item of the given shape (scalar -> 1)."""
    return int(np.prod(shape, dtype=np.int64)) if shape else 1


def substream(
    seed: int, ring: FixedPointRing, kind: str, *shapes: Tuple[int, ...]
) -> np.random.SeedSequence:
    """The seeded substream of one (kind, shape) group.

    Domain-separated on the base seed, the ring parameters, the kind and
    the item shape(s), so every group owns an independent deterministic
    stream and generation order across groups cannot change the bits.
    """
    if kind not in _KIND_IDS:
        raise ValueError(f"unknown randomness kind {kind!r}")
    entropy = [STREAM_DOMAIN, int(seed), ring.ring_bits, ring.frac_bits, _KIND_IDS[kind]]
    for shape in shapes:
        entropy.append(len(shape))
        entropy.extend(int(dim) for dim in shape)
    return np.random.SeedSequence(entropy)


def words_per_plane(ring: FixedPointRing, count: int) -> int:
    """Ring words needed to carry ``count`` random bits (one plane)."""
    return math.ceil(count / ring.ring_bits) if count else 0


def unpack_ring_words(words: np.ndarray, ring: FixedPointRing, count: int) -> np.ndarray:
    """Unpack uniformly random ring words into ``count`` uniform bits.

    ``words`` has shape ``(..., W)``; the result has shape ``(..., count)``
    and dtype ``uint8`` with values in {0, 1}.  Bit ``j`` of the plane is
    bit ``j % ring_bits`` of word ``j // ring_bits`` — every kept bit of a
    uniform ring element is itself uniform, so the plane is uniform.
    """
    lead = words.shape[:-1]
    if count == 0 or words.size == 0:
        return np.zeros(lead + (count,), dtype=np.uint8)
    little = np.ascontiguousarray(words.astype("<u8", copy=False))
    as_bytes = little.view(np.uint8).reshape(words.shape + (8,))
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")  # (..., W, 64)
    bits = bits[..., : ring.ring_bits].reshape(lead + (words.shape[-1] * ring.ring_bits,))
    return np.ascontiguousarray(bits[..., :count])


# --------------------------------------------------------------------------- #
# Per-kind group drawers.  Each consumes exactly one fixed-shape uint64 draw
# per item from ``rng`` (the split-transparency invariant) and returns the
# stacked GROUP_FIELDS arrays with leading dimension ``count``.
# --------------------------------------------------------------------------- #
def _draw_triple(
    ring: FixedPointRing, rng: np.random.Generator, count: int, shape: Tuple[int, ...]
) -> Dict[str, np.ndarray]:
    lanes = ring.random((count, 5) + shape, rng)
    a, b, mask_a, mask_b, mask_z = (lanes[:, i] for i in range(5))
    z = ring.mul(a, b)
    return {
        "a0": mask_a,
        "a1": ring.sub(a, mask_a),
        "b0": mask_b,
        "b1": ring.sub(b, mask_b),
        "z0": mask_z,
        "z1": ring.sub(z, mask_z),
    }


def _draw_square(
    ring: FixedPointRing, rng: np.random.Generator, count: int, shape: Tuple[int, ...]
) -> Dict[str, np.ndarray]:
    lanes = ring.random((count, 3) + shape, rng)
    a, mask_a, mask_z = (lanes[:, i] for i in range(3))
    z = ring.mul(a, a)
    return {"a0": mask_a, "a1": ring.sub(a, mask_a), "z0": mask_z, "z1": ring.sub(z, mask_z)}


def _draw_bit(
    ring: FixedPointRing, rng: np.random.Generator, count: int, shape: Tuple[int, ...]
) -> Dict[str, np.ndarray]:
    n = numel(shape)
    planes = words_per_plane(ring, n)
    words = ring.random((count, 5, planes), rng)
    bits = unpack_ring_words(words, ring, n).reshape((count, 5) + shape)
    a, b, a0, b0, c0 = (bits[:, i] for i in range(5))
    c = a & b
    return {"a0": a0, "a1": a ^ a0, "b0": b0, "b1": b ^ b0, "c0": c0, "c1": c ^ c0}


def _draw_dabit(
    ring: FixedPointRing, rng: np.random.Generator, count: int, shape: Tuple[int, ...]
) -> Dict[str, np.ndarray]:
    n = numel(shape)
    planes = words_per_plane(ring, n)
    words = ring.random((count, 2 * planes + n), rng)
    r = unpack_ring_words(words[:, :planes], ring, n).reshape((count,) + shape)
    r0 = unpack_ring_words(words[:, planes : 2 * planes], ring, n).reshape((count,) + shape)
    mask = words[:, 2 * planes :].reshape((count,) + shape)
    return {
        "r0": r0,
        "r1": r ^ r0,
        "arith0": mask,
        "arith1": ring.sub(r.astype(np.uint64), mask),
    }


def _draw_shared_bit(
    ring: FixedPointRing, rng: np.random.Generator, count: int, shape: Tuple[int, ...]
) -> Dict[str, np.ndarray]:
    n = numel(shape)
    planes = words_per_plane(ring, n)
    words = ring.random((count, 2 * planes), rng)
    bit = unpack_ring_words(words[:, :planes], ring, n).reshape((count,) + shape)
    mask = unpack_ring_words(words[:, planes:], ring, n).reshape((count,) + shape)
    return {"mask": mask, "masked": bit ^ mask}


def _draw_shared_ring(
    ring: FixedPointRing, rng: np.random.Generator, count: int, shape: Tuple[int, ...]
) -> Dict[str, np.ndarray]:
    lanes = ring.random((count, 2) + shape, rng)
    value, mask = lanes[:, 0], lanes[:, 1]
    return {"share0": mask, "share1": ring.sub(value, mask)}


_DRAWERS = {
    "triple": _draw_triple,
    "square": _draw_square,
    "bit": _draw_bit,
    "dabit": _draw_dabit,
    "shared-bit": _draw_shared_bit,
    "shared-ring": _draw_shared_ring,
}


def draw_group(
    ring: FixedPointRing,
    rng: np.random.Generator,
    kind: str,
    shape: Tuple[int, ...],
    count: int,
) -> Dict[str, np.ndarray]:
    """Draw ``count`` items of one (kind, shape) group from ``rng``.

    One call with ``count=k`` is bit-identical to ``k`` calls with
    ``count=1`` against the same generator — the split-transparency
    invariant both callers (lazy dealer, pool fill) rely on.
    """
    drawer = _DRAWERS.get(kind)
    if drawer is None:
        raise ValueError(f"unknown randomness kind {kind!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return drawer(ring, rng, count, tuple(shape))
