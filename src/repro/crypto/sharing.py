"""Additive secret sharing over the fixed-point ring.

Implements the share-generation ``shr(x)`` and share-recovery ``rec([x])``
primitives of Section II-A of the paper, together with the local (no
communication) linear algebra on shares: addition, subtraction and scaling
(Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.crypto.kernels import per_lane
from repro.crypto.ring import DEFAULT_RING, FixedPointRing


@dataclass
class SharePair:
    """The two additive shares of a secret tensor.

    ``share0`` is held by server S0 and ``share1`` by server S1; the secret is
    ``(share0 + share1) mod 2^k``.  A :class:`SharePair` object only exists in
    the simulation harness — protocol code must treat the two fields as living
    on different machines and exchange data exclusively via the channel.
    """

    share0: np.ndarray
    share1: np.ndarray
    ring: FixedPointRing = DEFAULT_RING

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.share0.shape

    def __post_init__(self) -> None:
        if self.share0.shape != self.share1.shape:
            raise ValueError(
                f"share shapes differ: {self.share0.shape} vs {self.share1.shape}"
            )


def share(
    values: np.ndarray,
    ring: FixedPointRing = DEFAULT_RING,
    rng: np.random.Generator | None = None,
) -> SharePair:
    """Share generation ``shr(x)``: sample r uniformly and output (r, x - r)."""
    rng = rng or np.random.default_rng()
    encoded = ring.encode(np.asarray(values, dtype=np.float64))
    r = ring.random(encoded.shape, rng)
    return SharePair(share0=r, share1=ring.sub(encoded, r), ring=ring)


def share_ring_elements(
    elements: np.ndarray,
    ring: FixedPointRing = DEFAULT_RING,
    rng: np.random.Generator | None = None,
) -> SharePair:
    """Share already-encoded ring elements (used by the Beaver dealer)."""
    rng = rng or np.random.default_rng()
    elements = ring.wrap(np.asarray(elements, dtype=np.uint64))
    r = ring.random(elements.shape, rng)
    return SharePair(share0=r, share1=ring.sub(elements, r), ring=ring)


def reconstruct(pair: SharePair) -> np.ndarray:
    """Share recovery ``rec([x])``: decode (share0 + share1) mod 2^k."""
    return pair.ring.decode(pair.ring.add(pair.share0, pair.share1))


def reconstruct_ring(pair: SharePair) -> np.ndarray:
    """Recover the raw ring element (no fixed-point decoding)."""
    return pair.ring.add(pair.share0, pair.share1)


# --------------------------------------------------------------------------- #
# Local (communication-free) operations on shares — Eq. 1 of the paper
# --------------------------------------------------------------------------- #
def _lanewise(a: SharePair, b: SharePair, live: Optional[int], op) -> SharePair:
    """``op`` applied share by share on the lanes held (see :func:`add_shares`)."""
    _check_same_ring(a, b)
    a_lanes, b_lanes = (a.share0, a.share1), (b.share0, b.share1)
    return SharePair(*per_lane(live, a.shape, lambda i: op(a_lanes[i], b_lanes[i])), a.ring)


def add_shares(a: SharePair, b: SharePair, live: Optional[int] = None) -> SharePair:
    """[x] + [y]: each party adds its shares locally.

    ``live`` is the one lane a party process holds (None: both); the other
    lane becomes the dead-lane placeholder (see
    :func:`repro.crypto.kernels.per_lane`).
    """
    return _lanewise(a, b, live, a.ring.add)


def sub_shares(a: SharePair, b: SharePair, live: Optional[int] = None) -> SharePair:
    """[x] - [y]: each party subtracts its shares locally (``live`` as in
    :func:`add_shares`)."""
    return _lanewise(a, b, live, a.ring.sub)


def add_public(a: SharePair, public: np.ndarray) -> SharePair:
    """[x] + c for a public constant c: only S0 adds (convention)."""
    ring = a.ring
    encoded = ring.encode(np.asarray(public, dtype=np.float64))
    return SharePair(ring.add(a.share0, encoded), a.share1.copy(), ring)


def scale_shares(a: SharePair, scalar: float) -> SharePair:
    """c * [x] for a public real scalar c.

    The scalar is encoded in fixed point and each share is multiplied and then
    locally truncated, mirroring how public scaling is done in practice.
    """
    ring = a.ring
    encoded_scalar = int(ring.encode(np.array(scalar)))
    s0 = ring.truncate_local(ring.scalar_mul(a.share0, encoded_scalar), party=0)
    s1 = ring.truncate_local(ring.scalar_mul(a.share1, encoded_scalar), party=1)
    return SharePair(s0, s1, ring)


def _check_same_ring(a: SharePair, b: SharePair) -> None:
    if a.ring != b.ring:
        raise ValueError("share pairs use different rings")
