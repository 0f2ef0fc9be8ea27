"""Trusted dealer for correlated randomness (offline phase).

The online 2PC protocols consume Beaver triples (for products), Beaver pairs
(for squares) and bit triples (for AND gates inside the comparison flow).
In deployments this correlated randomness is produced by an OT-based or
HE-based offline phase; the paper (like CrypTen and Delphi) separates it from
the online latency it reports, so the reproduction models it as a local
dealer.  The dealer never sees the secret inputs — it only outputs shares of
random correlated values.

Two consumption modes exist:

- *lazy* (standalone protocol calls): protocols call :meth:`TrustedDealer.triple`
  and friends while the online phase runs;
- *pooled* (plan runtime): :meth:`TrustedDealer.preprocess` generates every
  request of a compiled plan's manifest up front into a
  :class:`RandomnessPool`, which then serves the online phase without a
  single generation call — the executable counterpart of the offline/online
  split of Fig. 3.

The random stream is laid out per (kind, shape) substream (see
:mod:`repro.offline.generation`): each group of a manifest draws from its
own :class:`~numpy.random.SeedSequence`-derived generator, and each item is
exactly one fixed-shape ``uint64`` draw.  That layout is what makes the
offline phase batchable — ``preprocess`` draws whole groups as single
stacked generator calls — while keeping lazy draws and stacked pool fills
bit-identical at the same seed, so every share on the wire is the same
whichever supplied it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.kernels import dead_lane
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.sharing import SharePair, share_ring_elements
from repro.offline.generation import (
    GROUP_FIELDS,
    PARTY_FIELDS,
    draw_group,
    numel,
    substream,
)


@dataclass
class BeaverTriple:
    """Shares of (A, B, Z) with Z = A ⊗ B for a generic product ⊗."""

    a: SharePair
    b: SharePair
    z: SharePair


@dataclass
class BeaverPair:
    """Shares of (A, Z) with Z = A ⊙ A (elementwise), used by the square protocol."""

    a: SharePair
    z: SharePair


@dataclass
class BitTriple:
    """XOR-shares of bits (a, b, c) with c = a AND b, used by GMW AND gates."""

    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    c0: np.ndarray
    c1: np.ndarray


@dataclass
class DaBit:
    """A doubly-shared random bit (Rotaru-Wood style daBit).

    The same uniformly random bit ``r`` is held both XOR-shared (``r0 ^ r1 =
    r``) and additively shared over the ring (``arith`` reconstructs to the
    0/1 integer ``r``).  One daBit turns B2A conversion into a single 1-bit
    opening: open ``c = b ^ r``, then ``[b] = c + (1 - 2c) * [r]`` locally —
    no Beaver triple, no ring-width opening.
    """

    r0: np.ndarray
    r1: np.ndarray
    arith: SharePair


def items_from_group(
    ring: FixedPointRing, kind: str, arrays: Dict[str, np.ndarray]
) -> List:
    """Materialize pool items from a group's stacked share arrays.

    Every item field is a row *view* into the stacks — no copies; the
    stacks stay alive (and restrictable / serializable) as long as any
    item does.
    """
    count = len(next(iter(arrays.values())))
    if kind == "triple":
        return [
            BeaverTriple(
                a=SharePair(arrays["a0"][i], arrays["a1"][i], ring),
                b=SharePair(arrays["b0"][i], arrays["b1"][i], ring),
                z=SharePair(arrays["z0"][i], arrays["z1"][i], ring),
            )
            for i in range(count)
        ]
    if kind == "square":
        return [
            BeaverPair(
                a=SharePair(arrays["a0"][i], arrays["a1"][i], ring),
                z=SharePair(arrays["z0"][i], arrays["z1"][i], ring),
            )
            for i in range(count)
        ]
    if kind == "bit":
        return [
            BitTriple(
                a0=arrays["a0"][i],
                a1=arrays["a1"][i],
                b0=arrays["b0"][i],
                b1=arrays["b1"][i],
                c0=arrays["c0"][i],
                c1=arrays["c1"][i],
            )
            for i in range(count)
        ]
    if kind == "dabit":
        return [
            DaBit(
                r0=arrays["r0"][i],
                r1=arrays["r1"][i],
                arith=SharePair(arrays["arith0"][i], arrays["arith1"][i], ring),
            )
            for i in range(count)
        ]
    raise ValueError(f"kind {kind!r} has no pool item form")


class TrustedDealer:
    """Generates correlated randomness for the online protocols."""

    def __init__(self, ring: FixedPointRing = DEFAULT_RING, seed: int = 0) -> None:
        self.ring = ring
        self.seed = int(seed)
        self._streams: Dict[Tuple, np.random.Generator] = {}
        self.triples_generated = 0
        self.bit_triples_generated = 0
        self.dabits_generated = 0

    def _stream(self, kind: str, *shapes: Tuple[int, ...]) -> np.random.Generator:
        """The (cached) generator of one substream.

        Substreams persist across :meth:`preprocess` calls on one dealer,
        so successive pools from a shared dealer (the serving cache) keep
        advancing the same streams a lazy execution would.
        """
        key = (kind,) + shapes
        rng = self._streams.get(key)
        if rng is None:
            rng = np.random.default_rng(substream(self.seed, self.ring, kind, *shapes))
            self._streams[key] = rng
        return rng

    # -- arithmetic triples ------------------------------------------------ #
    def triple(
        self,
        shape_a: Tuple[int, ...],
        shape_b: Tuple[int, ...],
        product: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> BeaverTriple:
        """Generate a Beaver triple for an arbitrary bilinear product.

        ``product`` maps ring-element arrays of the given shapes to the ring
        elements of A ⊗ B (e.g. elementwise product, matmul or convolution),
        and must consist of ring additions/multiplications only so the wrap
        semantics are preserved.  The elementwise (Hadamard) form — the only
        one manifests provision — routes through the batched group layout;
        a generic product keeps its own substream keyed by both shapes.
        (Bound-method equality compares the underlying function and ring.)
        """
        shape_a, shape_b = tuple(shape_a), tuple(shape_b)
        if shape_a == shape_b and product == self.ring.mul:
            return self.elementwise_triple(shape_a)
        rng = self._stream("triple-generic", shape_a, shape_b)
        a_plain = self.ring.random(shape_a, rng)
        b_plain = self.ring.random(shape_b, rng)
        with np.errstate(over="ignore"):
            z_plain = self.ring.wrap(product(a_plain, b_plain))
        self.triples_generated += numel(z_plain.shape)
        return BeaverTriple(
            a=share_ring_elements(a_plain, self.ring, rng),
            b=share_ring_elements(b_plain, self.ring, rng),
            z=share_ring_elements(z_plain, self.ring, rng),
        )

    def elementwise_triple(self, shape: Tuple[int, ...]) -> BeaverTriple:
        """Beaver triple for the Hadamard product."""
        shape = tuple(shape)
        arrays = draw_group(self.ring, self._stream("triple", shape), "triple", shape, 1)
        self.triples_generated += numel(shape)
        return items_from_group(self.ring, "triple", arrays)[0]

    def square_pair(self, shape: Tuple[int, ...]) -> BeaverPair:
        """Beaver pair (A, A^2) for the square protocol (Eq. 3)."""
        shape = tuple(shape)
        arrays = draw_group(self.ring, self._stream("square", shape), "square", shape, 1)
        self.triples_generated += numel(shape)
        return items_from_group(self.ring, "square", arrays)[0]

    # -- bit triples --------------------------------------------------------- #
    def bit_triple(self, shape: Tuple[int, ...]) -> BitTriple:
        """XOR-shared AND triple used by the GMW comparison circuit."""
        shape = tuple(shape)
        arrays = draw_group(self.ring, self._stream("bit", shape), "bit", shape, 1)
        self.bit_triples_generated += numel(shape)
        return items_from_group(self.ring, "bit", arrays)[0]

    def dabit(self, shape: Tuple[int, ...]) -> DaBit:
        """A doubly-shared random bit for the one-round B2A conversion."""
        shape = tuple(shape)
        arrays = draw_group(self.ring, self._stream("dabit", shape), "dabit", shape, 1)
        self.dabits_generated += numel(shape)
        return items_from_group(self.ring, "dabit", arrays)[0]

    # -- shared randomness --------------------------------------------------- #
    def random_shared_bit(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """XOR shares of uniformly random bits."""
        shape = tuple(shape)
        rng = self._stream("shared-bit", shape)
        arrays = draw_group(self.ring, rng, "shared-bit", shape, 1)
        return arrays["mask"][0], arrays["masked"][0]

    def random_shared_ring(self, shape: Tuple[int, ...]) -> SharePair:
        """Additive shares of uniformly random ring elements."""
        shape = tuple(shape)
        rng = self._stream("shared-ring", shape)
        arrays = draw_group(self.ring, rng, "shared-ring", shape, 1)
        return SharePair(arrays["share0"][0], arrays["share1"][0], self.ring)

    def _count_group(self, kind: str, shape: Tuple[int, ...], count: int) -> None:
        elements = count * numel(shape)
        if kind in ("triple", "square"):
            self.triples_generated += elements
        elif kind == "bit":
            self.bit_triples_generated += elements
        elif kind == "dabit":
            self.dabits_generated += elements

    # -- offline phase -------------------------------------------------------- #
    def preprocess(self, plan_or_manifest) -> "RandomnessPool":
        """Generate all correlated randomness of a compiled plan up front.

        Accepts an :class:`repro.crypto.plan.InferencePlan` or its
        :class:`~repro.crypto.plan.PreprocessingManifest` and returns a
        :class:`RandomnessPool` holding every triple/pair/bit-triple the
        online phase will consume.  Each (kind, shape) group of the manifest
        is drawn as **one** stacked generator call from its substream, which
        is bit-identical to lazy draws at the same seed.
        """
        manifest = getattr(plan_or_manifest, "manifest", plan_or_manifest)
        pool = RandomnessPool(ring=self.ring, manifest_hash=manifest.content_hash)
        for kind, shape, count in manifest.grouped_requests():
            if kind not in GROUP_FIELDS or kind not in PARTY_FIELDS:
                raise ValueError(f"unknown randomness request kind {kind!r}")
            rng = self._stream(kind, shape)
            pool.install_group(kind, shape, draw_group(self.ring, rng, kind, shape, count))
            self._count_group(kind, shape, count)
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

    Implements the same ``triple`` / ``square_pair`` / ``bit_triple``
    interface as :class:`TrustedDealer`, so it can stand in as
    ``ctx.dealer`` during plan execution — but it never *generates*: every
    request pops from a FIFO keyed by (kind, shape), and a request the
    offline phase did not provision raises :class:`PreprocessingExhausted`.
    The generation counters therefore stay at zero throughout the online
    phase, which the tests assert.

    Pools filled by :meth:`TrustedDealer.preprocess` retain each group's
    stacked share arrays in ``group_buffers``; items are row views into
    them, so party restriction releases whole stacks, never items.
    """

    def __init__(
        self,
        ring: FixedPointRing = DEFAULT_RING,
        manifest_hash: Optional[str] = None,
    ) -> None:
        self.ring = ring
        self.manifest_hash = manifest_hash
        self.restricted_to: Optional[int] = None
        self._queues: Dict[Tuple[str, Tuple[int, ...]], Deque] = {}
        self._buffers: Dict[Tuple[str, Tuple[int, ...]], List[Dict[str, np.ndarray]]] = {}
        self.served = 0
        # Mirror the TrustedDealer counters so collect_statistics() works;
        # they stay 0 because the pool never generates.
        self.triples_generated = 0
        self.bit_triples_generated = 0
        self.dabits_generated = 0

    # -- filling (offline) -------------------------------------------------- #
    def install_group(
        self, kind: str, shape: Tuple[int, ...], arrays: Dict[str, np.ndarray]
    ) -> None:
        """Install a stacked group: enqueue row-view items, retain the stacks."""
        key = (kind, tuple(shape))
        items = items_from_group(self.ring, kind, arrays)
        self._queues.setdefault(key, deque()).extend(items)
        self._buffers.setdefault(key, []).append(arrays)

    def group_buffers(
        self, kind: str, shape: Tuple[int, ...]
    ) -> List[Dict[str, np.ndarray]]:
        """The retained stacked share arrays of one (kind, shape) group."""
        return self._buffers.get((kind, tuple(shape)), [])

    # -- consumption (online) ------------------------------------------------ #
    def _exhausted(self, kind: str, shape: Tuple[int, ...]) -> PreprocessingExhausted:
        remaining_by_kind: Dict[str, int] = {}
        for (queued_kind, _shape), queue in self._queues.items():
            remaining_by_kind[queued_kind] = remaining_by_kind.get(queued_kind, 0) + len(queue)
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

    def _pop(self, kind: str, shape: Tuple[int, ...]):
        queue = self._queues.get((kind, tuple(shape)))
        if not queue:
            raise self._exhausted(kind, shape)
        self.served += 1
        return queue.popleft()

    # -- party restriction (networked runtime) ------------------------------- #
    def restrict_to_party(self, party: int) -> "RandomnessPool":
        """Release the other party's share-world of every queued item.

        In the deployment the dealer hands each server only *its* shares of
        the correlated randomness.  The single-process simulation keeps both
        worlds; a party process of the networked runtime calls this right
        after obtaining the pool so that it genuinely holds one share-world
        — and holds nothing else:

        - the other world's stacks become the read-only
          :func:`~repro.crypto.kernels.dead_lane` placeholder (no memory);
        - own-world stacks that are views into a multi-lane draw are copied
          out, so the draw itself is freed;
        - the queued items are rebuilt as row views of the result.

        The pool then pins exactly half of the manifest's material bytes.
        Restricting an already-restricted pool is a no-op for the same party
        and an error for the other one — the genuine share-world is already
        gone.
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
        other = 1 - party
        for (kind, shape), groups in self._buffers.items():
            for arrays in groups:
                for name in PARTY_FIELDS[kind][other]:
                    arrays[name] = dead_lane(arrays[name].shape, arrays[name].dtype)
                for name in PARTY_FIELDS[kind][party]:
                    if arrays[name].base is not None:
                        arrays[name] = arrays[name].copy()
            # the queue holds the tail of the groups' items (FIFO pops)
            queue = self._queues[(kind, shape)]
            items = [
                item for arrays in groups for item in items_from_group(self.ring, kind, arrays)
            ]
            self._queues[(kind, shape)] = deque(items[len(items) - len(queue) :])
        self.restricted_to = party
        return self

    # -- per-op partitioning (round-coalescing scheduler) --------------------- #
    def partition(self, request_groups) -> "List[RandomnessPool]":
        """Split the pool into per-consumer sub-pools, in manifest order.

        ``request_groups`` is an iterable of per-op
        :class:`~repro.crypto.protocols.registry.RandomnessRequest` sequences
        (e.g. ``[op.requests for op in plan.ops]``).  Each group's requests
        are tallied per (kind, shape) in one pass and the items moved as
        whole slices of the per-key FIFOs, so an op served from its sub-pool
        consumes the *identical* correlated randomness it would have drawn
        from the shared FIFO in a sequential execution — regardless of how a
        round-coalescing scheduler interleaves the ops.  Only item
        *references* move: no share array is copied or allocated, and the
        sub-pool items stay views into this pool's group buffers.  This pool
        is drained in the process.  An empty request group yields an empty
        sub-pool.
        """
        groups = [tuple(requests) for requests in request_groups]
        pools: "List[RandomnessPool]" = []
        moved = 0
        for requests in groups:
            sub = RandomnessPool(ring=self.ring, manifest_hash=self.manifest_hash)
            sub.restricted_to = self.restricted_to
            counts: Dict[Tuple[str, Tuple[int, ...]], int] = {}
            for request in requests:
                key = (request.kind, tuple(request.shape))
                counts[key] = counts.get(key, 0) + 1
            for key, count in counts.items():
                queue = self._queues.get(key)
                if queue is None or len(queue) < count:
                    raise self._exhausted(*key)
                sub._queues[key] = deque(islice(queue, 0, count))
                for _ in range(count):
                    queue.popleft()
                moved += count
            pools.append(sub)
        self.served += moved
        return pools

    def triple(
        self,
        shape_a: Tuple[int, ...],
        shape_b: Tuple[int, ...],
        product: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> BeaverTriple:
        # Elementwise (Hadamard) triples are the only form the manifest
        # provisions; serving one for a different bilinear product (matmul,
        # convolution) would yield wrong shares with no error, so reject any
        # product that is not this ring's elementwise multiplication.
        # (Bound-method equality compares the underlying function and ring.)
        if tuple(shape_a) != tuple(shape_b) or product != self.ring.mul:
            raise PreprocessingExhausted(
                "the randomness pool only provisions elementwise triples; "
                f"got operand shapes {tuple(shape_a)} vs {tuple(shape_b)} with "
                f"product {getattr(product, '__qualname__', product)!r}",
                kind="triple",
                shape=tuple(shape_a),
                manifest_hash=self.manifest_hash,
            )
        return self._pop("triple", shape_a)

    def square_pair(self, shape: Tuple[int, ...]) -> BeaverPair:
        return self._pop("square", shape)

    def bit_triple(self, shape: Tuple[int, ...]) -> BitTriple:
        return self._pop("bit", shape)

    def dabit(self, shape: Tuple[int, ...]) -> DaBit:
        return self._pop("dabit", shape)

    @property
    def remaining(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def remaining_by_kind(self) -> Dict[str, int]:
        """Remaining queued items per randomness kind."""
        totals: Dict[str, int] = {}
        for (kind, _shape), queue in self._queues.items():
            totals[kind] = totals.get(kind, 0) + len(queue)
        return totals
