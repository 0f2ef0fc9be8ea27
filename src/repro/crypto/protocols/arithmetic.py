"""Polynomial (linear and multiplicative) operators over secret-shared data.

Implements the Beaver-triple based multiplication (Eq. 2) and square (Eq. 3)
protocols of Section II-B, plus elementwise helpers used by the secure
activation and pooling protocols.

Each interactive protocol is written as a *phase generator*
(:func:`multiply_phases`, :func:`square_phases`): local computation that
``yield``\\ s round groups of :class:`~repro.crypto.events.CommEvent` and
receives the opened values back from whichever driver runs it — the
sequential reference driver or the round-coalescing scheduler.  The plain
functions (:func:`multiply`, :func:`square`) drive the generator
sequentially and keep the original call-site API.  The plan compiler
records a generator's randomness requests and wire messages by running it
once (:func:`repro.crypto.plan.trace_op`), so no second description of a
protocol's cost exists.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.events import open_ring_event, run_phases
from repro.crypto.kernels import KERNELS, per_lane
from repro.crypto.ring import FixedPointRing
from repro.crypto.sharing import SharePair, sub_shares


def _cached_encode(ring: FixedPointRing, kc, public: np.ndarray) -> np.ndarray:
    """Encode a public constant, memoized by value for small tensors.

    The activation protocols rebuild their scalar constants (per-layer
    polynomial coefficients) as fresh arrays every call, so the memo keys on
    the *bytes* of the array — identical values across jobs share one
    encoding regardless of object identity.
    """
    public = np.asarray(public, dtype=np.float64)
    if kc is not None and public.size <= 256:
        key = ("pub-enc", public.tobytes(), public.shape)
        return kc.arena.cached(key, (), lambda: ring.encode(public))
    return ring.encode(public)


def multiply_phases(
    ctx: TwoPartyContext,
    x: SharePair,
    y: SharePair,
    truncate: bool = True,
    tag: str = "mul",
):
    """Secure elementwise product [R] = [X] ⊙ [Y] with a Beaver triple (Eq. 2).

    ``truncate`` should be True when both operands carry fixed-point scale
    (so the result must be rescaled by 2^{-f}) and False when one operand
    is a plain integer (e.g. a 0/1 selection bit).  Operands of different
    shapes raise :class:`ValueError`: there is no broadcasting triple.

    Phases: the E = X - A and F = Y - B openings are mutually independent,
    so they ride in one round group (``rec([E])`` / ``rec([F])`` of the
    paper share a round under coalescing).
    """
    if x.shape != y.shape:
        raise ValueError(f"multiply needs operands of one shape, got {x.shape} and {y.shape}")
    ring = ctx.ring
    triple = ctx.dealer.draw("triple", x.shape)
    a, b, z = triple["a"], triple["b"], triple["z"]
    kc = ctx.kernels
    live = ctx.live_lane

    # The channel owns the recombination: under a PartyChannel only this
    # party's difference share is computed and the other arrives on the wire.
    e = sub_shares(x, a, live)
    f = sub_shares(y, b, live)
    e, f = yield (
        open_ring_event(e.share0, e.share1, tag=f"{tag}/open-e"),
        open_ring_event(f.share0, f.share1, tag=f"{tag}/open-f"),
    )

    if kc is not None and ring.ring_bits == 64:
        # One fused in-place recombination kernel replaces the eight
        # ring-call intermediates of the reference chain below.
        r0, r1 = KERNELS["beaver-recombine"](
            x.share0, x.share1, y.share0, y.share1, e, f,
            z.share0, z.share1, live=live,
        )
        if truncate:
            r0, r1 = KERNELS["truncate-pair"](ring, r0, r1, live=live)
        kc.count()
        return SharePair(r0, r1, ring)

    # R_Si = -i * E⊙F + X_Si⊙F + E⊙Y_Si + Z_Si      (Eq. 2)
    r0 = ring.add(ring.add(ring.mul(x.share0, f), ring.mul(e, y.share0)), z.share0)
    r1 = ring.add(ring.add(ring.mul(x.share1, f), ring.mul(e, y.share1)), z.share1)
    r1 = ring.sub(r1, ring.mul(e, f))

    result = SharePair(r0, r1, ring)
    if truncate:
        result = SharePair(
            ring.truncate_local(result.share0, party=0),
            ring.truncate_local(result.share1, party=1),
            ring,
        )
    return result


def multiply(
    ctx: TwoPartyContext,
    x: SharePair,
    y: SharePair,
    truncate: bool = True,
    tag: str = "mul",
) -> SharePair:
    """Sequential entry point of :func:`multiply_phases`."""
    return run_phases(ctx, multiply_phases(ctx, x, y, truncate=truncate, tag=tag))


def square_phases(
    ctx: TwoPartyContext, x: SharePair, truncate: bool = True, tag: str = "square"
):
    """Secure elementwise square [R] = [X] ⊙ [X] with a Beaver pair (Eq. 3)."""
    ring = ctx.ring
    pair = ctx.dealer.draw("square", x.shape)
    a, z = pair["a"], pair["z"]
    kc = ctx.kernels
    live = ctx.live_lane
    e = sub_shares(x, a, live)
    (e,) = yield (open_ring_event(e.share0, e.share1, tag=f"{tag}/open-e"),)
    if kc is not None and ring.ring_bits == 64:
        r0, r1 = KERNELS["square-recombine"](
            e, a.share0, a.share1, z.share0, z.share1, live=live
        )
        if truncate:
            r0, r1 = KERNELS["truncate-pair"](ring, r0, r1, live=live)
        kc.count()
        return SharePair(r0, r1, ring)
    with np.errstate(over="ignore"):
        # R_Si = Z_Si + 2 E ⊙ A_Si + E ⊙ E (the E⊙E term is public; add once)
        two_e = ring.scalar_mul(e, 2)
        r0 = ring.add(z.share0, ring.mul(two_e, a.share0))
        r1 = ring.add(z.share1, ring.mul(two_e, a.share1))
        r0 = ring.add(r0, ring.mul(e, e))
    result = SharePair(r0, r1, ring)
    if truncate:
        result = SharePair(
            ring.truncate_local(result.share0, party=0),
            ring.truncate_local(result.share1, party=1),
            ring,
        )
    return result


def square(ctx: TwoPartyContext, x: SharePair, truncate: bool = True, tag: str = "square") -> SharePair:
    """Sequential entry point of :func:`square_phases`."""
    return run_phases(ctx, square_phases(ctx, x, truncate=truncate, tag=tag))


def multiply_public(
    ctx: TwoPartyContext, x: SharePair, public: np.ndarray, tag: str = "mul-public"
) -> SharePair:
    """Multiply a shared tensor by a public real-valued tensor (no interaction)."""
    ring = ctx.ring
    kc = ctx.kernels
    if kc is not None and ring.ring_bits == 64:
        encoded = _cached_encode(ring, kc, public)
        s0, s1 = KERNELS["scale-encoded"](ring, x.share0, x.share1, encoded, live=kc.live)
        kc.count()
        return SharePair(s0, s1, ring)
    encoded = ring.encode(np.asarray(public, dtype=np.float64))
    with np.errstate(over="ignore"):
        s0 = ring.truncate_local(ring.mul(x.share0, encoded), party=0)
        s1 = ring.truncate_local(ring.mul(x.share1, encoded), party=1)
    return SharePair(s0, s1, ring)


def add_public(ctx: TwoPartyContext, x: SharePair, public: np.ndarray) -> SharePair:
    """Add a public real-valued tensor to a shared tensor (S0 adds by convention)."""
    ring = ctx.ring
    kc = ctx.kernels
    if kc is not None and ring.ring_bits == 64:
        encoded = _cached_encode(ring, kc, public)

        def lane(i: int) -> np.ndarray:
            if i == 1:
                return x.share1.copy()
            with np.errstate(over="ignore"):
                return np.add(x.share0, encoded)

        kc.count()
        return SharePair(*per_lane(kc.live, x.shape, lane), ring)
    encoded = ring.encode(np.asarray(public, dtype=np.float64))
    return SharePair(ring.add(x.share0, np.broadcast_to(encoded, x.shape).copy()), x.share1.copy(), ring)
