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
sequentially and keep the original call-site API.

Next to each protocol lives its *trace* function (:func:`multiply_trace`,
:func:`square_trace`), which declares the exact correlated-randomness
requests and wire messages of one invocation for the plan compiler (see
:mod:`repro.crypto.plan`).  Trace groups and generator yields must be kept
in lockstep — the preprocessing manifest and the round schedule are exact
only because they are.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.events import open_ring_event, run_phases
from repro.crypto.kernels import KERNELS
from repro.crypto.protocols.registry import OpTrace, element_bytes, open_trace_event
from repro.crypto.ring import FixedPointRing
from repro.crypto.sharing import SharePair


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
    product: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    truncate: bool = True,
    tag: str = "mul",
):
    """Secure product [R] = [X] ⊗ [Y] with a Beaver triple (Eq. 2).

    ``product`` is the bilinear map on ring elements (defaults to the
    Hadamard product).  ``truncate`` should be True when both operands carry
    fixed-point scale (so the result must be rescaled by 2^{-f}) and False
    when one operand is a plain integer (e.g. a 0/1 selection bit).

    Phases: the E = X - A and F = Y - B openings are mutually independent,
    so they ride in one round group (``rec([E])`` / ``rec([F])`` of the
    paper share a round under coalescing).
    """
    ring = ctx.ring
    prod = product or ring.mul
    triple = ctx.dealer.triple(x.shape, y.shape, prod)

    e0 = ring.sub(x.share0, triple.a.share0)
    e1 = ring.sub(x.share1, triple.a.share1)
    f0 = ring.sub(y.share0, triple.b.share0)
    f1 = ring.sub(y.share1, triple.b.share1)
    # The channel owns the recombination: under a PartyChannel only this
    # party's difference share is genuine and the other arrives on the wire.
    e, f = yield (
        open_ring_event(e0, e1, tag=f"{tag}/open-e"),
        open_ring_event(f0, f1, tag=f"{tag}/open-f"),
    )

    kc = ctx.kernels
    if kc is not None and product is None and ring.ring_bits == 64:
        # Elementwise case: one fused in-place recombination kernel replaces
        # the eight ring-call intermediates of the reference chain below.
        r0, r1 = KERNELS["beaver-recombine"](
            x.share0, x.share1, y.share0, y.share1, e, f,
            triple.z.share0, triple.z.share1,
        )
        if truncate:
            r0, r1 = KERNELS["truncate-pair"](ring, r0, r1)
        kc.count()
        return SharePair(r0, r1, ring)

    with np.errstate(over="ignore"):
        # R_Si = -i * E⊗F + X_Si⊗F + E⊗Y_Si + Z_Si      (Eq. 2)
        ef = ring.wrap(prod(e, f))
        r0 = ring.add(ring.add(ring.wrap(prod(x.share0, f)), ring.wrap(prod(e, y.share0))), triple.z.share0)
        r1 = ring.add(ring.add(ring.wrap(prod(x.share1, f)), ring.wrap(prod(e, y.share1))), triple.z.share1)
        r1 = ring.sub(r1, ef)

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
    product: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    truncate: bool = True,
    tag: str = "mul",
) -> SharePair:
    """Sequential entry point of :func:`multiply_phases`."""
    return run_phases(ctx, multiply_phases(ctx, x, y, product=product, truncate=truncate, tag=tag))


def multiply_trace(shape: Tuple[int, ...], ring: FixedPointRing) -> OpTrace:
    """Offline/online trace of one elementwise :func:`multiply` call:
    one Beaver triple, then the E and F openings in one round group."""
    n = int(np.prod(shape)) if shape else 1
    eb = element_bytes(ring)
    trace = OpTrace().request("triple", shape)
    # open E = X - A and F = Y - B: independent, one coalescible group
    trace.group([open_trace_event(n * eb), open_trace_event(n * eb)])
    return trace


def square_phases(
    ctx: TwoPartyContext, x: SharePair, truncate: bool = True, tag: str = "square"
):
    """Secure elementwise square [R] = [X] ⊙ [X] with a Beaver pair (Eq. 3)."""
    ring = ctx.ring
    pair = ctx.dealer.square_pair(x.shape)
    e0 = ring.sub(x.share0, pair.a.share0)
    e1 = ring.sub(x.share1, pair.a.share1)
    (e,) = yield (open_ring_event(e0, e1, tag=f"{tag}/open-e"),)
    kc = ctx.kernels
    if kc is not None and ring.ring_bits == 64:
        r0, r1 = KERNELS["square-recombine"](
            e, pair.a.share0, pair.a.share1, pair.z.share0, pair.z.share1
        )
        if truncate:
            r0, r1 = KERNELS["truncate-pair"](ring, r0, r1)
        kc.count()
        return SharePair(r0, r1, ring)
    with np.errstate(over="ignore"):
        # R_Si = Z_Si + 2 E ⊙ A_Si + E ⊙ E (the E⊙E term is public; add once)
        two_e = ring.scalar_mul(e, 2)
        r0 = ring.add(pair.z.share0, ring.mul(two_e, pair.a.share0))
        r1 = ring.add(pair.z.share1, ring.mul(two_e, pair.a.share1))
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


def square_trace(shape: Tuple[int, ...], ring: FixedPointRing) -> OpTrace:
    """Trace of one :func:`square` call: one Beaver pair, one opening."""
    n = int(np.prod(shape)) if shape else 1
    trace = OpTrace().request("square", shape)
    trace.exchange(n * element_bytes(ring))  # open E = X - A
    return trace


def multiply_public(
    ctx: TwoPartyContext, x: SharePair, public: np.ndarray, tag: str = "mul-public"
) -> SharePair:
    """Multiply a shared tensor by a public real-valued tensor (no interaction)."""
    ring = ctx.ring
    kc = ctx.kernels
    if kc is not None and ring.ring_bits == 64:
        encoded = _cached_encode(ring, kc, public)
        s0, s1 = KERNELS["scale-encoded"](ring, x.share0, x.share1, encoded)
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
        with np.errstate(over="ignore"):
            s0 = np.add(x.share0, encoded)
        kc.count()
        return SharePair(s0, x.share1.copy(), ring)
    encoded = ring.encode(np.asarray(public, dtype=np.float64))
    return SharePair(ring.add(x.share0, np.broadcast_to(encoded, x.shape).copy()), x.share1.copy(), ring)
