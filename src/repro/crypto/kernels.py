"""Fused local-compute kernels of the plan executor.

The plan's round groups fix the communication; this module attacks the
other half of the online cost — the per-op numpy call chains of the
protocol handlers.  The executor
(:func:`repro.crypto.scheduler.run_scheduled_plan`) installs a
:class:`KernelContext` for every run, and the handlers then dispatch to:

- **fused composite kernels** (registered in :data:`KERNELS`) replace the
  per-op ``ring.add``/``ring.sub``/``ring.truncate_local`` chains with
  single in-place passes over freshly-owned arrays — Beaver/square
  recombination, SecureML truncation, public-constant scale/add, the
  multi-input AND (:class:`~repro.crypto.andgates.AndTable`) and
  one-round select finishes;
- **live lanes only** — a party process holds one share-world
  (:attr:`KernelContext.live`), so every kernel computes that lane alone
  and returns :func:`dead_lane` for the other; the in-process engine holds
  both and stacks them: a public-weight convolution or matmul runs both
  lanes through *one* im2col + matmul over a ``2N`` batch (the bilinear
  maps are per-sample, so lane stacking is bit-identical to two separate
  calls);
- a per-``(plan, batch)`` :class:`WorkspaceArena` owns the im2col/padding
  scratch and the encoded-weight constants, so a warm server re-allocates
  nothing on the serving path.

Every kernel is exact modulo :math:`2^{64}`: it performs the same uint64
operations as the reference protocol code, only without the intermediate
copies (``truncate_local`` round-trips through three dtype conversions).
Fused execution is therefore **bit-identical** to the reference path —
asserted per kernel and live lane in ``tests/crypto/test_kernels.py`` and
zoo-wide, against the sequential oracle
(:func:`repro.crypto.events.run_reference`), by ``tests/crypto/test_zoo.py``.

Kernels require the 64-bit ring (dtype-view tricks assume no masking); the
protocol entry points keep their reference chains for narrower rings and
for callers outside the executor — the standalone protocol functions and
the oracle run with ``ctx.kernels is None``.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.crypto.andgates import and_table, pack_planes, unpack_planes
from repro.crypto.ring import FixedPointRing

#: registry of fused local-compute kernels, keyed by kernel name
KERNELS: Dict[str, Callable] = {}


def register_kernel(name: str) -> Callable:
    """Class-less registration decorator: ``KERNELS[name] = fn``."""

    def decorator(fn: Callable) -> Callable:
        if name in KERNELS:
            raise ValueError(f"kernel {name!r} registered twice")
        KERNELS[name] = fn
        fn.kernel_name = name
        return fn

    return decorator


# --------------------------------------------------------------------------- #
# Workspace arena
# --------------------------------------------------------------------------- #
class WorkspaceArena:
    """Reusable scratch buffers and identity-keyed constants for one plan key.

    Two facilities, both profiled through ``hits``/``misses``:

    - :meth:`get` — a named scratch buffer of a given shape/dtype, allocated
      once and handed back on every later request (the im2col workspace, the
      stacked-lane input buffer);
    - :meth:`cached` — a constant memo (encoded weights, folded batch norms)
      keyed by a name *and* the identity of its source arrays: the builder
      re-runs whenever the caller passes different source objects, so a
      cache hit can never serve stale math.  A stale entry is *replaced* in
      place (same key, new refs), and the memo is additionally LRU-bounded
      so callers whose keys churn (e.g. value-keyed constants) cannot grow a
      long-lived arena without bound.

    An arena belongs to one ``(plan, batch)`` key on one thread (see
    :func:`arena_for`); the scheduler activates it for the duration of a
    job, and a warm server reuses it across jobs.
    """

    #: LRU capacity of the constant memo — generous next to a real plan's
    #: working set (a few entries per layer), small next to unbounded growth
    CACHE_MAX_ENTRIES = 1024

    def __init__(self, key: object = None) -> None:
        self.key = key
        self._buffers: Dict[object, np.ndarray] = {}
        self._cache: Dict[object, Tuple[tuple, object]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, name: object, shape: Tuple[int, ...], dtype=np.uint64):
        """Return ``(buffer, fresh)`` — ``fresh`` is True on (re)allocation."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[name] = buffer
            self.misses += 1
            return buffer, True
        self.hits += 1
        return buffer, False

    def cached(self, name: object, refs: tuple, build: Callable[[], object]):
        """Memoize ``build()`` under ``name``, revalidated by ``refs`` identity."""
        entry = self._cache.get(name)
        if entry is not None:
            cached_refs, value = entry
            if len(cached_refs) == len(refs) and all(
                a is b for a, b in zip(cached_refs, refs)
            ):
                # LRU touch: dicts iterate in insertion order, so re-inserting
                # keeps eviction pointed at the coldest entry
                self._cache[name] = self._cache.pop(name)
                self.hits += 1
                return value
            # stale refs: drop the old entry (and the source arrays it pins)
            # before rebuilding, so a churning key replaces instead of leaks
            del self._cache[name]
        value = build()
        while len(self._cache) >= self.CACHE_MAX_ENTRIES:
            self._cache.pop(next(iter(self._cache)))
        self._cache[name] = (tuple(refs), value)
        self.misses += 1
        return value

    @property
    def bytes_held(self) -> int:
        """Total bytes of the live scratch buffers (not the constant cache)."""
        return sum(buf.nbytes for buf in self._buffers.values())


_LOCAL = threading.local()


def arena_for(key: object) -> WorkspaceArena:
    """The calling thread's arena for ``key``, created on first use.

    Arenas are thread-local so a multi-threaded frontend can never hand two
    concurrent jobs the same scratch buffer; a party-server process (one
    serving thread) reuses one arena per ``(plan, batch)`` key across its
    whole lifetime.
    """
    registry = getattr(_LOCAL, "arenas", None)
    if registry is None:
        registry = _LOCAL.arenas = {}
    arena = registry.get(key)
    if arena is None:
        arena = registry[key] = WorkspaceArena(key)
    return arena


def clear_arenas() -> None:
    """Drop the calling thread's arenas (test isolation)."""
    _LOCAL.arenas = {}


# --------------------------------------------------------------------------- #
# Live and dead share lanes
# --------------------------------------------------------------------------- #
def _read_only_zero(dtype) -> np.ndarray:
    zero = np.zeros((), dtype=dtype)
    zero.flags.writeable = False
    return zero


#: the 0-d zeros every dead lane broadcasts, one per lane dtype (ring words,
#: bit planes); read-only, so no view of them can be made writeable
_ZEROS = {np.dtype(dtype): _read_only_zero(dtype) for dtype in (np.uint64, np.uint8)}


@functools.lru_cache(maxsize=4096)
def dead_lane(shape: Tuple[int, ...], dtype=np.uint64) -> np.ndarray:
    """The placeholder of a share lane this process does not hold.

    A read-only broadcast of one module-level zero, shaped like the lane: it
    costs no memory, and any in-place write into it raises — so a party
    process cannot silently compute on the peer's world.  Being immutable,
    one placeholder per ``(shape, dtype)`` is built and then shared.
    """
    return np.broadcast_to(_ZEROS[np.dtype(dtype)], shape)


def per_lane(
    live: Optional[int],
    shape: Tuple[int, ...],
    compute: Callable[[int], np.ndarray],
    dtype=np.uint64,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(compute(0), compute(1))`` with :func:`dead_lane` for a lane not held.

    ``live`` is the one lane a party process holds, or None when both are
    (the in-process engine).  ``shape`` and ``dtype`` describe the lane
    ``compute`` would have returned.
    """
    return tuple(
        compute(lane) if live is None or live == lane else dead_lane(shape, dtype)
        for lane in (0, 1)
    )


# --------------------------------------------------------------------------- #
# Kernel context
# --------------------------------------------------------------------------- #
@dataclass
class KernelContext:
    """Per-execution kernel state the scheduler attaches to the 2PC context.

    ``live`` is the share lane this process holds — the party of a
    :class:`~repro.crypto.channel.PartyChannel` — or None when it holds both
    (the in-process engine); kernels compute the live lanes only.
    ``fused_calls`` counts fused-kernel invocations for the execution record
    surfaced in engine results and serving stats.
    """

    arena: WorkspaceArena = field(default_factory=WorkspaceArena)
    live: Optional[int] = None
    fused_calls: int = 0

    def count(self, n: int = 1) -> None:
        self.fused_calls += n


# --------------------------------------------------------------------------- #
# Fused elementwise kernels (exact uint64, in-place over fresh arrays)
# --------------------------------------------------------------------------- #
def _truncate_lane(ring: FixedPointRing, share: np.ndarray, party: int) -> np.ndarray:
    """SecureML truncation of one *freshly owned* lane, in place.

    Bit-identical to ``ring.truncate_local(share, party)``: the int64 view
    replaces ``to_signed`` (a reinterpretation either way) and the shift
    happens in place instead of through the wrap → shift → double-``astype``
    copy chain.
    """
    if ring.ring_bits != 64:
        return ring.truncate_local(share, party)
    signed = share.view(np.int64)
    if party == 1:
        np.negative(signed, out=signed)
    np.right_shift(signed, ring.frac_bits, out=signed)
    if party == 1:
        np.negative(signed, out=signed)
    return share


@register_kernel("truncate-pair")
def truncate_pair(
    ring: FixedPointRing,
    share0: np.ndarray,
    share1: np.ndarray,
    live: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """In-place SecureML truncation of a *freshly owned* share pair.

    Bit-identical to ``(ring.truncate_local(share0, 0),
    ring.truncate_local(share1, 1))`` on the live lanes.  Callers must own
    the live arrays (they are mutated and returned).
    """
    lanes = (share0, share1)
    return per_lane(live, share0.shape, lambda i: _truncate_lane(ring, lanes[i], i))


@register_kernel("beaver-recombine")
def beaver_recombine(
    x0: np.ndarray,
    x1: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    e: np.ndarray,
    f: np.ndarray,
    z0: np.ndarray,
    z1: np.ndarray,
    live: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused Beaver recombination ``R_Si = -i·E⊙F + X_Si⊙F + E⊙Y_Si + Z_Si``.

    One scratch temporary per lane instead of six ``ring``-call
    intermediates; exact wrap-around uint64 arithmetic, so the result equals
    the reference chain bit for bit.  All operands must share one shape (the
    elementwise case).
    """
    xs, ys, zs = (x0, x1), (y0, y1), (z0, z1)

    def lane(i: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            r = np.multiply(xs[i], f)
            scratch = np.multiply(e, ys[i])
            np.add(r, scratch, out=r)
            np.add(r, zs[i], out=r)
            if i == 1:
                np.multiply(e, f, out=scratch)
                np.subtract(r, scratch, out=r)
        return r

    return per_lane(live, e.shape, lane)


@register_kernel("square-recombine")
def square_recombine(
    e: np.ndarray,
    a0: np.ndarray,
    a1: np.ndarray,
    z0: np.ndarray,
    z1: np.ndarray,
    live: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused square recombination ``R_Si = Z_Si + 2E⊙A_Si (+ E⊙E on lane 0)``."""
    a_lanes, z_lanes = (a0, a1), (z0, z1)
    with np.errstate(over="ignore"):
        two_e = np.multiply(e, np.uint64(2))

    def lane(i: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            r = np.multiply(two_e, a_lanes[i])
            np.add(r, z_lanes[i], out=r)
            if i == 0:
                np.add(r, np.multiply(e, e), out=r)
        return r

    return per_lane(live, e.shape, lane)


@register_kernel("scale-encoded")
def scale_encoded(
    ring: FixedPointRing,
    share0: np.ndarray,
    share1: np.ndarray,
    encoded: np.ndarray,
    live: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Multiply the live lanes by a pre-encoded public constant, truncate in place."""
    lanes = (share0, share1)

    def lane(i: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            return _truncate_lane(ring, np.multiply(lanes[i], encoded), i)

    return per_lane(live, np.broadcast_shapes(share0.shape, np.shape(encoded)), lane)


@register_kernel("add-encoded")
def add_encoded(
    share0: np.ndarray,
    share1: np.ndarray,
    encoded: np.ndarray,
    live: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Add a pre-encoded public constant onto a *freshly owned* lane-0 share."""
    lanes = (share0, share1)

    def lane(i: int) -> np.ndarray:
        if i == 0:
            with np.errstate(over="ignore"):
                np.add(share0, encoded, out=share0)
        return lanes[i]

    return per_lane(live, share0.shape, lane)


# --------------------------------------------------------------------------- #
# Multi-input AND: the comparison tree's radix-k combine (ABY2.0)
# --------------------------------------------------------------------------- #
@register_kernel("and-table")
def and_table_finish(
    d: np.ndarray,
    lam0: np.ndarray,
    lam1: np.ndarray,
    radix: int,
    outputs: int,
    live: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused multi-input AND finish over the opened inputs ``d = x ⊕ λ``.

    ``d`` stacks the combine's ``(inputs,) + S`` opened bits, ``lam0`` /
    ``lam1`` the XOR shares of its :class:`~repro.crypto.andgates.AndTable`
    planes, each bit-packed over ``S``; returns each lane's ``(outputs,) +
    S`` shares of the product terms (without the linear ``gt_0``).  The
    public coefficient planes are computed once, packed, then each held lane
    is one AND with its share planes and one XOR-reduction per output —
    eight elements a byte.
    """
    table = and_table(radix, outputs)
    element = d.shape[1:]
    stack = np.empty((len(table.subsets) + 1, lam0.shape[-1]), dtype=np.uint8)
    stack[: table.inputs] = pack_planes(d)
    stack[-1] = 0xFF
    table.products(stack)
    (_, first), *layers = table.coef_layers
    coefficients = stack[first]
    for rows, terms in layers:
        coefficients[rows] ^= stack[terms]
    held = len(table.lane_planes)
    lams = (lam0, lam1)

    def lane(i: int) -> np.ndarray:
        terms = np.take(lams[i], table.lane_planes, axis=0)
        np.bitwise_and(terms, coefficients[:held], out=terms)
        z = np.empty((outputs, terms.shape[-1]), dtype=np.uint8)
        for output, (start, stop) in enumerate(table.lane_bounds):
            np.bitwise_xor.reduce(terms[start:stop], axis=0, out=z[output])
        if i == 0:
            np.bitwise_xor(z, coefficients[held:], out=z)
        return unpack_planes(z, element)

    return per_lane(live, (outputs,) + element, lane, dtype=np.uint8)


@register_kernel("select-finish")
def select_finish(
    c: np.ndarray,
    e: np.ndarray,
    x0: np.ndarray,
    x1: np.ndarray,
    r0: np.ndarray,
    r1: np.ndarray,
    ra0: np.ndarray,
    ra1: np.ndarray,
    live: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused one-round select finish over opened ``c = b⊕r`` and ``e = x - a``.

    With ``t = e·[r] + [r·a]`` (shares of ``r·x``), a lane's share of
    ``b·x`` is ``x - t`` where ``c`` is set and ``t`` elsewhere.
    """
    xs, rs, ras = (x0, x1), (r0, r1), (ra0, ra1)
    flip = c.astype(bool, copy=False)

    def lane(i: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            t = np.multiply(e, rs[i])
            np.add(t, ras[i], out=t)
            np.subtract(xs[i], t, out=t, where=flip)
        return t

    return per_lane(live, e.shape, lane)


# --------------------------------------------------------------------------- #
# Lane-stacked linear algebra
# --------------------------------------------------------------------------- #
def _held(live: Optional[int]) -> Tuple[int, ...]:
    return (0, 1) if live is None else (live,)


def _unstack(out: np.ndarray, live: Optional[int], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split a lane-stacked output (held lanes in order, ``n`` rows each)
    back into ``(lane0, lane1)`` views, :func:`dead_lane` for the other."""
    held = _held(live)

    def lane(i: int) -> np.ndarray:
        slot = held.index(i)
        return out[slot * n : (slot + 1) * n]

    return per_lane(live, (n,) + out.shape[1:], lane)


@register_kernel("stacked-matmul")
def stacked_matmul(
    share0: np.ndarray,
    share1: np.ndarray,
    w_enc_t: np.ndarray,
    arena: Optional[WorkspaceArena] = None,
    live: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The live share lanes through one ``(LN, K) @ (K, M)`` ring matmul.

    ``L`` is 2 in-process and 1 in a party process.  Row blocks of a matmul
    are independent, so each lane's result is the same uint64 values a
    separate ``ring_matmul`` call produces.  Returns views into one freshly
    allocated output (safe to truncate in place).
    """
    n = share0.shape[0]
    if live is None:
        arena = arena if arena is not None else WorkspaceArena()
        stacked, _ = arena.get(("matmul-lanes", share0.shape), (2 * n,) + share0.shape[1:])
        stacked[:n] = share0
        stacked[n:] = share1
    else:
        stacked = (share0, share1)[live]
    with np.errstate(over="ignore"):
        out = np.matmul(stacked, w_enc_t)
    return _unstack(out, live, n)


@register_kernel("stacked-conv2d")
def stacked_conv2d(
    share0: np.ndarray,
    share1: np.ndarray,
    w_enc: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    arena: Optional[WorkspaceArena] = None,
    live: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The live share lanes through one im2col convolution over an ``LN`` batch.

    Convolution is per-sample along the batch axis, so stacking the lanes is
    bit-identical to one :func:`repro.crypto.protocols.linear.ring_conv2d`
    call per lane — with one padded fill, one column gather and one matmul
    for all of them.  The padded input and the im2col column buffer live in
    the arena; the padding border is written once per buffer lifetime (the
    interior overwrite never touches it).  Returns views into one fresh
    output, safe to truncate in place.
    """
    arena = arena if arena is not None else WorkspaceArena()
    n, ic, h, w = share0.shape
    oc, icg, kh, kw = w_enc.shape
    if ic % groups or oc % groups:
        raise ValueError(f"channels ({ic}, {oc}) not divisible by groups={groups}")
    if icg != ic // groups:
        raise ValueError(
            f"weight expects {icg} input channels per group, input has {ic // groups}"
        )
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    held = _held(live)
    rows = len(held) * n

    if padding or live is None:
        lanes, fresh = arena.get(("conv-pad", (rows, ic, hp, wp), padding), (rows, ic, hp, wp))
        if padding and fresh:
            lanes.fill(0)
        for slot, lane in enumerate(held):
            lanes[slot * n : (slot + 1) * n, :, padding : padding + h, padding : padding + w] = (
                (share0, share1)[lane]
            )
    else:
        lanes = (share0, share1)[live]  # one unpadded lane: gather straight from it

    sn, sc, sh, sw = lanes.strides
    windows = np.lib.stride_tricks.as_strided(
        lanes,
        shape=(rows, ic, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    if groups == 1:
        cols, _ = arena.get(
            ("conv-cols", (rows, ic * kh * kw, oh * ow)),
            (rows, ic * kh * kw, oh * ow),
        )
        np.copyto(cols.reshape(rows, ic, kh, kw, oh, ow), windows)
        w_mat = w_enc.reshape(oc, ic * kh * kw)[None, :, :]
    else:
        ocg = oc // groups
        cols, _ = arena.get(
            ("conv-cols-g", (rows, groups, icg * kh * kw, oh * ow)),
            (rows, groups, icg * kh * kw, oh * ow),
        )
        np.copyto(cols.reshape(rows, ic, kh, kw, oh, ow), windows)
        w_mat = w_enc.reshape(groups, ocg, icg * kh * kw)[None, :, :, :]
    with np.errstate(over="ignore"):
        out = np.matmul(w_mat, cols)
    return _unstack(out.reshape(rows, oc, oh, ow), live, n)
