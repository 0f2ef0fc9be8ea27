"""Secure pooling: 2PC-MaxPool (comparison-based) and 2PC-AvgPool (linear)."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.events import run_phases
from repro.crypto.kernels import per_lane
from repro.crypto.protocols.comparison import drelu_phases, select_phases
from repro.crypto.protocols.registry import register_protocol
from repro.crypto.sharing import SharePair, add_shares, scale_shares, sub_shares
from repro.models.specs import LayerKind, LayerSpec


def _window_shape(shape: Tuple[int, ...], kernel: int, stride: int) -> Tuple[int, ...]:
    """``(K*K, N, C, OH, OW)``: the pooling windows of an NCHW tensor."""
    n, c, h, w = shape
    return (kernel * kernel, n, c, (h - kernel) // stride + 1, (w - kernel) // stride + 1)


def _extract_windows(share: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Rearrange an NCHW share into windows (K*K, N, C, OH, OW): row ``j``
    holds the ``j``-th element of every window, contiguous."""
    window_shape = _window_shape(share.shape, kernel, stride)
    sn, sc, sh, sw = share.strides
    windows = np.lib.stride_tricks.as_strided(
        share,
        shape=(kernel, kernel) + window_shape[1:],
        strides=(sh, sw, sn, sc, sh * stride, sw * stride),
        writeable=False,
    )
    return windows.reshape(window_shape).copy()


def _tournament_levels(rows: int):
    """The pair counts of a tournament over ``rows`` window elements, level
    by level: each level compares ``rows // 2`` stacked pairs and an odd row
    carries, so ``ceil(log2(rows))`` levels reduce a window."""
    while rows > 1:
        yield rows // 2
        rows -= rows // 2


def secure_maxpool2d_phases(
    ctx: TwoPartyContext,
    x: SharePair,
    kernel_size: int = 2,
    stride: int | None = None,
    tag: str = "maxpool",
):
    """2PC-MaxPool: window maxima via a tournament of secure pairwise maxima.

    max(a, b) = a + ReLU(b - a), so each comparison costs one comparison flow
    plus one multiplexer — this is why MaxPool is nearly as expensive as
    ReLU under 2PC (Eq. 13).  Each tournament level stacks all its window
    pairs into one ``(pairs, N, C, OH, OW)`` DReLU and one select: the same
    ``k^2 - 1`` comparisons in ``ceil(log2(k^2))`` levels.  Only the held
    share lanes are computed.
    """
    stride = stride or kernel_size
    live = ctx.live_lane
    shares = (x.share0, x.share1)
    window_shape = _window_shape(x.shape, kernel_size, stride)
    rows = per_lane(live, window_shape, lambda i: _extract_windows(shares[i], kernel_size, stride))
    remaining = window_shape[0]
    for level, pairs in enumerate(_tournament_levels(remaining)):
        first = SharePair(*(lane[0 : 2 * pairs : 2] for lane in rows), ctx.ring)
        second = SharePair(*(lane[1 : 2 * pairs : 2] for lane in rows), ctx.ring)
        diff = sub_shares(second, first, live=live)
        bit = yield from drelu_phases(ctx, diff, tag=f"{tag}/cmp{level}")
        gated = yield from select_phases(ctx, diff, bit, tag=f"{tag}/sel{level}")
        winners = add_shares(first, gated, live=live)
        winner_lanes = (winners.share0, winners.share1)
        remaining -= pairs
        # the winners, then the odd row that carries to the next level
        rows = per_lane(
            live,
            (remaining,) + window_shape[1:],
            lambda i: np.concatenate([winner_lanes[i], rows[i][2 * pairs :]]),
        )
    return SharePair(rows[0][0], rows[1][0], ctx.ring)


def secure_maxpool2d(
    ctx: TwoPartyContext,
    x: SharePair,
    kernel_size: int = 2,
    stride: int | None = None,
    tag: str = "maxpool",
) -> SharePair:
    """Sequential entry point of :func:`secure_maxpool2d_phases`."""
    return run_phases(
        ctx,
        secure_maxpool2d_phases(ctx, x, kernel_size=kernel_size, stride=stride, tag=tag),
    )


def secure_avgpool2d(
    ctx: TwoPartyContext,
    x: SharePair,
    kernel_size: int = 2,
    stride: int | None = None,
    tag: str = "avgpool",
) -> SharePair:
    """2PC-AvgPool: window sum (local) followed by a public scaling."""
    stride = stride or kernel_size
    ring = ctx.ring
    win0 = _extract_windows(x.share0, kernel_size, stride)
    win1 = _extract_windows(x.share1, kernel_size, stride)
    with np.errstate(over="ignore"):
        sum0 = ring.wrap(win0.sum(axis=0, dtype=np.uint64))
        sum1 = ring.wrap(win1.sum(axis=0, dtype=np.uint64))
    summed = SharePair(sum0, sum1, ring)
    return scale_shares(summed, 1.0 / (kernel_size * kernel_size))


def secure_global_avgpool(ctx: TwoPartyContext, x: SharePair, tag: str = "gap") -> SharePair:
    """Global average pooling producing (N, C) shares."""
    ring = ctx.ring
    n, c, h, w = x.shape
    with np.errstate(over="ignore"):
        sum0 = ring.wrap(x.share0.reshape(n, c, -1).sum(axis=-1, dtype=np.uint64))
        sum1 = ring.wrap(x.share1.reshape(n, c, -1).sum(axis=-1, dtype=np.uint64))
    summed = SharePair(sum0, sum1, ring)
    return scale_shares(summed, 1.0 / (h * w))


# --------------------------------------------------------------------------- #
# Plan-runtime handlers
# --------------------------------------------------------------------------- #
def _pool_infer_shape(layer: LayerSpec, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    return _window_shape(input_shape, layer.kernel, layer.stride)[1:]


@register_protocol(LayerKind.MAXPOOL, infer_shape=_pool_infer_shape)
def _run_maxpool(
    ctx: TwoPartyContext,
    layer: LayerSpec,
    params: Dict[str, np.ndarray],
    x: SharePair,
    cache: Dict[str, SharePair],
):
    result = yield from secure_maxpool2d_phases(
        ctx, x, kernel_size=layer.kernel, stride=layer.stride, tag=layer.name or "maxpool"
    )
    return result


@register_protocol(LayerKind.AVGPOOL, infer_shape=_pool_infer_shape)
def _run_avgpool(
    ctx: TwoPartyContext,
    layer: LayerSpec,
    params: Dict[str, np.ndarray],
    x: SharePair,
    cache: Dict[str, SharePair],
) -> SharePair:
    return secure_avgpool2d(ctx, x, kernel_size=layer.kernel, stride=layer.stride)


def _gap_infer_shape(layer: LayerSpec, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    return (input_shape[0], input_shape[1])


@register_protocol(LayerKind.GLOBAL_AVGPOOL, infer_shape=_gap_infer_shape)
def _run_global_avgpool(
    ctx: TwoPartyContext,
    layer: LayerSpec,
    params: Dict[str, np.ndarray],
    x: SharePair,
    cache: Dict[str, SharePair],
) -> SharePair:
    return secure_global_avgpool(ctx, x)
