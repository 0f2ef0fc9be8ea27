"""Structural (communication-free) ops of the plan runtime: FLATTEN and ADD.

Neither op touches the wire or the dealer — flattening is a local reshape of
each share and residual addition is the local share addition of Eq. 1 — but
both need handlers so the compiler can infer shapes and the executor can
dispatch every layer kind through the same registry.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.protocols.registry import register_protocol, same_shape
from repro.crypto.sharing import SharePair, add_shares
from repro.models.specs import LayerKind, LayerSpec


def _flatten_infer_shape(layer: LayerSpec, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    n = input_shape[0]
    return (n, int(np.prod(input_shape[1:])))


@register_protocol(LayerKind.FLATTEN, infer_shape=_flatten_infer_shape)
def _run_flatten(
    ctx: TwoPartyContext,
    layer: LayerSpec,
    params: Dict[str, np.ndarray],
    x: SharePair,
    cache: Dict[str, SharePair],
) -> SharePair:
    n = x.shape[0]
    return SharePair(
        x.share0.reshape(n, -1).copy(), x.share1.reshape(n, -1).copy(), x.ring
    )


def _add_infer_shape(layer: LayerSpec, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    if not layer.residual_from:
        raise NotImplementedError(
            "secure inference of ADD layers requires an identity shortcut "
            "(residual_from); analysis-only specs with projection shortcuts "
            "cannot be executed directly"
        )
    return same_shape(layer, input_shape)


@register_protocol(LayerKind.ADD, infer_shape=_add_infer_shape)
def _run_add(
    ctx: TwoPartyContext,
    layer: LayerSpec,
    params: Dict[str, np.ndarray],
    x: SharePair,
    cache: Dict[str, SharePair],
) -> SharePair:
    if not layer.residual_from:
        raise NotImplementedError(
            "secure inference of ADD layers requires an identity shortcut "
            "(residual_from); analysis-only specs with projection shortcuts "
            "cannot be executed directly"
        )
    return add_shares(x, cache[layer.residual_from], live=ctx.live_lane)
