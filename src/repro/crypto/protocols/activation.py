"""Secure activation functions: 2PC-ReLU and 2PC-X^2act.

2PC-ReLU needs the OT-based comparison flow (expensive — the motivation for
the whole paper); 2PC-X^2act needs one square protocol plus plaintext-scalar
multiplications (cheap).  The plan-runtime handlers for both activation
layer kinds are registered at the bottom of the module.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.events import run_phases
from repro.crypto.protocols.arithmetic import add_public, multiply_public, square_phases
from repro.crypto.protocols.comparison import drelu_phases, select_phases
from repro.crypto.protocols.registry import register_protocol, same_shape
from repro.crypto.sharing import SharePair, add_shares
from repro.models.specs import LayerKind, LayerSpec


def secure_relu_phases(ctx: TwoPartyContext, x: SharePair, tag: str = "relu"):
    """2PC-ReLU: ReLU(x) = x * DReLU(x) via comparison + multiplexing."""
    bit = yield from drelu_phases(ctx, x, tag=f"{tag}/drelu")
    result = yield from select_phases(ctx, x, bit, tag=f"{tag}/select")
    return result


def secure_relu(ctx: TwoPartyContext, x: SharePair, tag: str = "relu") -> SharePair:
    """Sequential entry point of :func:`secure_relu_phases`."""
    return run_phases(ctx, secure_relu_phases(ctx, x, tag=tag))


def secure_x2act_phases(
    ctx: TwoPartyContext,
    x: SharePair,
    w1: float,
    w2: float,
    b: float,
    num_elements: Optional[int] = None,
    scale_constant: float = 1.0,
    tag: str = "x2act",
):
    """2PC-X^2act: delta(x) = (c/sqrt(Nx)) * w1 * x^2 + w2 * x + b.

    ``w1``, ``w2`` and ``b`` are the trained polynomial coefficients (model
    parameters, public to the compute servers in the paper's deployment);
    ``num_elements`` is Nx, the number of elements of the feature map, and
    ``scale_constant`` is the constant c of Eq. 4.
    """
    n_x = num_elements if num_elements is not None else int(np.prod(x.shape[1:]))
    effective_w1 = scale_constant / math.sqrt(max(n_x, 1)) * w1
    squared = yield from square_phases(ctx, x, truncate=True, tag=f"{tag}/square")
    quad_term = multiply_public(ctx, squared, np.array(effective_w1), tag=f"{tag}/w1")
    lin_term = multiply_public(ctx, x, np.array(w2), tag=f"{tag}/w2")
    out = add_shares(quad_term, lin_term, live=ctx.live_lane)
    return add_public(ctx, out, np.array(b))


def secure_x2act(
    ctx: TwoPartyContext,
    x: SharePair,
    w1: float,
    w2: float,
    b: float,
    num_elements: Optional[int] = None,
    scale_constant: float = 1.0,
    tag: str = "x2act",
) -> SharePair:
    """Sequential entry point of :func:`secure_x2act_phases`."""
    return run_phases(
        ctx,
        secure_x2act_phases(
            ctx,
            x,
            w1=w1,
            w2=w2,
            b=b,
            num_elements=num_elements,
            scale_constant=scale_constant,
            tag=tag,
        ),
    )


# --------------------------------------------------------------------------- #
# Plan-runtime handlers
# --------------------------------------------------------------------------- #
@register_protocol(LayerKind.RELU, infer_shape=same_shape)
def _run_relu(
    ctx: TwoPartyContext,
    layer: LayerSpec,
    params: Dict[str, np.ndarray],
    x: SharePair,
    cache: Dict[str, SharePair],
):
    result = yield from secure_relu_phases(ctx, x, tag=layer.name or "relu")
    return result


@register_protocol(LayerKind.X2ACT, infer_shape=same_shape)
def _run_x2act(
    ctx: TwoPartyContext,
    layer: LayerSpec,
    params: Dict[str, np.ndarray],
    x: SharePair,
    cache: Dict[str, SharePair],
):
    result = yield from secure_x2act_phases(
        ctx,
        x,
        w1=float(params.get("w1", 0.0)),
        w2=float(params.get("w2", 1.0)),
        b=float(params.get("b", 0.0)),
        num_elements=layer.num_activation_elements(),
        scale_constant=float(params.get("c", 1.0)),
        tag=layer.name or "x2act",
    )
    return result
