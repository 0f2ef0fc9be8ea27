"""Secure argmax / maximum over the class dimension.

The final step of a private-inference service is returning the predicted
class.  Revealing the full logit vector leaks more than necessary, so the
standard practice is a secure argmax: a comparison tree over the logits that
outputs only the index of the maximum (or shares of the maximum value).

Both routines reuse the DReLU comparison flow of
:mod:`repro.crypto.protocols.comparison`, so their cost scales like
``(num_classes - 1)`` comparisons.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.events import open_ring_event
from repro.crypto.protocols.comparison import drelu, select
from repro.crypto.sharing import SharePair, add_shares, sub_shares


def secure_max(ctx: TwoPartyContext, x: SharePair, tag: str = "max") -> SharePair:
    """Shares of the row-wise maximum of a (N, C) shared tensor."""
    ring = ctx.ring
    n, c = x.shape
    current = SharePair(x.share0[:, 0].copy(), x.share1[:, 0].copy(), ring)
    for index in range(1, c):
        candidate = SharePair(x.share0[:, index].copy(), x.share1[:, index].copy(), ring)
        diff = sub_shares(candidate, current)
        bit = drelu(ctx, diff, tag=f"{tag}/cmp{index}")
        gated = select(ctx, diff, bit, tag=f"{tag}/sel{index}")
        current = add_shares(current, gated)
    return current


def secure_argmax(
    ctx: TwoPartyContext, x: SharePair, tag: str = "argmax"
) -> Tuple[np.ndarray, SharePair]:
    """Row-wise argmax of a (N, C) shared logit tensor.

    Returns the plaintext class indices (revealed to the client — this is the
    inference result) together with shares of the winning logit value, which
    stays secret.  The tournament walks the classes sequentially, updating a
    one-hot encoded index with the comparison bit of each round.
    """
    ring = ctx.ring
    n, c = x.shape
    current_value = SharePair(x.share0[:, 0].copy(), x.share1[:, 0].copy(), ring)
    # Additive shares of the (integer) running argmax index.
    index_shares = SharePair(
        np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64), ring
    )
    for index in range(1, c):
        candidate = SharePair(x.share0[:, index].copy(), x.share1[:, index].copy(), ring)
        diff = sub_shares(candidate, current_value)
        bit = drelu(ctx, diff, tag=f"{tag}/cmp{index}")
        # value update: current += bit * (candidate - current)
        gated = select(ctx, diff, bit, tag=f"{tag}/val{index}")
        current_value = add_shares(current_value, gated)
        # index update: index += bit * (i - index); the running index is kept
        # as a plain (unscaled) integer in the ring, and select is exact.
        gap0 = ring.wrap(np.full(n, index, dtype=np.uint64))
        index_gap = sub_shares(
            SharePair(gap0, np.zeros(n, dtype=np.uint64), ring), index_shares
        )
        delta = select(ctx, index_gap, bit, tag=f"{tag}/idx{index}")
        index_shares = add_shares(index_shares, delta)

    (revealed,) = ctx.channel.run_round(
        (open_ring_event(index_shares.share0, index_shares.share1, tag=f"{tag}/open"),)
    )
    return revealed.astype(np.int64), current_value
