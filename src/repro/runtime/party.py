"""One computing party of the networked 2PC runtime.

The paper deploys a searched network on *two physically separate* computing
parties.  This module is the per-party half of that deployment: a worker
that holds exactly one share-world (its input share, its half of the
correlated randomness) and jointly executes a compiled
:class:`~repro.crypto.plan.InferencePlan` with the peer over a
:class:`~repro.crypto.transport.Transport`.

How one program serves both parties
-----------------------------------

Every protocol in :mod:`repro.crypto.protocols` is written in SPMD form:
expressions that produce party-*i* values read only party-*i* inputs plus
values opened on the channel.  A party process therefore runs the *same*
program as the single-process simulation, with:

- only its own share lane live: the executor reads the party off the
  channel, so the fused kernels and the local steps of the polynomial and
  comparison protocols compute this party's lane alone and hand back the
  other as :func:`~repro.crypto.kernels.dead_lane` — one shared read-only
  zero that costs no memory and is never put on the wire;
- a :class:`~repro.crypto.channel.PartyChannel`, so every opened value is
  recombined from the share that genuinely crossed the transport;
- a :class:`~repro.crypto.dealer.RandomnessPool` of this party's world
  alone, regenerated from the shared session seed
  (``TrustedDealer.preprocess(plan, party=p)``, bit-identical to
  :meth:`~repro.crypto.dealer.RandomnessPool.restrict_to_party` of the
  full pool), so the other world's material is never held.

Because the randomness streams and openings are identical to the
single-process engine's, the reconstructed logits are bit-identical to
it — and the measured on-wire payload bytes equal the plan's prediction,
which :func:`verify_against_plan` asserts after every run.

Invariants (relied on by the persistent server and the serving pool):

1. **one share-world per process** — a party process never holds, receives
   or derives the peer's genuine shares, and neither computes nor stores
   the peer's lane: it is the read-only ``dead_lane`` placeholder, so an
   in-place write into it raises instead of computing on the peer's world
   (its pool holds only its own dealer material);
2. **canonical log, full-duplex wire** — both parties log the full
   conversation in one canonical order (party 0's message of a round
   first), so the two logs are identical to each other and to the
   simulated channel's; on the wire a round in which both parties send is
   a single full-duplex exchange (``Transport.exchange_arrays``: the two
   frames cross on the link, one link traversal per round), and a
   one-directional round is a plain send on one side and a receive on the
   other;
3. **payload == manifest** — after every execution, logged bytes, logged
   rounds and per-direction on-wire payload bytes must equal the compiled
   plan's static prediction exactly; a deviation is an error, not a
   warning.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import RandomnessPool
from repro.crypto.kernels import dead_lane
from repro.crypto.plan import InferencePlan
from repro.crypto.scheduler import PlanExecution, run_scheduled_plan
from repro.crypto.sharing import SharePair
from repro.crypto.transport import WireStats


def predicted_direction_bytes(plan: InferencePlan, sender: int) -> int:
    """Plan-predicted online payload bytes flowing out of ``sender``."""
    return sum(
        num_bytes
        for op in plan.ops
        for group in op.round_groups
        for event in group
        for message_sender, num_bytes in event
        if message_sender == sender
    )


def verify_against_plan(
    plan: InferencePlan, execution: PlanExecution, stats: WireStats
) -> None:
    """Assert the measured traffic equals the plan's static prediction.

    Checks three layers of accounting against the plan: the party's
    communication log (both directions, bytes and scheduled rounds), the
    payload bytes its transport actually serialized onto the wire, and the
    payload bytes it received.
    """
    party = execution.party
    checks = [
        ("logged online bytes", execution.communication_bytes, plan.online_bytes),
        ("logged online rounds", execution.communication_rounds, plan.online_rounds),
        (
            "on-wire payload bytes sent",
            stats.payload_bytes_sent,
            predicted_direction_bytes(plan, party),
        ),
        (
            "on-wire payload bytes received",
            stats.payload_bytes_received,
            predicted_direction_bytes(plan, 1 - party),
        ),
    ]
    for name, measured, predicted in checks:
        if measured != predicted:
            raise RuntimeError(
                f"party {party}: {name} = {measured} does not match the "
                f"plan's prediction {predicted} for "
                f"{plan.model_name!r} (batch {plan.batch_size})"
            )


def execute_plan_as_party(
    ctx: TwoPartyContext,
    party: int,
    plan: InferencePlan,
    weights: Dict[str, Dict[str, np.ndarray]],
    input_share: np.ndarray,
    pool: RandomnessPool,
) -> PlanExecution:
    """Run the online phase of ``plan`` holding only ``party``'s share-world.

    The same executor as the in-process engine
    (:func:`repro.crypto.scheduler.run_scheduled_plan`), here exchanging
    multi-tensor round frames with the peer.  ``ctx.channel`` must be the
    :class:`PartyChannel` of the same party: the returned record's
    ``logit_share`` is that lane of the output.  ``input_share`` is this
    party's additive share of the encoded query batch; the peer holds the
    complementary one.  ``pool`` is this party's restricted randomness pool
    of the session seed.  One RNG draw of the input shape is burned first to keep ``ctx.rng``
    aligned with the reference stream of the single-process path (which
    draws the sharing mask from the same generator).
    """
    input_share = np.asarray(input_share, dtype=np.uint64)
    if tuple(input_share.shape) != plan.input_shape:
        raise ValueError(
            f"plan expects input share of shape {plan.input_shape}, "
            f"got {input_share.shape}"
        )
    ring = ctx.ring
    ring.random(plan.input_shape, ctx.rng)  # burn the sharing-mask draw
    peer = dead_lane(plan.input_shape)
    if party == 0:
        shared = SharePair(input_share, peer, ring)
    else:
        shared = SharePair(peer, input_share, ring)
    return run_scheduled_plan(ctx, plan, weights, shared, pool)
