"""One computing party of the networked 2PC runtime.

The paper deploys a searched network on *two physically separate* computing
parties.  This module is the per-party half of that deployment: a worker
that holds exactly one share-world (its input share, its half of the
correlated randomness) and jointly executes a
:class:`~repro.crypto.passes.ScheduledPlan` with the peer over a
:class:`~repro.crypto.transport.Transport`.

How one program serves both parties
-----------------------------------

Every protocol in :mod:`repro.crypto.protocols` is written in SPMD form:
expressions that produce party-*i* values read only party-*i* inputs plus
values opened on the channel.  A party process therefore runs the *same*
program as the single-process simulation, with:

- its own share-world genuine and the other world zero-filled (the other
  world's expressions compute garbage that is never consumed and never put
  on the wire);
- a :class:`~repro.crypto.channel.PartyChannel`, so every opened value is
  recombined from the share that genuinely crossed the transport;
- a :class:`~repro.crypto.dealer.RandomnessPool` regenerated from the shared
  session seed and then restricted to this party's world
  (:meth:`~repro.crypto.dealer.RandomnessPool.restrict_to_party`).

Because the randomness streams and openings are identical to the
single-process engine's, the reconstructed logits are bit-identical to
it — and the measured on-wire payload bytes equal the manifest prediction,
which :func:`verify_against_plan` asserts after every run.

Invariants (relied on by the persistent server and the serving pool):

1. **one share-world per process** — a party process never holds, receives
   or derives the peer's genuine shares; the other world's lanes of the
   SPMD program carry zero-filled garbage that is never consumed and never
   put on the wire (``RandomnessPool.restrict_to_party`` enforces this for
   the dealer material);
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

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import RandomnessPool
from repro.crypto.passes import ScheduledPlan
from repro.crypto.scheduler import run_scheduled_plan
from repro.crypto.sharing import SharePair
from repro.crypto.transport import WireStats


@dataclass
class PartyExecution:
    """Outcome of one plan execution from a single party's perspective."""

    party: int
    logit_share: np.ndarray
    communication_bytes: int
    communication_rounds: int
    per_layer_bytes: Dict[str, int] = field(default_factory=dict)
    #: frame-format-v1 equivalent of ``communication_bytes`` (no sub-byte
    #: packing) — the denominator of the ``bytes_saved`` serving stats
    unpacked_bytes: int = 0
    #: local-compute time of the online phase (wire waits excluded)
    cpu_time_ns: int = 0
    #: per-op attribution of ``cpu_time_ns``
    per_op_cpu_ns: Dict[str, int] = field(default_factory=dict)
    #: fused-kernel invocations of the online phase
    fused_kernel_calls: int = 0


def predicted_direction_bytes(plan: ScheduledPlan, sender: int) -> int:
    """Manifest-predicted online payload bytes flowing out of ``sender``."""
    return sum(
        num_bytes
        for op in plan.ops
        for msg_sender, num_bytes in op.messages
        if msg_sender == sender
    )


def verify_against_plan(
    plan: ScheduledPlan, execution: PartyExecution, stats: WireStats
) -> None:
    """Assert the measured traffic equals the plan's static prediction.

    Checks three layers of accounting against the manifest: the party's
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
                f"manifest prediction {predicted} for plan "
                f"{plan.model_name!r} (batch {plan.batch_size})"
            )


def execute_plan_as_party(
    ctx: TwoPartyContext,
    party: int,
    plan: ScheduledPlan,
    weights: Dict[str, Dict[str, np.ndarray]],
    input_share: np.ndarray,
    pool: Optional[RandomnessPool] = None,
) -> PartyExecution:
    """Run the online phase of ``plan`` holding only ``party``'s share-world.

    The same executor as the in-process engine
    (:func:`repro.crypto.scheduler.run_scheduled_plan`), here exchanging
    multi-tensor round frames with the peer.  ``ctx.channel`` must be a
    :class:`PartyChannel` for the same party (or a simulated channel in
    tests).  ``input_share`` is this party's additive
    share of the encoded query batch; the peer holds the complementary one.
    One RNG draw of the input shape is burned first to keep ``ctx.rng``
    aligned with the reference stream of the single-process path (which
    draws the sharing mask from the same generator).
    """
    input_share = np.asarray(input_share, dtype=np.uint64)
    if tuple(input_share.shape) != plan.input_shape:
        raise ValueError(
            f"plan expects input share of shape {plan.input_shape}, "
            f"got {input_share.shape}"
        )
    if pool is None:
        pool = ctx.dealer.preprocess(plan)

    ring = ctx.ring
    ring.random(plan.input_shape, ctx.rng)  # burn the sharing-mask draw
    zeros = np.zeros(plan.input_shape, dtype=np.uint64)
    if party == 0:
        shared = SharePair(input_share, zeros, ring)
    else:
        shared = SharePair(zeros, input_share, ring)

    dealer = ctx.dealer
    ctx.dealer = pool
    profile: Dict[str, object] = {}
    try:
        ctx.reset_communication()
        shared, per_layer = run_scheduled_plan(
            ctx, plan, weights, shared, profile=profile
        )
        logit_share = shared.share0 if party == 0 else shared.share1
    finally:
        ctx.dealer = dealer

    return PartyExecution(
        party=party,
        logit_share=logit_share,
        communication_bytes=ctx.communication_bytes,
        communication_rounds=ctx.communication_rounds,
        per_layer_bytes=per_layer,
        unpacked_bytes=ctx.channel.log.total_unpacked_bytes,
        cpu_time_ns=profile["cpu_time_ns"],
        per_op_cpu_ns=profile["per_op_cpu_ns"],
        fused_kernel_calls=profile["fused_kernel_calls"],
    )
