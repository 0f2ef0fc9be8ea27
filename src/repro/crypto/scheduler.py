"""The plan executor: round-coalescing, kernel-bound, and the only one.

:func:`run_scheduled_plan` is the single online-phase executor, shared by the
in-process engine (:meth:`repro.crypto.secure_model.SecureInferenceEngine.execute`)
and the networked party runtime (:func:`repro.runtime.party.execute_plan_as_party`).
It walks the :class:`~repro.crypto.plan.InferencePlan`'s ops in order,
drives each op's phase generator to completion and hands every yielded event
group to :meth:`repro.crypto.channel.Channel.run_round` — so the *executor*,
not the protocol handlers, decides what hits the wire, and every round group
is one framed message per direction.  Events carry their wire element width
(``element_bits``), so the channel log the per-op byte attribution reads
and the round frames themselves both account sub-byte payloads at packed
widths — identical to the plan's round trace.  A run returns one
:class:`PlanExecution` record, the only account of it every caller reads.

Bit-identity with the sequential oracle
---------------------------------------

Each op must consume exactly the correlated randomness it would have drawn
in a sequential execution (local truncation makes the reconstructed logits
sensitive to the dealer stream).  The online phase runs only against the
:class:`~repro.crypto.dealer.RandomnessPool` handed to the executor, which
first partitions it per op **in manifest order**
(:meth:`RandomnessPool.partition`): the per-op randomness budget, so an
op that draws more than its trace declares fails instead of eating the
next op's material.  Ops run in plan order and residual inputs are
threaded by name, exactly as in
:func:`repro.crypto.events.run_reference`, which makes execution
bit-identical to the oracle — ``tests/crypto/test_zoo.py`` asserts it
zoo-wide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.crypto.channel import PartyChannel
from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import RandomnessPool
from repro.crypto.events import as_group
from repro.crypto.kernels import KernelContext, arena_for
from repro.crypto.plan import InferencePlan
from repro.crypto.protocols.registry import get_handler
from repro.crypto.sharing import SharePair


def arena_key(plan: InferencePlan) -> Tuple:
    """The workspace-arena key of one plan: same model, batch and ring
    parameters share scratch buffers and encoded-constant caches across
    jobs (see :func:`repro.crypto.kernels.arena_for`)."""
    ring = plan.ring
    return (plan.model_name, plan.batch_size, ring.ring_bits, ring.frac_bits)




@dataclass(frozen=True)
class PlanExecution:
    """What one online-phase run of a plan did, as the executor measured it.

    ``output`` is the final op's share pair; over a
    :class:`~repro.crypto.channel.PartyChannel` only lane ``party`` of it is
    live (``party`` is None in process, where both are).  Bytes and rounds
    are the channel log's; ``per_op_cpu_ns`` is each op's generator time,
    wire waits excluded.
    """

    output: SharePair
    party: Optional[int]
    communication_bytes: int
    communication_rounds: int
    per_op_bytes: Dict[str, int]
    per_op_cpu_ns: Dict[str, int]
    fused_kernel_calls: int

    @property
    def cpu_time_ns(self) -> int:
        """Local-compute time of the online phase, summed over ops."""
        return sum(self.per_op_cpu_ns.values())

    @property
    def logit_share(self) -> np.ndarray:
        """The live party's share of the output (a party run only)."""
        return (self.output.share0, self.output.share1)[self.party]


def run_scheduled_plan(
    ctx: TwoPartyContext,
    plan: InferencePlan,
    weights: Dict[str, Dict],
    shared: SharePair,
    pool: RandomnessPool,
) -> PlanExecution:
    """Execute the online phase of a compiled plan.

    Args:
        ctx: the party's (or the simulation's) two-party context; its
            channel's log is cleared first and holds this run's
            conversation afterwards.
        plan: the compiled plan (see :func:`repro.crypto.plan.compile_plan`).
        weights: mapping layer-name -> parameter dict.
        shared: the share pair of the client query batch.
        pool: the plan's preprocessed randomness
            (:meth:`~repro.crypto.dealer.TrustedDealer.preprocess`); each op
            draws from its own partition of it.

    The executor installs a :class:`~repro.crypto.kernels.KernelContext` on
    ``ctx`` for the duration of the run: the protocol handlers then dispatch
    their local compute to the fused kernels, sharing one
    per-``(plan, batch)`` workspace arena across jobs.  The live lane comes
    from the channel: over a :class:`~repro.crypto.channel.PartyChannel`
    only that party's share lane is computed (the other is the read-only
    :func:`~repro.crypto.kernels.dead_lane`); the in-process channel keeps
    both.
    """
    if not isinstance(pool, RandomnessPool):
        raise TypeError(
            "run_scheduled_plan consumes a preprocessed RandomnessPool, got "
            f"{type(pool).__name__}; obtain one with TrustedDealer.preprocess(plan)"
        )
    op_pools = pool.partition([op.requests for op in plan.ops])
    per_op_cpu: Dict[str, int] = {op.name: 0 for op in plan.ops}
    per_op_bytes: Dict[str, int] = {op.name: 0 for op in plan.ops}
    kernel_ctx = KernelContext(
        arena=arena_for(arena_key(plan)),
        live=ctx.channel.party if isinstance(ctx.channel, PartyChannel) else None,
    )
    #: op outputs by name (ADD ops read their residual input from it)
    values: Dict[str, SharePair] = {}

    clock = time.perf_counter_ns
    rounds_executed = 0
    ctx.reset_communication()
    # the channel logs each round's per-direction bytes; an op's bytes are
    # the entries its rounds appended (sizes are walked once, by the log)
    logged = ctx.channel.log.messages
    outer_dealer = ctx.dealer
    ctx.kernels = kernel_ctx
    try:
        for op, op_pool in zip(plan.ops, op_pools):
            ctx.dealer = op_pool
            gen = get_handler(op.kind).phases(
                ctx, op.layer, weights.get(op.name, {}), shared, values
            )
            feed = None
            while True:
                started = clock()
                try:
                    group = as_group(gen.send(feed))
                except StopIteration as stop:
                    shared = values[op.name] = stop.value
                    break
                finally:
                    per_op_cpu[op.name] += clock() - started
                before = len(logged)
                feed = tuple(ctx.channel.run_round(group))
                rounds_executed += 1
                per_op_bytes[op.name] += sum(m.num_bytes for m in logged[before:])
    finally:
        ctx.dealer = outer_dealer
        ctx.kernels = None

    if rounds_executed != plan.num_rounds:
        raise RuntimeError(
            f"execution of {plan.model_name!r} performed {rounds_executed} "
            f"rounds but the plan predicted {plan.num_rounds} — a protocol "
            "handler's phase generator yielded other round groups than the "
            "plan recorded"
        )
    return PlanExecution(
        output=shared,
        party=kernel_ctx.live,
        communication_bytes=ctx.communication_bytes,
        communication_rounds=ctx.communication_rounds,
        per_op_bytes=per_op_bytes,
        per_op_cpu_ns=per_op_cpu,
        fused_kernel_calls=kernel_ctx.fused_calls,
    )
