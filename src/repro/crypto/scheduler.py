"""The plan executor: round-coalescing, kernel-bound, and the only one.

:func:`run_scheduled_plan` is the single online-phase executor, shared by the
in-process engine (:meth:`repro.crypto.secure_model.SecureInferenceEngine.execute`)
and the networked party runtime (:func:`repro.runtime.party.execute_plan_as_party`).
It walks the :class:`~repro.crypto.plan.InferencePlan`'s ops in order,
drives each op's phase generator to completion and hands every yielded event
group to :meth:`repro.crypto.channel.Channel.run_round` — so the *executor*,
not the protocol handlers, decides what hits the wire, and every round group
is one framed message per direction.  Events carry their wire element width
(``element_bits``), so the per-op byte attribution below and the round
frames themselves both account sub-byte payloads at packed widths —
identical to the manifest's round trace.

Bit-identity with the sequential oracle
---------------------------------------

Each op must consume exactly the correlated randomness it would have drawn
in a sequential execution (local truncation makes the reconstructed logits
sensitive to the dealer stream).  The online phase runs only against a
:class:`~repro.crypto.dealer.RandomnessPool`, which is first partitioned
per op **in manifest order** (:meth:`RandomnessPool.partition`): the per-op
randomness budget, so an op that draws more than its trace declares fails
instead of eating the next op's material.  Ops run in plan order and
residual inputs are threaded by name, exactly as in
:func:`repro.crypto.events.run_reference`, which makes execution
bit-identical to the oracle — ``tests/crypto/test_zoo.py`` asserts it
zoo-wide.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.crypto.channel import PartyChannel
from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import RandomnessPool
from repro.crypto.events import as_group, group_direction_bytes
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


def run_scheduled_plan(
    ctx: TwoPartyContext,
    plan: InferencePlan,
    weights: Dict[str, Dict],
    shared: SharePair,
    profile: Optional[Dict[str, object]] = None,
) -> Tuple[SharePair, Dict[str, int]]:
    """Execute the online phase of a compiled plan.

    Args:
        ctx: the party's (or the simulation's) two-party context; its
            channel must support :meth:`~repro.crypto.channel.Channel.run_round`
            and its dealer must be the plan's preprocessed randomness pool
            (:meth:`~repro.crypto.dealer.TrustedDealer.preprocess`).
        plan: the compiled plan (see :func:`repro.crypto.plan.compile_plan`).
        weights: mapping layer-name -> parameter dict.
        shared: the share pair of the client query batch.
        profile: optional dict the executor fills with local-compute
            counters — ``per_op_cpu_ns`` (generator time per op, wire waits
            excluded), ``cpu_time_ns`` (their sum) and
            ``fused_kernel_calls``.

    Returns:
        ``(output_shares, per_op_bytes)`` — the final op's output and the
        exact per-op online byte attribution.

    The executor installs a :class:`~repro.crypto.kernels.KernelContext` on
    ``ctx`` for the duration of the run: the protocol handlers then dispatch
    their local compute to the fused kernels, sharing one
    per-``(plan, batch)`` workspace arena across jobs.  The live lane comes
    from the channel: over a :class:`~repro.crypto.channel.PartyChannel`
    only that party's share lane is computed (the other is the read-only
    :func:`~repro.crypto.kernels.dead_lane`); the in-process channel keeps
    both.
    """
    per_op_cpu: Dict[str, int] = {op.name: 0 for op in plan.ops}
    per_op_bytes: Dict[str, int] = {op.name: 0 for op in plan.ops}
    kernel_ctx = KernelContext(
        arena=arena_for(arena_key(plan)),
        live=ctx.channel.party if isinstance(ctx.channel, PartyChannel) else None,
    )
    #: op outputs by name (ADD ops read their residual input from it)
    values: Dict[str, SharePair] = {}

    outer_dealer = ctx.dealer
    if not isinstance(outer_dealer, RandomnessPool):
        raise TypeError(
            "run_scheduled_plan consumes a preprocessed RandomnessPool as "
            f"ctx.dealer, got {type(outer_dealer).__name__}; obtain one with "
            "TrustedDealer.preprocess(plan)"
        )
    op_pools = outer_dealer.partition([op.requests for op in plan.ops])

    clock = time.perf_counter_ns
    rounds_executed = 0
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
                feed = tuple(ctx.channel.run_round(group))
                rounds_executed += 1
                from_0, from_1 = group_direction_bytes(group, ctx.channel.element_bytes)
                per_op_bytes[op.name] += from_0 + from_1
    finally:
        ctx.dealer = outer_dealer
        ctx.kernels = None
        if profile is not None:
            profile["per_op_cpu_ns"] = per_op_cpu
            profile["cpu_time_ns"] = sum(per_op_cpu.values())
            profile["fused_kernel_calls"] = kernel_ctx.fused_calls

    if rounds_executed != plan.num_rounds:
        raise RuntimeError(
            f"execution of {plan.model_name!r} performed {rounds_executed} "
            f"rounds but the plan predicted {plan.num_rounds} — a protocol "
            "handler's phase generator yielded other round groups than the "
            "plan recorded"
        )
    return shared, per_op_bytes
