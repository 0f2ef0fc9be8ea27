"""The plan executor: round-coalescing, kernel-bound, and the only one.

:func:`run_scheduled_plan` is the single online-phase executor, shared by the
in-process engine (:meth:`repro.crypto.secure_model.SecureInferenceEngine.execute`)
and the networked party runtime (:func:`repro.runtime.party.execute_plan_as_party`).
It walks the :class:`~repro.crypto.passes.PlanSchedule` level by level,
drives the phase generators of all the level's ops in lock-step, and hands
each round's merged event group to :meth:`repro.crypto.channel.Channel.run_round`
— so the *scheduler*, not the protocol handlers, decides what hits the wire,
and every coalesced round is one framed message per direction.  Events carry
their wire element width (``element_bits``), so the per-op byte attribution
below and the round frames themselves both account sub-byte payloads at
packed widths — identical to the manifest's round trace.

Bit-identity with the sequential oracle
---------------------------------------

Each op must consume exactly the correlated randomness it would have drawn
in a sequential execution (local truncation makes the reconstructed logits
sensitive to the dealer stream).  When the online phase runs against a
:class:`~repro.crypto.dealer.RandomnessPool`, the pool is first partitioned
per op **in manifest order** (:meth:`RandomnessPool.partition`), so an op's
draws are independent of how the scheduler interleaves the level's
generators.  For chain-structured plans (every zoo model) the context RNG
stream is also consumed in sequential order — levels hold one op — making
scheduled execution bit-identical to :func:`repro.crypto.events.run_reference`,
which ``tests/crypto/test_zoo.py`` asserts zoo-wide.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import RandomnessPool
from repro.crypto.events import as_group, group_direction_bytes
from repro.crypto.kernels import KernelContext, arena_for, default_thread_workers
from repro.crypto.passes import ScheduledPlan
from repro.crypto.plan import PLAN_INPUT
from repro.crypto.protocols.registry import get_handler
from repro.crypto.sharing import SharePair


def arena_key(splan: ScheduledPlan) -> Tuple:
    """The workspace-arena key of one plan: same model, batch and ring
    parameters share scratch buffers and encoded-constant caches across
    jobs (see :func:`repro.crypto.kernels.arena_for`)."""
    ring = splan.ring
    return (splan.model_name, splan.batch_size, ring.ring_bits, ring.frac_bits)


def run_scheduled_plan(
    ctx: TwoPartyContext,
    splan: ScheduledPlan,
    weights: Dict[str, Dict],
    shared: SharePair,
    profile: Optional[Dict[str, object]] = None,
) -> Tuple[SharePair, Dict[str, int]]:
    """Execute the online phase of a scheduled plan.

    Args:
        ctx: the party's (or the simulation's) two-party context; its
            channel must support :meth:`~repro.crypto.channel.Channel.run_round`
            and its dealer should be the preprocessed randomness pool.
        splan: the optimized plan (see :func:`repro.crypto.passes.optimize_plan`).
        weights: mapping layer-name -> parameter dict.
        shared: the share pair of the client query batch.
        profile: optional dict the executor fills with local-compute
            counters — ``per_op_cpu_ns`` (generator time per op, wire waits
            excluded), ``cpu_time_ns`` (their sum) and
            ``fused_kernel_calls``.

    Returns:
        ``(output_shares, per_op_bytes)`` — the final op's output and the
        exact per-op online byte attribution (independent of how rounds were
        merged across ops).

    The executor installs a :class:`~repro.crypto.kernels.KernelContext` on
    ``ctx`` for the duration of the run: the protocol handlers then dispatch
    their local compute to the fused kernels, sharing one
    per-``(plan, batch)`` workspace arena across jobs.
    """
    plan = splan.plan
    per_op_cpu: Dict[str, int] = {op.name: 0 for op in plan.ops}
    kernel_ctx = KernelContext(
        arena=arena_for(arena_key(splan)),
        thread_workers=default_thread_workers(),
    )
    #: op outputs by name (ADD ops read their residual input from it)
    values: Dict[str, SharePair] = {PLAN_INPUT: shared}
    per_op_bytes: Dict[str, int] = {op.name: 0 for op in plan.ops}

    outer_dealer = ctx.dealer
    if isinstance(outer_dealer, RandomnessPool):
        op_pools = outer_dealer.partition([op.requests for op in plan.ops])
    else:
        # lazy dealer: generation order equals consumption order, which for
        # chain plans (one op per level) matches the sequential stream
        op_pools = [outer_dealer] * len(plan.ops)

    clock = time.perf_counter_ns
    rounds_executed = 0
    ctx.kernels = kernel_ctx
    try:
        for level in splan.schedule.levels:
            live: Dict[int, Tuple[object, Optional[tuple]]] = {}
            for op_index in level:
                op = plan.ops[op_index]
                handler = get_handler(op.kind)
                gen = handler.phases(
                    ctx, op.layer, weights.get(op.name, {}), values[op.uses[0]], values
                )
                live[op_index] = (gen, None)
            while live:
                round_entries = []
                for op_index in sorted(live):
                    gen, feed = live[op_index]
                    ctx.dealer = op_pools[op_index]
                    started = clock()
                    try:
                        group = as_group(gen.send(feed))
                    except StopIteration as stop:
                        op = plan.ops[op_index]
                        per_op_cpu[op.name] += clock() - started
                        values[op.name] = stop.value
                        del live[op_index]
                        continue
                    per_op_cpu[plan.ops[op_index].name] += clock() - started
                    round_entries.append((op_index, group))
                if round_entries:
                    flat = [event for _, group in round_entries for event in group]
                    results = ctx.channel.run_round(flat)
                    rounds_executed += 1
                    position = 0
                    for op_index, group in round_entries:
                        count = len(group)
                        live[op_index] = (
                            live[op_index][0],
                            tuple(results[position : position + count]),
                        )
                        position += count
                        from_0, from_1 = group_direction_bytes(
                            group, ctx.channel.element_bytes
                        )
                        per_op_bytes[plan.ops[op_index].name] += from_0 + from_1
    finally:
        ctx.dealer = outer_dealer
        ctx.kernels = None
        if profile is not None:
            profile["per_op_cpu_ns"] = per_op_cpu
            profile["cpu_time_ns"] = sum(per_op_cpu.values())
            profile["fused_kernel_calls"] = kernel_ctx.fused_calls

    if rounds_executed != splan.schedule.num_rounds:
        raise RuntimeError(
            f"scheduled execution of {plan.model_name!r} performed "
            f"{rounds_executed} rounds but the schedule predicted "
            f"{splan.schedule.num_rounds} — a protocol handler's phase "
            "generator has drifted from its trace"
        )
    return values[plan.ops[-1].name if plan.ops else PLAN_INPUT], per_op_bytes
