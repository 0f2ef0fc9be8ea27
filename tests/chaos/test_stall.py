"""Stalls and jitter are survivable: no retry, no eviction, same logits.

A stall parks one direction of the link mid-protocol (here: during the
comparison tree's first round of a ReLU model) without closing it — the job must ride it
out and come back bit-identical, with the stall visible only as latency.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import compile_plan
from repro.crypto.plan import record_phases
from repro.crypto.protocols.comparison import millionaire_gt_phases
from repro.crypto.protocols.registry import group_direction_totals
from repro.models.specs import LayerKind
from tests.chaos.conftest import make_chaos_pool


def _first_tree_level_recv_round(spec, batch_size: int) -> int:
    """Party 1's recv-direction round index of the first tree level of the
    compiled plan's first comparison: the round frames S0 sends before it."""
    plan = compile_plan(spec, batch_size=batch_size)
    at = next(i for i, op in enumerate(plan.ops) if op.kind in (LayerKind.RELU, LayerKind.MAXPOOL))
    first = plan.ops[at]
    assert first.kind == LayerKind.RELU
    # its groups open with the digit OT; the next one is the tree's first level
    zeros = np.zeros(first.input_shape, dtype=np.uint64)
    comparison, _ = record_phases(
        lambda c: millionaire_gt_phases(c, zeros, zeros, bit_width=plan.ring.ring_bits), plan.ring
    )
    assert first.round_groups[1] == comparison.groups[1]
    before = [group for op in plan.ops[:at] for group in op.round_groups] + [first.round_groups[0]]
    return sum(1 for group in before if group_direction_totals(group)[0] > 0)


def test_stall_during_ot_tree_is_survived_without_retry(
    relu_servable, query_batch, stall_plan, record_fault_schedule
):
    name = "vgg-tiny-relu"
    batch = query_batch(relu_servable)

    with make_chaos_pool(name, relu_servable) as pool:
        reference = pool.run_batch(name, batch)

    # stall the recv direction in the first AND-tree level of the first ReLU
    tree_round = _first_tree_level_recv_round(relu_servable.spec, len(batch))
    plans = {0: {1: stall_plan(round_index=tree_round, stall_ms=250.0, direction="recv", seed=9)}}
    record_fault_schedule(plans, model=name)
    with make_chaos_pool(name, relu_servable, fault_plans=plans) as pool:
        stalled = pool.run_batch(name, batch)
        snapshot = pool.stats_snapshot()

    np.testing.assert_array_equal(reference.logits, stalled.logits)
    assert reference.seed == stalled.seed
    # survivable fault: latency, not a retry
    assert snapshot["jobs_retried"] == 0
    assert snapshot["shards_respawned"] == 0
    assert stalled.wall_seconds >= 0.25


def test_jittered_link_serves_identical_logits(
    tiny_zoo, query_batch, stall_plan, clean_logits, record_fault_schedule
):
    """Seeded latency jitter on both directions shapes time, never bytes."""
    name = "mobilenetv2-tiny"
    servable = tiny_zoo[name]
    batch = query_batch(servable)
    reference = clean_logits(name, batch, n_jobs=1)

    shape = stall_plan(round_index=-1, stall_ms=0.0, seed=21, jitter_ms=2.0)
    record_fault_schedule({0: {0: shape, 1: shape}}, model=name)
    with make_chaos_pool(name, servable, fault_plans={0: {0: shape, 1: shape}}) as pool:
        shaped = pool.run_batch(name, batch)
        snapshot = pool.stats_snapshot()

    np.testing.assert_array_equal(reference[0], shaped.logits)
    assert snapshot["jobs_retried"] == 0
