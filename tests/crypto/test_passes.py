"""Tests for the plan IR's round predictions and the executor that checks them.

Key invariants:

- every op's round groups cover exactly its flat message trace;
- the plan's round trace has one entry per round group, and its
  per-round bytes sum to the plan's online bytes;
- the executor performs exactly ``plan.num_rounds`` rounds and fails loudly
  when a plan's trace differs from its phase generator (bit-identity with the
  sequential oracle, zoo-wide, lives in ``test_zoo.py``).
"""

from __future__ import annotations

import re
from dataclasses import fields, replace as dc_replace
from pathlib import Path

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.plan import PlanOp, compile_plan, trace_op
from repro.crypto.protocols.registry import trace_rounds
from repro.crypto.scheduler import run_scheduled_plan
from repro.crypto.sharing import share
from repro.models.builder import build_model, export_layer_weights
from repro.models.resnet import resnet_tiny
from repro.models.specs import LayerKind, LayerSpec
from repro.models.vgg import vgg_tiny

DOCS = Path(__file__).resolve().parents[2] / "docs"


class TestGraphIR:
    def test_round_groups_cover_all_messages(self):
        """An op stores its round groups only; the flat sequential message
        view is derived from them."""
        assert "messages" not in {field.name for field in fields(PlanOp)}
        plan = compile_plan(vgg_tiny(input_size=8))
        for op in plan.ops:
            flat = [
                message
                for group in op.round_groups
                for event in group
                for message in event
            ]
            assert flat == op.messages


class TestRoundScheduling:
    def test_schedule_round_bytes_sum_to_plan_bytes(self):
        plan = compile_plan(vgg_tiny(input_size=8))
        round_trace = plan.round_trace
        assert len(round_trace) == plan.num_rounds
        assert sum(a + b for a, b in round_trace) == plan.online_bytes

    def test_scheduled_rounds_strictly_fewer_on_relu_models(self):
        plan = compile_plan(vgg_tiny(input_size=8))
        assert plan.online_rounds < plan.oracle_rounds
        # The log-depth comparison tree already collapsed the *sequential*
        # round count ~4x (every tree level is one stacked event), so
        # coalescing has less intra-op redundancy left to exploit; the
        # combined acceptance is the absolute scheduled count — at most a
        # third of the pre-tree scheduled baseline of 884 rounds.
        assert plan.online_rounds <= 884 // 3

    def test_round_trace_matches_schedule(self):
        plan = compile_plan(vgg_tiny(input_size=8))
        assert len(plan.round_trace) == plan.num_rounds
        scheduled = [
            (sender, num_bytes)
            for round_bytes in plan.round_trace
            for sender, num_bytes in enumerate(round_bytes)
            if num_bytes
        ]
        assert trace_rounds(scheduled) == plan.online_rounds
        # a two-way round is one link traversal but two logged directions
        assert plan.num_rounds <= plan.online_rounds

    def test_empty_plan_passes_the_input_through(self):
        ctx = make_context(seed=3)
        empty = dc_replace(compile_plan(vgg_tiny(input_size=8)), ops=())
        shared = share(np.zeros(empty.input_shape), ctx.ring, ctx.rng)
        execution = run_scheduled_plan(ctx, empty, {}, shared, ctx.dealer.preprocess(empty))
        assert execution.output is shared and execution.per_op_bytes == {}
        assert ctx.kernels is None

    def test_a_trace_that_drifted_from_its_generator_fails_the_run(self):
        spec = vgg_tiny(input_size=8)
        plan = compile_plan(spec)
        index, op = next((i, op) for i, op in enumerate(plan.ops) if op.round_groups)
        short = dc_replace(op, round_groups=op.round_groups[:-1])
        drifted = dc_replace(plan, ops=plan.ops[:index] + (short,) + plan.ops[index + 1 :])
        assert drifted.num_rounds == plan.num_rounds - 1

        ctx = make_context(seed=3)
        shared = share(np.zeros(plan.input_shape), ctx.ring, ctx.rng)
        weights = export_layer_weights(build_model(spec))
        pool = ctx.dealer.preprocess(drifted)
        expected = (
            rf"{re.escape(repr(plan.model_name))} performed {plan.num_rounds} "
            rf"rounds but the plan predicted {drifted.num_rounds}"
        )
        with pytest.raises(RuntimeError, match=expected):
            run_scheduled_plan(ctx, drifted, weights, shared, pool)
        assert ctx.kernels is None

    def test_a_dealer_that_is_not_a_pool_is_rejected(self):
        """The executor only consumes preprocessed material: a dealer that
        would generate during the online phase fails before any round."""
        plan = compile_plan(vgg_tiny(input_size=8))
        ctx = make_context(seed=3)
        shared = share(np.zeros(plan.input_shape), ctx.ring, ctx.rng)
        with pytest.raises(TypeError, match=r"TrustedDealer\.preprocess"):
            run_scheduled_plan(ctx, plan, {}, shared, ctx.dealer)
        assert ctx.communication_rounds == 0 and ctx.kernels is None


class TestDocsStateTheCompiledPlan:
    """The counts the docs quote are what ``compile_plan`` compiles."""

    def test_pasnetc_round_counts_in_passes_md_are_the_compiled_plans(self):
        text = (DOCS / "passes.md").read_text(encoding="utf-8")
        online = int(re.search(r"`online_rounds == (\d+)`", text).group(1))
        groups = int(re.search(r"`num_rounds == (\d+)`", text).group(1))
        link_ms = int(re.search(r"~(\d+) ms of link time on a\s+5 ms link", text).group(1))
        # PASNet-C's recipe: resnet-tiny at 16x16, all but the last two ReLUs
        # X²act, searchable MaxPools AvgPool
        spec = resnet_tiny(input_size=16)
        relus = [layer.name for layer in spec.layers if layer.kind == LayerKind.RELU]
        kinds = {name: LayerKind.X2ACT for name in relus[:-2]}
        kinds.update(
            {
                layer.name: LayerKind.AVGPOOL
                for layer in spec.layers
                if layer.kind == LayerKind.MAXPOOL and layer.searchable
            }
        )
        plan = compile_plan(spec.replace_kinds(kinds))
        assert (online, groups, link_ms) == (
            plan.online_rounds,
            plan.num_rounds,
            5 * plan.num_rounds,
        )

    def test_relu_element_cost_in_protocols_md_is_the_compiled_ops(self):
        text = (DOCS / "protocols.md").read_text(encoding="utf-8")
        found = re.search(r"\*\*([\d.]+) B and\s+(\d+) round groups per\s+element\*\*", text)
        material = float(re.search(r"([\d.]+) B of material per element", text).group(1))
        n = 64
        ring = make_context().ring
        layer = LayerSpec(name="op", kind=LayerKind.RELU)
        trace = trace_op(layer, (1, n), ring)
        assert float(found.group(1)) == trace.online_bytes / n
        assert int(found.group(2)) == len(trace.groups)
        assert material == sum(r.material_bytes(ring) for r in trace.requests) / n
