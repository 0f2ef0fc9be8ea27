"""Tests for the compiled plan runtime: offline/online split, manifest
exactness, registry dispatch and batched execution.

The key invariants:

- the online phase performs **zero** dealer generation calls once
  preprocessing ran, and the manifest provisions exactly what it consumes;
- the one-shot ``engine.run`` is ``execute(compile(...))``, nothing else.

Bit-identity with the sequential oracle and the exactness of the manifest's
byte/round predictions are asserted zoo-wide in ``test_zoo.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import (
    PreprocessingExhausted,
    compile_plan,
    make_context,
)
from repro.crypto.plan import trace_op
from repro.crypto.protocols.registry import get_handler, registered_kinds
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.resnet import resnet_tiny
from repro.models.specs import LayerKind, LayerSpec, ModelSpec
from repro.models.vgg import vgg_tiny


def _trained_weights(spec: ModelSpec):
    from repro.nn.tensor import Tensor

    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):  # move BN running stats off their init values
        net(Tensor(rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))))
    net.eval()
    return net, export_layer_weights(net)


class TestCompile:
    def test_plan_covers_every_layer_in_order(self):
        spec = vgg_tiny(input_size=8)
        plan = compile_plan(spec, batch_size=3)
        assert [op.name for op in plan.ops] == [layer.name for layer in spec.layers]
        assert plan.batch_size == 3
        assert plan.input_shape == (3, spec.in_channels, 8, 8)
        assert plan.output_shape == (3, spec.num_classes)

    def test_shapes_thread_through_the_network(self):
        spec = resnet_tiny(input_size=8)
        plan = compile_plan(spec)
        for prev, cur in zip(plan.ops, plan.ops[1:]):
            assert cur.input_shape == prev.output_shape

    def test_local_ops_have_empty_traces(self):
        plan = compile_plan(vgg_tiny(input_size=8).with_all_polynomial())
        for op in plan.ops:
            if op.kind in (LayerKind.CONV, LayerKind.LINEAR, LayerKind.FLATTEN,
                           LayerKind.AVGPOOL, LayerKind.GLOBAL_AVGPOOL, LayerKind.ADD):
                assert op.online_bytes == 0
                assert not op.requests

    def test_manifest_scales_with_batch_size(self):
        spec = vgg_tiny(input_size=8)
        m1 = compile_plan(spec, batch_size=1).manifest
        m4 = compile_plan(spec, batch_size=4).manifest
        assert m4.bit_triple_elements == 4 * m1.bit_triple_elements
        assert m4.triple_elements == 4 * m1.triple_elements
        assert compile_plan(spec, batch_size=4).online_bytes == 4 * compile_plan(spec).online_bytes

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            compile_plan(vgg_tiny(input_size=8), batch_size=0)

    def test_projection_shortcut_specs_fail_at_compile_time(self):
        from dataclasses import replace as dc_replace

        spec = resnet_tiny(input_size=8)
        stripped = dc_replace(
            spec,
            layers=tuple(
                dc_replace(l, residual_from="") if l.kind == LayerKind.ADD else l
                for l in spec.layers
            ),
        )
        with pytest.raises(NotImplementedError):
            compile_plan(stripped)

    def test_dangling_residual_reference_fails_at_compile_time(self):
        from dataclasses import replace as dc_replace

        spec = resnet_tiny(input_size=8)
        dangling = dc_replace(
            spec,
            layers=tuple(
                dc_replace(l, residual_from="no-such-layer")
                if l.kind == LayerKind.ADD
                else l
                for l in spec.layers
            ),
        )
        with pytest.raises(ValueError, match="no-such-layer"):
            compile_plan(dangling)

    @pytest.mark.parametrize(
        "add, residual, message",
        [
            ("add1", "act4", "not an earlier layer"),  # a forward reference
            ("add2", "conv1", "does not match main-path shape"),
        ],
    )
    def test_forward_or_misshapen_residual_fails_at_compile_time(
        self, add, residual, message
    ):
        from dataclasses import replace as dc_replace

        spec = resnet_tiny(input_size=8)
        broken = dc_replace(
            spec,
            layers=tuple(
                dc_replace(l, residual_from=residual) if l.name == add else l
                for l in spec.layers
            ),
        )
        with pytest.raises(ValueError, match=message):
            compile_plan(broken)

    def test_registry_covers_all_executable_kinds(self):
        kinds = set(registered_kinds())
        for kind in (LayerKind.CONV, LayerKind.LINEAR, LayerKind.RELU,
                     LayerKind.X2ACT, LayerKind.MAXPOOL, LayerKind.AVGPOOL,
                     LayerKind.GLOBAL_AVGPOOL, LayerKind.FLATTEN, LayerKind.ADD):
            assert kind in kinds
        with pytest.raises(KeyError):
            get_handler(LayerKind.BATCHNORM)


class TestComparisonLayerCost:
    """What one ReLU element and one 2x2 MaxPool window cost after the
    one-round select: OT + 5 AND-tree levels + 1 select round group."""

    @staticmethod
    def _trace(kind, input_shape, kernel=1):
        layer = LayerSpec(name="op", kind=kind, kernel=kernel, stride=kernel)
        return trace_op(layer, input_shape, make_context().ring)

    def test_relu_is_five_round_groups_and_68_25_bytes_per_element(self):
        """The OT, the three tree levels and the select; 32 B of OT, 20 B
        of tree and 16.25 B of select per element, and 101.75 B of dealer
        material: the tree's 207 plane bits per party, packed, and the
        daBit's 50 B."""
        n = 64
        trace = self._trace(LayerKind.RELU, (1, 4, 4, 4))
        assert len(trace.groups) == 5
        assert trace.online_bytes * 4 == 273 * n  # 68.25 B/element
        ring = make_context().ring
        assert sum(r.material_bytes(ring) for r in trace.requests) * 4 == 407 * n
        assert {r.kind for r in trace.requests} == {"bit", "dabit"}

    def test_maxpool_2x2_is_a_two_level_tournament_of_unchanged_bytes(self):
        """Two levels of 5 round groups; the bytes of 3 pairwise maxima per
        window, as the sequential reduction spent."""
        input_shape = (2, 3, 4, 4)
        windows = 2 * 3 * 2 * 2
        trace = self._trace(LayerKind.MAXPOOL, input_shape, kernel=2)
        assert len(trace.groups) == 10
        relu = self._trace(LayerKind.RELU, (windows,))
        assert trace.online_bytes == 3 * relu.online_bytes
        assert [r.shape[0] for r in trace.requests if r.kind == "dabit"] == [2, 1]


class TestCompiledExecutionEquivalence:
    def test_one_shot_run_is_compile_then_execute(self):
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        net, weights = _trained_weights(spec)
        x = np.random.default_rng(7).normal(size=(2, 3, 8, 8))

        one_shot = SecureInferenceEngine(make_context(seed=11)).run(spec, weights, x)

        engine = SecureInferenceEngine(make_context(seed=11))
        plan = engine.compile(spec, batch_size=2)
        result = engine.execute(plan, weights, x, pool=engine.preprocess(plan))

        np.testing.assert_array_equal(one_shot.logits, result.logits)
        assert one_shot.communication_bytes == result.communication_bytes
        assert one_shot.communication_rounds == result.communication_rounds
        assert one_shot.execution.per_op_bytes == result.execution.per_op_bytes

    def test_online_phase_makes_zero_dealer_generation_calls(self):
        spec = vgg_tiny(input_size=8)  # ReLU + MaxPool: heavy randomness use
        net, weights = _trained_weights(spec)
        engine = SecureInferenceEngine(make_context(seed=9))
        plan = engine.compile(spec, batch_size=2)
        pool = engine.preprocess(plan)
        dealer = engine.ctx.dealer
        generated_before = dict(dealer.generated)
        assert generated_before["bit"] and generated_before["dabit"]  # preprocessing did the work

        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        result = engine.execute(plan, weights, x, pool=pool)
        assert dealer.generated == generated_before
        assert pool.remaining == 0  # manifest is exact: nothing over-provisioned
        assert pool.served > 0

    def test_pool_exhaustion_raises_instead_of_generating(self):
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        net, weights = _trained_weights(spec)
        engine = SecureInferenceEngine(make_context(seed=2))
        plan = engine.compile(spec, batch_size=1)
        pool = engine.preprocess(plan)
        x = np.random.default_rng(0).normal(size=(1, 3, 8, 8))
        engine.execute(plan, weights, x, pool=pool)
        with pytest.raises(PreprocessingExhausted):
            engine.execute(plan, weights, x, pool=pool)  # pool is spent

    def test_batch_size_mismatch_is_rejected(self):
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        net, weights = _trained_weights(spec)
        engine = SecureInferenceEngine(make_context(seed=2))
        plan = engine.compile(spec, batch_size=2)
        with pytest.raises(ValueError):
            engine.execute(plan, weights, np.zeros((3, 3, 8, 8)))

    def test_batched_execution_matches_sequential_predictions(self):
        """One batched online pass classifies like per-query passes."""
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        net, weights = _trained_weights(spec)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3, 8, 8))

        batched = SecureInferenceEngine(make_context(seed=21))
        plan = batched.compile(spec, batch_size=4)
        result = batched.execute(plan, weights, x)

        sequential = []
        for i in range(4):
            eng = SecureInferenceEngine(make_context(seed=31 + i))
            sequential.append(eng.run(spec, weights, x[i : i + 1]).logits[0])
        np.testing.assert_array_equal(
            result.logits.argmax(axis=1), np.stack(sequential).argmax(axis=1)
        )
        assert result.batch_size == 4
        assert result.online_bytes_per_query == result.communication_bytes / 4


class TestPlanHardwareRewiring:
    def test_plan_communication_report_matches_execution(self):
        from repro.hardware.comm import communication_report

        spec = vgg_tiny(input_size=8)
        net, weights = _trained_weights(spec)
        report = communication_report(spec, source="plan")
        engine = SecureInferenceEngine(make_context(seed=13))
        result = engine.run(spec, weights, np.zeros((1, 3, 8, 8)))
        assert report.source == "plan"
        assert report.total_bytes == result.communication_bytes
        assert report.per_layer_bytes == {
            k: float(v) for k, v in result.execution.per_op_bytes.items()
        }

    def test_plan_latency_table_prefers_polynomial_ops(self):
        from repro.hardware.lut import build_latency_table

        spec = vgg_tiny(input_size=8)
        table = build_latency_table(spec, source="plan")
        act = spec.layers_of_kind(LayerKind.RELU)[0]
        pool = spec.layers_of_kind(LayerKind.MAXPOOL)[0]
        assert table.seconds(act.name, LayerKind.RELU) > table.seconds(act.name, LayerKind.X2ACT)
        assert table.seconds(pool.name, LayerKind.MAXPOOL) > table.seconds(pool.name, LayerKind.AVGPOOL)

    def test_plan_latency_table_bytes_match_manifest(self):
        from repro.hardware.lut import build_latency_table

        spec = vgg_tiny(input_size=8)
        plan = compile_plan(spec)
        table = build_latency_table(spec, source="plan")
        total = sum(
            table.cost(layer.name, layer.kind).communication_bytes
            for layer in spec.layers
        )
        assert total == plan.online_bytes

    def test_supernet_accepts_plan_latency_source(self):
        from repro.core.supernet import Supernet

        spec = vgg_tiny(input_size=8)
        supernet = Supernet(spec, latency_source="plan")
        assert float(supernet.expected_latency_ms().data) > 0.0


class TestGroupedSecureConv:
    def test_depthwise_conv_matches_plaintext(self, rng):
        """Grouped ring convolution makes MobileNet executable under 2PC."""
        from repro.crypto.protocols.linear import secure_conv2d_public_weight
        from repro.crypto.sharing import reconstruct, share
        from repro.nn.functional import conv2d as plain_conv2d
        from repro.nn.tensor import Tensor

        ctx = make_context(seed=17)
        x = rng.normal(size=(2, 6, 8, 8))
        weight = rng.normal(size=(6, 1, 3, 3)) * 0.3
        shared = share(x, ctx.ring, ctx.rng)
        secure = reconstruct(
            secure_conv2d_public_weight(ctx, shared, weight, padding=1, groups=6)
        )
        plain = plain_conv2d(Tensor(x), Tensor(weight), padding=1, groups=6).data
        np.testing.assert_allclose(secure, plain, atol=1e-3)
