"""Tests for the OT primitives, the Fig. 4 flow accounting and end-to-end
secure inference over a derived model spec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.ot import OTFlow, one_of_four_ot
from repro.crypto.secure_model import SecureInferenceEngine
from repro.hardware.latency import DEFAULT_LATENCY_MODEL
from repro.models.builder import build_model, export_layer_weights
from repro.models.specs import LayerKind
from repro.models.vgg import vgg_tiny
from repro.nn.tensor import Tensor


class TestOneOfFourOT:
    def test_receiver_gets_chosen_message(self, ctx, rng):
        messages = rng.integers(0, 2, size=(4, 20), dtype=np.uint8)
        choices = rng.integers(0, 4, size=20)
        received = one_of_four_ot(ctx, messages, choices)
        np.testing.assert_array_equal(received, messages[choices, np.arange(20)])

    def test_transfer_volume_counts_all_messages(self, ctx):
        ctx.reset_communication()
        messages = np.zeros((4, 50), dtype=np.uint8)
        one_of_four_ot(ctx, messages, np.zeros(50, dtype=np.int64))
        assert ctx.communication_bytes == 4 * 50

    def test_rejects_malformed_inputs(self, ctx):
        with pytest.raises(ValueError):
            one_of_four_ot(ctx, np.zeros((3, 5), dtype=np.uint8), np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError):
            one_of_four_ot(ctx, np.zeros((4, 5), dtype=np.uint8), np.zeros(6, dtype=np.int64))


class TestOTFlowAccounting:
    def test_step_sizes_match_paper_formulas(self, ctx):
        """Executed byte counts equal the COMM terms of Eqs. 6, 8, 10."""
        flow = OTFlow(word_bits=32, digit_bits=2)
        num_elements = 37
        cost = flow.execute(ctx, num_elements)
        assert cost.comm1_bytes == 4
        assert cost.comm2_bytes == 4 * 16 * num_elements           # Eq. 6 payload
        assert cost.comm3_bytes == 4 * 4 * 16 * num_elements       # Eq. 8 payload
        assert cost.comm4_bytes == 4 * num_elements                # Eq. 10 payload (one word each)

    def test_channel_log_matches_reported_cost(self, ctx):
        ctx.reset_communication()
        cost = OTFlow().execute(ctx, 10)
        assert ctx.communication_bytes == cost.total_bytes

    def test_word_width_derives_from_the_ring(self, ctx):
        """No more hardcoded uint32: the flow sizes itself off the ring."""
        from repro.crypto.ring import DEFAULT_RING, PAPER_RING

        implicit = OTFlow().execute(ctx, 5)            # ctx ring: 64-bit
        explicit = OTFlow(ring=DEFAULT_RING).execute(ctx, 5)
        assert implicit.total_bytes == explicit.total_bytes
        paper = OTFlow(ring=PAPER_RING).execute(ctx, 5)
        # 64-bit flow: twice the digits at twice the word width
        assert implicit.comm3_bytes == 4 * paper.comm3_bytes

    def test_packed_flow_matches_executed_millionaire_trace(self, ctx):
        """Satellite acceptance: the packed Eq. 8 matrix volume equals the
        stacked digit OT of the recorded comparison trace, byte for byte."""
        from repro.crypto.plan import record_phases
        from repro.crypto.protocols.comparison import millionaire_gt_phases

        shape = (37,)
        ctx.reset_communication()
        cost = OTFlow(ring=ctx.ring, packed=True).execute(ctx, int(np.prod(shape)))
        assert ctx.communication_bytes == cost.total_bytes  # log stays exact
        zeros = np.zeros(shape, dtype=np.uint64)
        trace, _ = record_phases(
            lambda c: millionaire_gt_phases(c, zeros, zeros, bit_width=ctx.ring.ring_bits),
            ctx.ring,
        )
        (ot_event,) = trace.groups[0]
        ((sender, ot_bytes),) = ot_event
        assert sender == 0
        assert cost.comm3_bytes == ot_bytes

    def test_flow_volume_matches_latency_model_bytes(self, ctx):
        """The analytical ReLU communication volume equals the executed flow's
        at the device word width the model assumes."""
        fi, ic = 6, 3
        cost = OTFlow(word_bits=DEFAULT_LATENCY_MODEL.device.word_bits).execute(
            ctx, fi * fi * ic
        )
        model_bytes = DEFAULT_LATENCY_MODEL.relu(fi, ic).communication_bytes
        # The latency model counts the same three data payloads plus the base
        # word; allow the per-element result word granularity to differ.
        assert cost.total_bytes == pytest.approx(model_bytes, rel=0.05)

    def test_packed_latency_model_matches_packed_flow(self, ctx):
        """Eq. 8 at packed widths: analytic model == executed packed flow."""
        from repro.hardware.latency import LatencyModel

        fi, ic = 4, 2
        packed_model = LatencyModel(packed_wire=True)
        cost = OTFlow(
            word_bits=packed_model.device.word_bits, packed=True
        ).execute(ctx, fi * fi * ic)
        assert packed_model.relu(fi, ic).communication_bytes == pytest.approx(
            cost.total_bytes, rel=0.05
        )


class TestSecureInferenceEngine:
    @pytest.fixture
    def derived_net(self):
        """A tiny all-polynomial VGG with trained-ish weights."""
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        net = build_model(spec)
        # Push the batch-norm running stats away from the init values so the
        # folding path is meaningfully exercised.
        rng = np.random.default_rng(0)
        for _ in range(3):
            net(Tensor(rng.normal(size=(4, 3, 8, 8))))
        net.eval()
        return spec, net

    def test_secure_inference_matches_plaintext(self, derived_net, rng):
        spec, net = derived_net
        weights = export_layer_weights(net)
        x = rng.normal(size=(2, 3, 8, 8))
        plaintext = net(Tensor(x)).data

        engine = SecureInferenceEngine(make_context(seed=11))
        result = engine.run(spec, weights, x)
        np.testing.assert_allclose(result.logits, plaintext, atol=0.05)
        assert result.communication_bytes > 0
        assert set(result.per_layer_bytes) == {layer.name for layer in spec.layers}

    def test_polynomial_model_communicates_less_than_relu_model(self, derived_net, rng):
        spec_poly, net = derived_net
        weights = export_layer_weights(net)
        x = rng.normal(size=(1, 3, 8, 8))
        poly_bytes = SecureInferenceEngine(make_context(seed=1)).run(spec_poly, weights, x).communication_bytes

        spec_relu = spec_poly.with_all_relu()
        relu_net = build_model(spec_relu)
        relu_weights = export_layer_weights(relu_net)
        relu_bytes = SecureInferenceEngine(make_context(seed=2)).run(spec_relu, relu_weights, x).communication_bytes
        assert relu_bytes > 3 * poly_bytes

    def test_identity_residual_model_runs_securely(self, rng):
        from repro.models.resnet import resnet_tiny

        spec = resnet_tiny(input_size=8).with_all_polynomial()
        net = build_model(spec)
        net.eval()
        engine = SecureInferenceEngine(make_context(seed=5))
        x = rng.normal(size=(1, 3, 8, 8))
        result = engine.run(spec, export_layer_weights(net), x)
        np.testing.assert_allclose(result.logits, net(Tensor(x)).data, atol=0.05)

    def test_engine_rejects_projection_shortcut_specs(self, rng):
        from dataclasses import replace as dc_replace

        from repro.models.resnet import resnet_tiny

        spec = resnet_tiny(input_size=8)
        # Strip the residual_from annotations to emulate an analysis-only spec.
        stripped = dc_replace(
            spec,
            layers=tuple(
                dc_replace(l, residual_from="") if l.kind.value == "add" else l
                for l in spec.layers
            ),
        )
        net = build_model(spec)
        engine = SecureInferenceEngine(make_context(seed=5))
        with pytest.raises(NotImplementedError):
            engine.run(stripped, export_layer_weights(net), rng.normal(size=(1, 3, 8, 8)))

    def test_secure_relu_model_prediction_agreement(self, rng):
        """Class predictions under 2PC match plaintext for a ReLU model."""
        spec = vgg_tiny(input_size=8)
        assert any(l.kind == LayerKind.RELU for l in spec.layers)
        net = build_model(spec)
        net.eval()
        weights = export_layer_weights(net)
        x = rng.normal(size=(2, 3, 8, 8))
        plaintext_pred = net(Tensor(x)).data.argmax(axis=1)
        secure_logits = SecureInferenceEngine(make_context(seed=3)).run(spec, weights, x).logits
        np.testing.assert_array_equal(secure_logits.argmax(axis=1), plaintext_pred)
