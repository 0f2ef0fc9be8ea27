"""End-to-end secure inference over a derived model spec.  (The OT the
comparison runs is covered with the comparison protocols.)"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.specs import LayerKind
from repro.models.vgg import vgg_tiny
from repro.nn.tensor import Tensor


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
        assert set(result.execution.per_op_bytes) == {layer.name for layer in spec.layers}

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
