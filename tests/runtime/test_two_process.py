"""Tests for the process-separated 2PC runtime.

The acceptance invariant of the networked runtime: two OS processes, each
holding one share-world, executing a compiled plan over a localhost socket
produce **bit-identical** logits to the single-process compiled path, and
the **measured on-wire payload bytes equal the plan manifest's prediction**
in both directions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.plan import compile_plan
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.runtime import ShardFailure, run_two_process_inference
from repro.runtime.party import predicted_direction_bytes


def _trained(spec):
    from repro.nn.tensor import Tensor

    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))))
    net.eval()
    return export_layer_weights(net)


@pytest.fixture(scope="module")
def polynomial_session():
    """One all-polynomial two-process session shared by several assertions."""
    spec = vgg_tiny(input_size=8).with_all_polynomial()
    weights = _trained(spec)
    x = np.random.default_rng(7).normal(size=(2, 3, 8, 8))

    engine = SecureInferenceEngine(make_context(seed=11))
    plan = engine.compile(spec, batch_size=2)
    pool = engine.preprocess(plan)
    reference = engine.execute(plan, weights, x, pool=pool)

    result = run_two_process_inference(spec, weights, x, seed=11)
    return reference, result


class TestTwoProcessExecution:
    def test_bit_identical_to_single_process_compiled_path(self, polynomial_session):
        reference, result = polynomial_session
        np.testing.assert_array_equal(result.logits, reference.logits)

    def test_on_wire_bytes_match_manifest_prediction(self, polynomial_session):
        reference, result = polynomial_session
        assert result.matches_manifest
        assert result.payload_bytes_on_wire == result.plan.online_bytes
        assert result.online_bytes == reference.communication_bytes
        assert result.online_rounds == reference.communication_rounds

    def test_per_direction_bytes_match_plan(self, polynomial_session):
        _, result = polynomial_session
        for party in (0, 1):
            report = result.reports[party]
            assert report.payload_bytes_sent == predicted_direction_bytes(
                result.plan, party
            )
            assert report.payload_bytes_received == predicted_direction_bytes(
                result.plan, 1 - party
            )

    def test_relu_model_over_socket_is_bit_identical(self):
        """The comparison/OT flow (ReLU + MaxPool) across a real socket."""
        spec = vgg_tiny(input_size=8)
        weights = _trained(spec)
        x = np.random.default_rng(3).normal(size=(1, 3, 8, 8))

        engine = SecureInferenceEngine(make_context(seed=4))
        plan = engine.compile(spec, batch_size=1)
        reference = engine.execute(plan, weights, x)

        result = run_two_process_inference(spec, weights, x, seed=4)
        np.testing.assert_array_equal(result.logits, reference.logits)
        assert result.matches_manifest
        assert result.online_rounds == plan.online_rounds

    def test_manifest_scales_with_socket_batch(self):
        """Two-process sessions at different batch sizes both stay exact."""
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        weights = _trained(spec)
        for batch in (1, 3):
            x = np.random.default_rng(batch).normal(size=(batch, 3, 8, 8))
            result = run_two_process_inference(spec, weights, x, seed=2)
            plan = compile_plan(spec, batch_size=batch)
            assert result.payload_bytes_on_wire == plan.online_bytes

    def test_no_party_process_outlives_a_failed_session(self, monkeypatch):
        """A party that raises mid-job fails the call, and the shard's
        SIGTERM -> SIGKILL escalation has reaped both processes by then."""
        import repro.runtime.twoprocess as twoprocess

        shards = []

        class Recorded(twoprocess.WorkerShard):
            def __init__(self, *args, **kwargs):
                shards.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(twoprocess, "WorkerShard", Recorded)
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        x = np.random.default_rng(0).normal(size=(1, 3, 8, 8))
        with pytest.raises(ShardFailure, match="failed"):
            run_two_process_inference(spec, {}, x, seed=1)  # no weights: KeyError
        (shard,) = shards
        assert len(shard.processes) == 2
        for process in shard.processes:
            assert not process.is_alive()
            assert process.exitcode is not None  # joined, not abandoned
