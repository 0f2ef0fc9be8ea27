"""Tests for the batched serving frontend (coalescing and lifecycle)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.serve import BatchingFrontend, BatchOutcome, ServableModel


@pytest.fixture(scope="module")
def servable():
    from repro.nn.tensor import Tensor

    spec = vgg_tiny(input_size=8).with_all_polynomial()
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, 3, 8, 8))))
    net.eval()
    return ServableModel(spec, export_layer_weights(net)), net


@contextmanager
def _frontend(models, **knobs):
    """A frontend over the smallest backend: the in-process engine, serial."""
    engine = SecureInferenceEngine(make_context(seed=0))

    def run_batch(model, servable, inputs):
        result = engine.run(servable.spec, servable.weights, inputs)
        return BatchOutcome(result.logits, result.online_bytes_per_query)

    with ThreadPoolExecutor(max_workers=1) as executor:
        with BatchingFrontend(models, run_batch, executor, **knobs) as frontend:
            yield frontend


class TestBatchingFrontend:
    def test_queries_coalesce_into_one_batch(self, servable):
        model, net = servable
        from repro.nn.tensor import Tensor

        queries = np.random.default_rng(3).normal(size=(4, 3, 8, 8))
        plaintext = net(Tensor(queries)).data.argmax(1)
        with _frontend({"m": model}, max_batch=4, max_wait=0.25) as frontend:
            futures = frontend.submit_many("m", queries)
            results = [future.result(timeout=120) for future in futures]
        assert [r.batch_size for r in results] == [4, 4, 4, 4]
        assert frontend.stats.batches_dispatched == 1
        assert frontend.stats.batch_size_histogram == {4: 1}
        np.testing.assert_array_equal(
            np.array([r.predicted_class for r in results]), plaintext
        )

    def test_max_batch_caps_coalescing(self, servable):
        model, _ = servable
        queries = np.random.default_rng(1).normal(size=(5, 3, 8, 8))
        with _frontend({"m": model}, max_batch=2, max_wait=0.05) as frontend:
            futures = frontend.submit_many("m", queries)
            results = [future.result(timeout=120) for future in futures]
        assert max(r.batch_size for r in results) <= 2
        assert frontend.stats.queries_completed == 5
        assert frontend.stats.batches_dispatched >= 3

    def test_stats_percentiles_and_qps(self, servable):
        model, _ = servable
        queries = np.random.default_rng(2).normal(size=(3, 3, 8, 8))
        with _frontend({"m": model}, max_batch=4, max_wait=0.02) as frontend:
            for future in frontend.submit_many("m", queries):
                future.result(timeout=120)
        snapshot = frontend.stats.snapshot()
        assert snapshot["queries_completed"] == 3
        assert snapshot["p95_latency_ms"] >= snapshot["p50_latency_ms"] > 0
        assert snapshot["queries_per_second"] > 0

    def test_unknown_model_rejected_at_submit(self, servable):
        model, _ = servable
        with _frontend({"m": model}, max_batch=2, max_wait=0.01) as frontend:
            with pytest.raises(KeyError, match="unknown model"):
                frontend.submit("nope", np.zeros((3, 8, 8)))

    def test_wrong_query_shape_rejected_at_submit(self, servable):
        model, _ = servable
        with _frontend({"m": model}, max_batch=2, max_wait=0.01) as frontend:
            with pytest.raises(ValueError, match="expects a query of shape"):
                frontend.submit("m", np.zeros((3, 4, 4)))

    def test_submit_after_close_raises(self, servable):
        model, _ = servable
        with _frontend({"m": model}, max_batch=2, max_wait=0.01) as frontend:
            frontend.close()
            frontend.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                frontend.submit("m", np.zeros((3, 8, 8)))

    def test_close_flushes_partial_batches(self, servable):
        """Queries still queued at shutdown are served, not dropped."""
        model, _ = servable
        with _frontend({"m": model}, max_batch=64, max_wait=30.0) as frontend:
            futures = frontend.submit_many(
                "m", np.random.default_rng(5).normal(size=(2, 3, 8, 8))
            )
            frontend.close()
            results = [future.result(timeout=5) for future in futures]
        assert [r.batch_size for r in results] == [2, 2]

    def test_cancelled_future_does_not_kill_the_dispatcher(self, servable):
        """A client cancelling a queued future must not break the batch."""
        model, _ = servable
        queries = np.random.default_rng(8).normal(size=(3, 3, 8, 8))
        with _frontend({"m": model}, max_batch=4, max_wait=0.25) as frontend:
            futures = frontend.submit_many("m", queries)
            assert futures[1].cancel()  # still queued -> cancel succeeds
            others = [futures[0].result(timeout=120), futures[2].result(timeout=120)]
        assert all(r.batch_size == 3 for r in others)
        assert frontend.stats.batches_dispatched == 1
        # The frontend still works afterwards (dispatcher thread survived).
        assert futures[1].cancelled()

    def test_two_models_route_independently(self, servable):
        model, _ = servable
        other = ServableModel(
            vgg_tiny(input_size=8).with_all_polynomial(), model.weights
        )
        queries = np.random.default_rng(6).normal(size=(2, 3, 8, 8))
        with _frontend({"a": model, "b": other}, max_batch=4, max_wait=0.05) as frontend:
            fa = frontend.submit("a", queries[0])
            fb = frontend.submit("b", queries[1])
            assert fa.result(timeout=120).model == "a"
            assert fb.result(timeout=120).model == "b"
