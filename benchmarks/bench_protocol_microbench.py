"""Microbenchmarks of the executed 2PC protocol simulation.

Not a paper figure per se, but the substrate's own performance/throughput
characterization: wall-clock of the numpy 2PC simulation for the core
operators (Beaver multiplication, square, DReLU comparison, convolution),
the measured communication per element (comparable with the analytical
model's volumes, :mod:`repro.hardware.comm`), and the offline/online split
of the compiled plan runtime (compile → preprocess → execute).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.crypto import make_context, share
from repro.crypto.events import run_reference
from repro.crypto.protocols import (
    drelu,
    multiply,
    secure_conv2d_public_weight,
    secure_relu,
    square,
)
from repro.crypto.secure_model import SecureInferenceEngine
from repro.evaluation.report import render_table


@pytest.fixture()
def payload():
    rng = np.random.default_rng(0)
    ctx = make_context(seed=1)
    x = rng.uniform(-2, 2, size=(1, 4, 8, 8))
    return ctx, rng, x


def test_beaver_multiply_throughput(benchmark, payload):
    ctx, rng, x = payload
    shared = share(x, ctx.ring, rng)
    benchmark(lambda: multiply(ctx, shared, shared))


def test_square_protocol_throughput(benchmark, payload):
    ctx, rng, x = payload
    shared = share(x, ctx.ring, rng)
    benchmark(lambda: square(ctx, shared))


def test_drelu_comparison_throughput(benchmark, payload):
    ctx, rng, x = payload
    shared = share(x, ctx.ring, rng)
    benchmark(lambda: drelu(ctx, shared))


def test_secure_conv_throughput(benchmark, payload):
    ctx, rng, x = payload
    shared = share(x, ctx.ring, rng)
    weight = rng.normal(size=(8, 4, 3, 3)) * 0.3
    benchmark(lambda: secure_conv2d_public_weight(ctx, shared, weight, padding=1))


def test_relu_communication_per_element(benchmark, payload):
    ctx, rng, x = payload
    shared = share(x, ctx.ring, rng)

    def run():
        ctx.reset_communication()
        secure_relu(ctx, shared)
        return ctx.communication_bytes

    total_bytes = benchmark(run)
    per_element = total_bytes / x.size
    emit(
        "Executed 2PC-ReLU communication",
        render_table(
            [{"elements": x.size, "total bytes": total_bytes, "bytes/element": per_element}]
        ),
    )
    # The executed simulation uses the 64-bit CrypTen-style ring with the
    # packed sub-byte wire format: ~62.5 bytes/element for the comparison
    # (2-bit OT tables + 1-bit tree openings), ~0.25 for the daBit B2A and
    # 32 for the ring-width multiplexer — ~95 in total, well below the
    # paper's unpacked 32-bit OT-flow volume of ~324 bytes/element.
    assert 50 < per_element < 500


def test_plan_offline_online_split():
    """Compile → preprocess → execute, with offline and online reported apart.

    The offline phase (plan compilation + correlated-randomness generation)
    runs ahead of the query; the online phase is the client-visible latency.
    The plan predicts the online bytes exactly.
    """
    from repro.models import build_model, export_layer_weights
    from repro.models.vgg import vgg_tiny
    from repro.nn.tensor import Tensor

    spec = vgg_tiny(input_size=8).with_all_polynomial()
    net = build_model(spec)
    net(Tensor(np.random.default_rng(0).normal(size=(4, 3, 8, 8))))
    net.eval()
    weights = export_layer_weights(net)
    x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))

    engine = SecureInferenceEngine(make_context(seed=3))
    start = time.perf_counter()
    plan = engine.compile(spec, batch_size=2)
    compile_s = time.perf_counter() - start
    start = time.perf_counter()
    pool = engine.preprocess(plan)
    preprocess_s = time.perf_counter() - start
    start = time.perf_counter()
    result = engine.execute(plan, weights, x, pool=pool)
    online_s = time.perf_counter() - start

    emit(
        "Offline/online split of one compiled private inference "
        f"({spec.name}, batch=2)",
        render_table(
            [
                {
                    "phase": "offline: compile",
                    "time (ms)": round(1e3 * compile_s, 2),
                    "bytes": 0,
                },
                {
                    "phase": "offline: preprocess (randomness material)",
                    "time (ms)": round(1e3 * preprocess_s, 2),
                    "bytes": plan.manifest.material_bytes,
                },
                {
                    "phase": "online: execute",
                    "time (ms)": round(1e3 * online_s, 2),
                    "bytes": result.communication_bytes,
                },
            ]
        ),
    )
    assert result.communication_bytes == plan.online_bytes
    assert result.communication_rounds == plan.online_rounds
    # the sequential oracle: same bits, the uncoalesced round count
    oracle = make_context(seed=3)
    reference_logits, _, _ = run_reference(oracle, plan, weights, x)
    np.testing.assert_array_equal(result.logits, reference_logits)
    assert oracle.communication_rounds == plan.oracle_rounds
    assert plan.manifest.material_bytes > 0
