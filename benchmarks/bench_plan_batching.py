"""Benchmark: batched plan execution vs one-query-at-a-time oracle runs.

Acceptance benchmark of the plan-runtime PR: running 8 client queries
through one compiled plan (offline preprocessing amortized, protocol calls
vectorized over the batch) must perform **zero** dealer generation calls in
the online phase and be measurably faster per query than 8 single-query
runs of the sequential oracle (:func:`repro.crypto.events.run_reference`).  Offline and online costs are reported separately, which
is the deployment-relevant split (Fig. 3): the offline phase can run ahead
of time, the online phase is what the client waits for.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit
from repro.crypto import make_context
from repro.crypto.events import run_reference
from repro.crypto.secure_model import SecureInferenceEngine
from repro.evaluation.report import render_table
from repro.models import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.nn.tensor import Tensor

BATCH = 8


def _setup():
    spec = vgg_tiny(input_size=8).with_all_polynomial()
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, 3, 8, 8))))
    net.eval()
    weights = export_layer_weights(net)
    queries = rng.normal(size=(BATCH, 3, 8, 8))
    return spec, weights, queries


def test_batched_online_phase_beats_sequential_runs():
    spec, weights, queries = _setup()

    # -- sequential: 8 independent oracle runs, randomness drawn per run -- #
    single = SecureInferenceEngine().compile(spec, batch_size=1)
    start = time.perf_counter()
    sequential_logits = []
    sequential_bytes = 0
    for i in range(BATCH):
        ctx = make_context(seed=100 + i)
        logits, _, _ = run_reference(ctx, single, weights, queries[i : i + 1])
        sequential_logits.append(logits[0])
        sequential_bytes += ctx.communication_bytes
    sequential_s = time.perf_counter() - start

    # -- compiled: offline once, one batched online pass ------------------ #
    engine = SecureInferenceEngine(make_context(seed=7))
    start = time.perf_counter()
    plan = engine.compile(spec, batch_size=BATCH)
    pool = engine.preprocess(plan)
    offline_s = time.perf_counter() - start

    dealer = engine.ctx.dealer
    generated_before = (dealer.triples_generated, dealer.bit_triples_generated)
    start = time.perf_counter()
    batched = engine.execute(plan, weights, queries, pool=pool)
    online_s = time.perf_counter() - start
    generated_after = (dealer.triples_generated, dealer.bit_triples_generated)

    emit(
        "Batched plan execution vs sequential oracle runs "
        f"({spec.name}, {BATCH} queries)",
        render_table(
            [
                {
                    "mode": "sequential oracle x8",
                    "offline (ms)": "-",
                    "online (ms)": round(1e3 * sequential_s, 1),
                    "per query (ms)": round(1e3 * sequential_s / BATCH, 2),
                    "online kB": round(sequential_bytes / 1e3, 1),
                },
                {
                    "mode": "compiled plan, batch=8",
                    "offline (ms)": round(1e3 * offline_s, 1),
                    "online (ms)": round(1e3 * online_s, 1),
                    "per query (ms)": round(1e3 * online_s / BATCH, 2),
                    "online kB": round(batched.communication_bytes / 1e3, 1),
                },
            ]
        )
        + f"\noffline randomness material: {batched.offline_material_bytes / 1e3:.1f} kB"
        f"\nspeedup per query (online): {sequential_s / online_s:.2f}x",
    )

    # Zero dealer generation calls during the online phase.
    assert generated_after == generated_before
    # Predictions agree with the sequential runs.
    np.testing.assert_array_equal(
        batched.logits.argmax(axis=1), np.stack(sequential_logits).argmax(axis=1)
    )
    # Measurably faster per query: one batched pass beats 8 sequential runs.
    assert online_s < sequential_s, (
        f"batched online phase ({online_s:.3f}s) should beat "
        f"{BATCH} sequential runs ({sequential_s:.3f}s)"
    )
    # The batched online bytes equal the sequential total (same protocol
    # work, just vectorized), so the per-query communication is unchanged.
    assert batched.communication_bytes == sequential_bytes
