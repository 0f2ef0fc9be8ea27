"""Private inference under 2PC, operator by operator.

Demonstrates the cryptographic substrate on its own (Section II of the
paper): secret sharing a client query, evaluating polynomial and
non-polynomial operators over the shares, and running a full derived PASNet
model privately — compiled into a plan, preprocessed offline, executed
online over a query batch — while accounting every byte on the wire.

Run with:  python examples/private_inference_2pc.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.crypto import make_context, reconstruct, share
from repro.crypto.protocols import (
    multiply,
    secure_relu,
    secure_x2act,
    square,
)
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models import build_model, export_layer_weights, vgg_tiny
from repro.nn.tensor import Tensor
from repro.utils import seed_everything


def demo_operators() -> None:
    """The building blocks: share, multiply (Beaver), square, ReLU, X^2act."""
    print("== 2PC operator demo ==")
    ctx = make_context(seed=0)
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, size=(4,))
    y = rng.uniform(-2, 2, size=(4,))
    x_shared, y_shared = share(x, ctx.ring, rng), share(y, ctx.ring, rng)

    print(f"secret x = {np.round(x, 3)}")
    print(f"  share held by S0: {x_shared.share0}")
    print(f"  share held by S1: {x_shared.share1}")

    product = reconstruct(multiply(ctx, x_shared, y_shared))
    print(f"[x*y]   -> {np.round(product, 3)} (plaintext {np.round(x * y, 3)})")
    squared = reconstruct(square(ctx, x_shared))
    print(f"[x^2]   -> {np.round(squared, 3)} (plaintext {np.round(x * x, 3)})")

    ctx.reset_communication()
    relu = reconstruct(secure_relu(ctx, x_shared))
    relu_bytes = ctx.communication_bytes
    print(f"ReLU(x) -> {np.round(relu, 3)}  [{relu_bytes} bytes of comparison traffic]")

    ctx.reset_communication()
    poly = reconstruct(secure_x2act(ctx, x_shared, w1=0.2, w2=1.0, b=0.0, num_elements=4))
    poly_bytes = ctx.communication_bytes
    print(f"X2act(x)-> {np.round(poly, 3)}  [{poly_bytes} bytes]")
    print(f"ReLU costs {relu_bytes / max(poly_bytes, 1):.0f}x the communication of X^2act\n")


def demo_model_inference() -> None:
    """Full private inference of an all-polynomial tiny VGG, compiled into a
    plan: offline compile + preprocess, then a batched online phase."""
    print("== full-model private inference (compile -> preprocess -> execute) ==")
    seed_everything(1)
    spec = vgg_tiny(input_size=8).with_all_polynomial()
    model = build_model(spec)
    model.eval()
    weights = export_layer_weights(model)

    rng = np.random.default_rng(5)
    batch = 4
    queries = rng.normal(size=(batch, 3, 8, 8))
    plaintext = model(Tensor(queries)).data

    engine = SecureInferenceEngine(make_context(seed=2))

    # Offline phase: lower the spec into a plan and pre-generate every
    # Beaver triple / pair / bit triple the online phase will consume.
    start = time.perf_counter()
    plan = engine.compile(spec, batch_size=batch)
    pool = engine.preprocess(plan)
    offline_s = time.perf_counter() - start

    # Online phase: the client-visible latency — zero dealer calls.
    start = time.perf_counter()
    result = engine.execute(plan, weights, queries, pool=pool)
    online_s = time.perf_counter() - start

    error = np.abs(result.logits - plaintext).max()
    manifest = plan.manifest
    print(f"model: {spec.name} ({len(spec.layers)} layers, all polynomial), "
          f"batch of {batch} queries")
    print(f"max |2PC - plaintext| logit error: {error:.4f} (fixed-point noise)")
    print(f"predictions agree: {np.array_equal(result.logits.argmax(1), plaintext.argmax(1))}")
    print(f"offline: {1e3 * offline_s:.1f} ms — "
          f"{manifest.triple_elements} triple + "
          f"{manifest.square_pair_elements} square-pair + "
          f"{manifest.bit_triple_elements} AND-plane bits "
          f"({manifest.material_bytes / 1e3:.1f} kB of material)")
    print(f"online:  {1e3 * online_s:.1f} ms — "
          f"{result.communication_bytes / 1e3:.1f} kB "
          f"in {result.communication_rounds} rounds "
          f"({result.online_bytes_per_query / 1e3:.1f} kB/query)")
    print(f"plan prediction exact: "
          f"{result.communication_bytes == plan.online_bytes}")
    print("per-layer online communication (top 5):")
    top = sorted(result.execution.per_op_bytes.items(), key=lambda kv: kv[1], reverse=True)[:5]
    for name, num_bytes in top:
        print(f"  {name:<10s} {num_bytes / 1e3:8.1f} kB")


if __name__ == "__main__":
    demo_operators()
    demo_model_inference()
