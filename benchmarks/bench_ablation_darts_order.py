"""Ablation — second-order vs first-order architecture gradient.

Algorithm 1 uses the second-order DARTS approximation (virtual weight step +
finite-difference Hessian-vector product).  This ablation runs the same
search with and without the second-order correction and compares wall-clock
cost per step and the resulting architecture.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit
from repro.core.search import DifferentiablePolynomialSearch, SearchConfig
from repro.core.supernet import Supernet
from repro.data import DataLoader, synthetic_tiny, train_val_split
from repro.evaluation.report import render_table
from repro.models.vgg import vgg_tiny
from repro.utils import seed_everything


def _run(second_order: bool, num_steps: int = 5):
    seed_everything(3)
    dataset = synthetic_tiny(num_samples=64, image_size=8, seed=1, noise_std=0.25)
    train, val = train_val_split(dataset, 0.5, seed=0)
    supernet = Supernet(vgg_tiny(input_size=8))
    search = DifferentiablePolynomialSearch(
        supernet,
        DataLoader(train, batch_size=8, seed=1),
        DataLoader(val, batch_size=8, seed=2),
        SearchConfig(
            latency_lambda=1e-2, num_steps=num_steps, second_order=second_order, log_every=0
        ),
    )
    start = time.perf_counter()
    result = search.run()
    elapsed = time.perf_counter() - start
    return {
        "order": "second" if second_order else "first",
        "seconds/step": elapsed / num_steps,
        "poly fraction": result.polynomial_fraction,
        "expected latency (ms)": result.final_expected_latency_ms,
        "final val loss": result.history[-1].val_loss,
    }


def test_ablation_darts_second_vs_first_order(benchmark):
    def run_both():
        return [_run(second_order=True), _run(second_order=False)]

    rows = benchmark(run_both)
    emit("DARTS order ablation", render_table(rows))
    second, first = rows
    # The second-order update needs the extra forward/backward passes
    # (Algorithm 1 lines 6-13), so it must cost more per step.
    assert second["seconds/step"] > first["seconds/step"]
    # Both discover latency-reducing architectures under the same λ.
    assert second["poly fraction"] > 0
    assert first["poly fraction"] > 0
