"""Ablation — STPAI vs naive polynomial initialization.

The paper's first contribution is the straight-through polynomial activation
initialization.  This ablation finetunes the same all-polynomial tiny VGG
twice — once STPAI-initialized, once with random polynomial coefficients —
on the synthetic CIFAR-10-like dataset and compares the finetuned accuracy
and how far the initial network output deviates from the ReLU reference.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.core.finetune import TrainConfig, Trainer
from repro.core.stpai import naive_initialize, stpai_initialize
from repro.data import DataLoader, synthetic_tiny, train_val_split
from repro.evaluation.report import render_table
from repro.models.builder import build_model
from repro.models.vgg import vgg_tiny
from repro.nn.tensor import Tensor
from repro.utils import seed_everything


def _run_ablation():
    dataset = synthetic_tiny(num_samples=128, image_size=8, seed=5, noise_std=0.25)
    train, val = train_val_split(dataset, 0.5, seed=0)
    train_loader = DataLoader(train, batch_size=16, seed=1)
    val_loader = DataLoader(val, batch_size=16, seed=2)
    spec = vgg_tiny(input_size=8).with_all_polynomial()

    results = {}
    for name, init_fn in (("STPAI", stpai_initialize), ("naive", naive_initialize)):
        seed_everything(0)
        model = build_model(spec)
        init_fn(model, seed=0)
        # How far the initialized activation is from the identity (pass-through)
        # on a probe tensor — the property STPAI is designed to guarantee.
        from repro.core.stpai import iter_x2act

        probe = np.random.default_rng(0).normal(size=(4, 256))
        deviations = []
        for act in iter_x2act(model):
            out = act(Tensor(probe)).data
            deviations.append(float(np.abs(out - probe).mean()))
        identity_deviation = float(np.mean(deviations))
        history = Trainer(TrainConfig(epochs=4, lr=0.08)).train(model, train_loader, val_loader)
        results[name] = {
            "init": name,
            "identity deviation": identity_deviation,
            "best val acc": history.best_val_accuracy,
            "final train loss": history.train_loss[-1],
        }
    return results


def test_ablation_stpai_vs_naive_initialization(benchmark):
    results = benchmark(_run_ablation)
    emit("STPAI ablation", render_table(list(results.values())))
    # STPAI starts at a near-identity operating point (the straight-through
    # property), the naive polynomial initialization does not …
    assert results["STPAI"]["identity deviation"] < 0.01
    assert results["naive"]["identity deviation"] > 10 * results["STPAI"]["identity deviation"]
    # … and STPAI finetunes to at least as good an accuracy.
    assert results["STPAI"]["best val acc"] >= results["naive"]["best val acc"]
