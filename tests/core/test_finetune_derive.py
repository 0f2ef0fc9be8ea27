"""Tests for the finetuning loop, architecture derivation and serialization."""

from __future__ import annotations

import pytest

from repro.core.derive import derive_architecture, load_architecture, save_architecture
from repro.core.finetune import TrainConfig, Trainer, finetune_derived
from repro.core.supernet import Supernet
from repro.data import DataLoader, synthetic_tiny, train_val_split
from repro.models.builder import build_model
from repro.models.specs import ModelSpec
from repro.models.vgg import vgg_tiny


@pytest.fixture
def loaders():
    dataset = synthetic_tiny(num_samples=96, image_size=8, seed=3, noise_std=0.25)
    train, val = train_val_split(dataset, 0.5, seed=0)
    return DataLoader(train, batch_size=12, seed=1), DataLoader(val, batch_size=12, seed=2)


class TestTrainer:
    def test_training_reduces_loss(self, loaders):
        train_loader, val_loader = loaders
        model = build_model(vgg_tiny(input_size=8))
        history = Trainer(TrainConfig(epochs=3, lr=0.05)).train(model, train_loader, val_loader)
        assert history.train_loss[-1] < history.train_loss[0]
        assert len(history.val_accuracy) == 3

    def test_validation_accuracy_beats_chance(self, loaders):
        train_loader, val_loader = loaders
        model = build_model(vgg_tiny(input_size=8))
        history = Trainer(TrainConfig(epochs=4, lr=0.08)).train(model, train_loader, val_loader)
        assert history.best_val_accuracy > 0.3  # 10 classes -> chance is 0.1

    def test_evaluate_topk(self, loaders):
        _, val_loader = loaders
        model = build_model(vgg_tiny(input_size=8))
        top1 = Trainer.evaluate(model, val_loader, topk=1)
        top5 = Trainer.evaluate(model, val_loader, topk=5)
        assert 0.0 <= top1 <= top5 <= 1.0

    def test_history_best_accuracy_empty(self):
        from repro.core.finetune import TrainHistory

        assert TrainHistory().best_val_accuracy == 0.0


class TestFinetuneDerived:
    def test_polynomial_model_finetunes(self, loaders):
        train_loader, val_loader = loaders
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        model, history = finetune_derived(
            spec, train_loader, val_loader, TrainConfig(epochs=3, lr=0.05)
        )
        assert history.best_val_accuracy > 0.25
        # STPAI was applied before training started
        from repro.core.stpai import iter_x2act

        assert list(iter_x2act(model))

    def test_polynomial_accuracy_close_to_relu_accuracy(self, loaders):
        """The core accuracy claim at tiny scale: the all-polynomial network
        finetuned with STPAI stays within a few points of the all-ReLU one."""
        train_loader, val_loader = loaders
        relu_spec = vgg_tiny(input_size=8)
        relu_model = build_model(relu_spec)
        relu_hist = Trainer(TrainConfig(epochs=4, lr=0.08)).train(relu_model, train_loader, val_loader)

        poly_spec = relu_spec.with_all_polynomial()
        _, poly_hist = finetune_derived(poly_spec, train_loader, val_loader, TrainConfig(epochs=4, lr=0.08))
        assert poly_hist.best_val_accuracy >= relu_hist.best_val_accuracy - 0.2


class TestDeriveAndSerialize:
    def test_derive_architecture_from_supernet(self):
        supernet = Supernet(vgg_tiny())
        derived = derive_architecture(supernet, name_suffix="-final")
        assert derived.name.endswith("-final")
        assert len(derived.layers) == len(supernet.backbone.layers)

    def test_save_and_load_round_trip(self, tmp_path):
        spec = vgg_tiny().with_all_polynomial()
        path = save_architecture(spec, tmp_path / "arch.json")
        restored = load_architecture(path)
        assert isinstance(restored, ModelSpec)
        assert restored == spec

    def test_loaded_architecture_is_buildable(self, tmp_path, rng):
        from repro.nn.tensor import Tensor

        spec = vgg_tiny(input_size=8).with_all_polynomial()
        path = save_architecture(spec, tmp_path / "arch.json")
        net = build_model(load_architecture(path))
        assert net(Tensor(rng.normal(size=(1, 3, 8, 8)))).shape == (1, 10)
