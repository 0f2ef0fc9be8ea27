"""Tests for Module/Parameter containers and the layer modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    HardSwish,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    ReLU,
    ReLU6,
    Sequential,
    Square,
    Tensor,
)


class TestModuleInfrastructure:
    def test_parameter_registration_and_traversal(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 3)
                self.fc2 = Linear(3, 2)

            def forward(self, x):
                return self.fc2(self.fc1(x))

        net = Net()
        names = [name for name, _ in net.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert len(net.parameters()) == 4
        assert net.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2

    def test_train_eval_propagates(self):
        net = Sequential(Conv2d(1, 2, 3), BatchNorm2d(2))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_gradients(self):
        net = Linear(3, 2)
        out = net(Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert net.weight.grad is not None
        net.zero_grad()
        assert net.weight.grad is None

    def test_state_dict_round_trip(self):
        net = Sequential(Conv2d(1, 2, 3), BatchNorm2d(2), Flatten(), Linear(2 * 4 * 4, 5))
        x = Tensor(np.random.randn(2, 1, 6, 6))
        reference = net(x).data
        state = net.state_dict()
        clone = Sequential(Conv2d(1, 2, 3), BatchNorm2d(2), Flatten(), Linear(2 * 4 * 4, 5))
        clone.load_state_dict(state)
        np.testing.assert_allclose(clone(x).data, reference)

    def test_load_state_dict_rejects_unknown_and_mismatched(self):
        net = Linear(3, 2)
        with pytest.raises(KeyError):
            net.load_state_dict({"nope": np.zeros(1)})
        with pytest.raises(ValueError):
            net.load_state_dict({"weight": np.zeros((5, 5))})

    def test_sequential_indexing_and_iteration(self):
        net = Sequential(ReLU(), Square())
        assert isinstance(net[0], ReLU)
        assert len(list(net)) == 2
        net.append(Identity())
        assert len(net) == 3

    def test_module_list_registers_parameters(self):
        layers = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(layers) == 2
        assert len(layers[0].parameters()) == 2

        class Holder(Module):
            def __init__(self):
                super().__init__()
                self.items = ModuleList([Linear(2, 3)])

            def forward(self, x):
                return self.items[0](x)

        assert len(Holder().parameters()) == 2

    def test_module_list_cannot_be_called(self):
        with pytest.raises(RuntimeError):
            ModuleList([Linear(1, 1)])(Tensor(np.zeros((1, 1))))


class TestLayers:
    def test_conv2d_shapes_and_bias_toggle(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1)
        out = conv(Tensor(np.random.randn(2, 3, 8, 8)))
        assert out.shape == (2, 8, 4, 4)
        no_bias = Conv2d(3, 8, 3, bias=False)
        assert no_bias.bias is None

    def test_conv2d_rejects_indivisible_groups(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, groups=2)

    def test_linear_shapes(self):
        linear = Linear(10, 4)
        assert linear(Tensor(np.random.randn(5, 10))).shape == (5, 4)

    def test_activations(self):
        x = Tensor(np.array([-2.0, 0.5, 8.0]))
        np.testing.assert_allclose(ReLU()(x).data, [0.0, 0.5, 8.0])
        np.testing.assert_allclose(ReLU6()(x).data, [0.0, 0.5, 6.0])
        np.testing.assert_allclose(Square()(x).data, [4.0, 0.25, 64.0])
        assert HardSwish()(x).data.shape == (3,)

    def test_pooling_modules(self):
        x = Tensor(np.random.randn(1, 2, 8, 8))
        assert MaxPool2d(2)(x).shape == (1, 2, 4, 4)
        assert AvgPool2d(2)(x).shape == (1, 2, 4, 4)
        assert GlobalAvgPool2d()(x).shape == (1, 2)

    def test_batchnorm2d_running_stats_update_only_in_training(self):
        bn = BatchNorm2d(3)
        x = Tensor(np.random.randn(4, 3, 5, 5) + 2.0)
        bn(x)
        mean_after_train = bn.running_mean.copy()
        assert not np.allclose(mean_after_train, 0.0)
        bn.eval()
        bn(x)
        np.testing.assert_allclose(bn.running_mean, mean_after_train)

    def test_batchnorm_fused_affine_matches_eval_output(self):
        bn = BatchNorm2d(2)
        x = np.random.randn(3, 2, 4, 4)
        bn(Tensor(x))  # update running stats once
        bn.eval()
        expected = bn(Tensor(x)).data
        scale, shift = bn.fused_affine()
        fused = x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(fused, expected, atol=1e-10)

    def test_batchnorm1d(self):
        bn = BatchNorm1d(4)
        out = bn(Tensor(np.random.randn(16, 4) * 3 + 1))
        assert abs(out.data.mean()) < 1e-6

    def test_flatten_module(self):
        assert Flatten()(Tensor(np.zeros((2, 3, 4, 4)))).shape == (2, 48)

    def test_small_cnn_trains_to_low_loss(self):
        from repro.nn import cross_entropy
        from repro.nn.optim import SGD

        np.random.seed(0)
        net = Sequential(
            Conv2d(1, 4, 3, padding=1), ReLU(), MaxPool2d(2), Flatten(), Linear(4 * 4 * 4, 3)
        )
        x = Tensor(np.random.randn(6, 1, 8, 8))
        y = np.array([0, 1, 2, 0, 1, 2])
        optimizer = SGD(net.parameters(), lr=0.1, momentum=0.9)
        first_loss = None
        for _ in range(40):
            optimizer.zero_grad()
            loss = cross_entropy(net(x), y)
            if first_loss is None:
                first_loss = float(loss.data)
            loss.backward()
            optimizer.step()
        assert float(loss.data) < 0.1 < first_loss
