"""Tests for the analytical operator latency model (Eqs. 5-16)."""

from __future__ import annotations

import pytest

from repro.hardware.device import FPGADevice, ZCU104
from repro.hardware.latency import DEFAULT_LATENCY_MODEL, LatencyModel, OperatorCost
from repro.hardware.network import LAN_1GBPS, WAN_100MBPS


class TestOperatorCost:
    def test_total_is_sum_of_parts(self):
        cost = OperatorCost(0.25, 0.75, 100.0)
        assert cost.total_s == 1.0
        assert cost.total_ms == 1000.0

    def test_addition(self):
        total = OperatorCost(1.0, 2.0, 3.0) + OperatorCost(0.5, 0.5, 1.0)
        assert total.computation_s == 1.5
        assert total.communication_s == 2.5
        assert total.communication_bytes == 4.0


class TestNetworkModel:
    def test_transfer_time_includes_base_latency(self):
        assert LAN_1GBPS.transfer_time(0) == LAN_1GBPS.base_latency_s
        assert LAN_1GBPS.transfer_time(8e9) == pytest.approx(1.0 + LAN_1GBPS.base_latency_s)

    def test_transfer_time_bytes(self):
        assert LAN_1GBPS.transfer_time_bytes(1e9) == pytest.approx(1.0 + LAN_1GBPS.base_latency_s)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            LAN_1GBPS.transfer_time(-1)

    def test_wan_is_slower_than_lan(self):
        assert WAN_100MBPS.transfer_time(1e6) > LAN_1GBPS.transfer_time(1e6)


class TestDevice:
    def test_cycles_to_seconds(self):
        device = FPGADevice(frequency_hz=100e6)
        assert device.cycles_to_seconds(100e6, parallelism=1) == pytest.approx(1.0)
        assert device.cycles_to_seconds(100e6, parallelism=4) == pytest.approx(0.25)

    def test_rejects_nonpositive_parallelism(self):
        with pytest.raises(ValueError):
            ZCU104.cycles_to_seconds(1.0, parallelism=0)


class TestFig1Calibration:
    """The latency model reproduces the Fig. 1 operator breakdown."""

    model = DEFAULT_LATENCY_MODEL

    def test_relu_56x56x64_close_to_paper(self):
        assert self.model.relu(56, 64).total_ms == pytest.approx(193.3, rel=0.10)

    def test_relu_56x56x256_close_to_paper(self):
        assert self.model.relu(56, 256).total_ms == pytest.approx(772.2, rel=0.10)

    def test_conv_3x3_64ch_within_factor_two(self):
        measured = self.model.conv(56, 56, 64, 64, 3).total_ms
        assert measured == pytest.approx(3.2, rel=1.0)

    def test_relu_dominates_bottleneck_block(self):
        relu = self.model.relu(56, 64).total_s * 2 + self.model.relu(56, 256).total_s
        conv = (
            self.model.conv(56, 56, 256, 64, 1).total_s
            + self.model.conv(56, 56, 64, 64, 3).total_s
            + self.model.conv(56, 56, 64, 256, 1).total_s
            + self.model.conv(56, 56, 256, 256, 1).total_s
        )
        assert relu / (relu + conv) > 0.9

    def test_x2act_replacement_speedup_at_least_50x(self):
        """The intro's claim: second-order polynomial gives ~50x activation speedup."""
        relu = self.model.relu(56, 64).total_s
        x2act = self.model.x2act(56, 64).total_s
        assert relu / x2act > 50


class TestLatencyScaling:
    model = DEFAULT_LATENCY_MODEL

    def test_relu_scales_linearly_with_channels(self):
        small = self.model.relu(14, 64).computation_s
        large = self.model.relu(14, 256).computation_s
        assert large == pytest.approx(4 * small, rel=1e-6)

    def test_relu_scales_quadratically_with_feature_size(self):
        small = self.model.relu(14, 64).computation_s
        large = self.model.relu(28, 64).computation_s
        assert large == pytest.approx(4 * small, rel=1e-6)

    def test_maxpool_adds_three_base_latencies_over_relu(self):
        relu = self.model.relu(16, 32)
        maxpool = self.model.maxpool(16, 32)
        extra = maxpool.communication_s - relu.communication_s
        assert extra == pytest.approx(3 * self.model.network.base_latency_s)

    def test_avgpool_has_no_communication(self):
        cost = self.model.avgpool(16, 32)
        assert cost.communication_s == 0.0
        assert cost.communication_bytes == 0.0

    def test_conv_scales_with_macs(self):
        base = self.model.conv(8, 8, 16, 16, 3).computation_s
        doubled_oc = self.model.conv(8, 8, 16, 32, 3).computation_s
        assert doubled_oc == pytest.approx(2 * base, rel=1e-6)

    def test_linear_is_1x1_conv(self):
        assert self.model.linear(512, 10).total_s == pytest.approx(
            self.model.conv(1, 1, 512, 10, 1).total_s
        )

    def test_batchnorm_is_free(self):
        assert self.model.batchnorm(32, 64).total_s == 0.0

    def test_residual_add_is_cheap(self):
        assert self.model.residual_add(56, 256).total_s < self.model.x2act(56, 256).total_s

    def test_slower_network_increases_only_communication(self):
        lan = LatencyModel(network=LAN_1GBPS)
        wan = LatencyModel(network=WAN_100MBPS)
        assert wan.relu(14, 64).computation_s == lan.relu(14, 64).computation_s
        assert wan.relu(14, 64).communication_s > lan.relu(14, 64).communication_s

    def test_faster_device_reduces_only_computation(self):
        fast_device = FPGADevice(comparison_parallelism=80)
        fast = LatencyModel(device=fast_device)
        base = DEFAULT_LATENCY_MODEL
        assert fast.relu(14, 64).computation_s < base.relu(14, 64).computation_s
        assert fast.relu(14, 64).communication_s == base.relu(14, 64).communication_s
