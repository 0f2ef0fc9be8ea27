"""Analytical latency model of the 2PC DNN operators (Section III-C).

Every function returns an :class:`OperatorCost` decomposing the latency into
computation and communication, following Eqs. 5-16 of the paper:

- the OT comparison flow (2PC-OT) underlying ReLU and MaxPool,
- 2PC-ReLU (Eq. 11), 2PC-MaxPool (Eq. 13),
- 2PC-X^2act (Eq. 14), 2PC-AvgPool (Eq. 15), 2PC-Conv (Eq. 16).

The model takes the feature-map geometry (``FI``, ``IC``, ...), the FPGA
device parameters and the network model, and is exercised both directly (the
Fig. 1 and Fig. 5(b) benchmarks) and through the per-layer lookup table used
by the NAS latency loss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.device import FPGADevice, ZCU104
from repro.hardware.network import LAN_1GBPS, NetworkModel

#: number of 2-bit parts a 32-bit value is split into in the OT flow
OT_NUM_PARTS = 16
#: number of candidate values per 2-bit part
OT_PART_VALUES = 4
#: bit width of one part (digit) — the packed wire entry width
OT_PART_BITS = 2


@dataclass(frozen=True)
class OperatorCost:
    """Latency decomposition of one 2PC operator invocation."""

    computation_s: float
    communication_s: float
    communication_bytes: float = 0.0

    @property
    def total_s(self) -> float:
        return self.computation_s + self.communication_s

    @property
    def total_ms(self) -> float:
        return 1e3 * self.total_s

    def __add__(self, other: "OperatorCost") -> "OperatorCost":
        return OperatorCost(
            self.computation_s + other.computation_s,
            self.communication_s + other.communication_s,
            self.communication_bytes + other.communication_bytes,
        )


ZERO_COST = OperatorCost(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class LatencyModel:
    """Bundles the device and network models and exposes per-operator costs.

    ``packed_wire=True`` recomputes the Eq. 8 path at the packed wire widths
    of the executable runtime's frame format v2: the encrypted comparison
    matrix ships :data:`OT_PART_BITS`-bit entries instead of w-bit words,
    which is what the stacked digit OT of
    :func:`repro.crypto.protocols.comparison.millionaire_gt_phases` ships
    (asserted byte-exact on the paper's 32-bit ring).  The default
    stays the paper's literal accounting so the Fig. 1 / Table I
    reproductions are unchanged.
    """

    device: FPGADevice = ZCU104
    network: NetworkModel = LAN_1GBPS
    packed_wire: bool = False

    # ------------------------------------------------------------------ #
    # 2PC-OT comparison flow (Section III-C.1)
    # ------------------------------------------------------------------ #
    def ot_flow(self, fi: int, ic: int) -> OperatorCost:
        """Latency of one OT comparison flow over an FI x FI x IC tensor."""
        elements = float(fi) * fi * ic
        w = self.device.word_bits
        pp = self.device.comparison_parallelism
        freq = self.device.frequency_hz

        # Step 1: share the mask base S — computation negligible (paper).
        comm1 = self.network.transfer_time(w)
        # Step 2 (Eqs. 5-6): S1 builds and sends the R list.
        cmp2 = w * (OT_NUM_PARTS + 1) * elements / (pp * freq)
        comm2_bits = w * OT_NUM_PARTS * elements
        comm2 = self.network.transfer_time(comm2_bits)
        # Step 3 (Eqs. 7-8): S0 builds and sends the encrypted comparison
        # matrix — w-bit words in the paper's accounting, 2-bit packed
        # entries on the executable wire.
        cmp3 = w * ((OT_NUM_PARTS + 1) + OT_PART_VALUES * OT_NUM_PARTS) * elements / (pp * freq)
        entry_bits = OT_PART_BITS if self.packed_wire else w
        comm3_bits = entry_bits * OT_PART_VALUES * OT_NUM_PARTS * elements
        comm3 = self.network.transfer_time(comm3_bits)
        # Step 4 (Eqs. 9-10): S1 decodes and returns the masked result.
        cmp4 = (w * OT_PART_VALUES * OT_NUM_PARTS + 1) * elements / (pp * freq)
        comm4_bits = elements  # one result bit-word per element (Eq. 10 as written)
        comm4 = self.network.transfer_time(comm4_bits)

        total_bits = w + comm2_bits + comm3_bits + comm4_bits
        return OperatorCost(
            computation_s=cmp2 + cmp3 + cmp4,
            communication_s=comm1 + comm2 + comm3 + comm4,
            communication_bytes=total_bits / 8.0,
        )

    # ------------------------------------------------------------------ #
    # Non-polynomial operators
    # ------------------------------------------------------------------ #
    def relu(self, fi: int, ic: int) -> OperatorCost:
        """2PC-ReLU latency (Eq. 11): one OT comparison flow."""
        return self.ot_flow(fi, ic)

    def maxpool(self, fi: int, ic: int, kernel: int = 2) -> OperatorCost:
        """2PC-MaxPool latency (Eq. 13): OT flow plus 3 extra base latencies.

        The paper models MaxPool with a single flow over the input tensor plus
        three additional round-trip constants (the pairwise-max tree).
        """
        base = self.ot_flow(fi, ic)
        extra = 3.0 * self.network.base_latency_s
        return OperatorCost(
            base.computation_s, base.communication_s + extra, base.communication_bytes
        )

    # ------------------------------------------------------------------ #
    # Polynomial operators
    # ------------------------------------------------------------------ #
    def x2act(self, fi: int, ic: int) -> OperatorCost:
        """2PC-X^2act latency (Eq. 14): one square + two plaintext multiplies."""
        elements = float(fi) * fi * ic
        pp = self.device.elementwise_parallelism
        freq = self.device.frequency_hz
        cmp = 2.0 * elements / (pp * freq)
        comm_bits = self.device.word_bits * elements
        comm_one = self.network.transfer_time(comm_bits)
        return OperatorCost(
            computation_s=cmp,
            communication_s=2.0 * comm_one,
            communication_bytes=2.0 * comm_bits / 8.0,
        )

    def avgpool(self, fi: int, ic: int, kernel: int = 2) -> OperatorCost:
        """2PC-AvgPool latency (Eq. 15): local additions and scaling only."""
        elements = float(fi) * fi * ic
        pp = self.device.elementwise_parallelism
        freq = self.device.frequency_hz
        return OperatorCost(2.0 * elements / (pp * freq), 0.0, 0.0)

    def conv(self, fi: int, fo: int, ic: int, oc: int, kernel: int) -> OperatorCost:
        """2PC-Conv latency (Eq. 16)."""
        pp = self.device.conv_parallelism
        freq = self.device.frequency_hz
        cmp = 3.0 * kernel * kernel * float(fo) * fo * ic * oc / (pp * freq)
        comm_bits = self.device.word_bits * float(fi) * fi * ic
        comm_one = self.network.transfer_time(comm_bits)
        return OperatorCost(
            computation_s=cmp,
            communication_s=2.0 * comm_one,
            communication_bytes=2.0 * comm_bits / 8.0,
        )

    def linear(self, in_features: int, out_features: int) -> OperatorCost:
        """Fully-connected layer modeled as a 1x1 convolution on a 1x1 map."""
        return self.conv(fi=1, fo=1, ic=in_features, oc=out_features, kernel=1)

    def residual_add(self, fi: int, ic: int) -> OperatorCost:
        """Elementwise addition of two shared tensors (local, Eq. 1)."""
        elements = float(fi) * fi * ic
        pp = self.device.elementwise_parallelism
        freq = self.device.frequency_hz
        return OperatorCost(elements / (pp * freq), 0.0, 0.0)

    def batchnorm(self, fi: int, ic: int) -> OperatorCost:
        """Batch norm is fused into the preceding convolution: zero extra cost."""
        return ZERO_COST


#: Default instance used by the benchmarks (ZCU104 + 1 GB/s LAN).
DEFAULT_LATENCY_MODEL = LatencyModel()

#: The same device/network with the Eq. 8 path at packed wire widths.
PACKED_LATENCY_MODEL = LatencyModel(packed_wire=True)
