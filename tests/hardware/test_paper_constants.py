"""Cross-checks between the analytical model, the executed protocols and the
constants quoted in the paper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.plan import record_phases
from repro.crypto.protocols.comparison import millionaire_gt_phases
from repro.crypto.ring import PAPER_RING
from repro.hardware.latency import (
    DEFAULT_LATENCY_MODEL,
    OT_NUM_PARTS,
    OT_PART_BITS,
    OT_PART_VALUES,
)


class TestOTFlowConstants:
    def test_paper_digit_decomposition(self):
        """32-bit values split into U = 16 two-bit parts (Section III-C.1)."""
        assert OT_NUM_PARTS == 16
        assert OT_PART_VALUES == 4
        assert PAPER_RING.ring_bits // 2 == OT_NUM_PARTS

    def test_relu_communication_per_element_is_about_324_bytes(self):
        """The per-element OT-flow volume implied by Eqs. 6/8/10:
        32·16 + 32·4·16 + 1 word ≈ 2592 bits ≈ 324 bytes."""
        cost = DEFAULT_LATENCY_MODEL.relu(10, 10)
        per_element = cost.communication_bytes / (10 * 10 * 10)
        assert per_element == pytest.approx(324.0, rel=0.02)

    def test_packed_eq8_matrix_is_what_the_digit_ot_ships(self):
        """The packed Eq. 8 matrix — 4 x U entries of 2 bits per element —
        is the stacked digit OT the runtime's comparison sends, S0 to S1."""
        elements = 37
        zeros = np.zeros(elements, dtype=np.uint64)
        trace, _ = record_phases(
            lambda ctx: millionaire_gt_phases(ctx, zeros, zeros, bit_width=PAPER_RING.ring_bits),
            PAPER_RING,
        )
        ((ot_event,), *_) = trace.groups
        packed_bits = OT_PART_BITS * OT_PART_VALUES * OT_NUM_PARTS * elements
        assert ot_event == ((0, packed_bits // 8),)

    def test_x2act_communication_is_two_openings(self):
        """Eq. 14: two COMM terms of one 32-bit word per element each."""
        cost = DEFAULT_LATENCY_MODEL.x2act(10, 10)
        per_element = cost.communication_bytes / (10 * 10 * 10)
        assert per_element == pytest.approx(8.0, rel=0.01)

    def test_paper_device_settings(self):
        """ZCU104 runs at 200 MHz with 32-bit crypto words (Section IV)."""
        device = DEFAULT_LATENCY_MODEL.device
        assert device.frequency_hz == pytest.approx(200e6)
        assert device.word_bits == 32

    def test_paper_network_settings(self):
        """The evaluation link is 1 GB/s (8e9 bit/s)."""
        assert DEFAULT_LATENCY_MODEL.network.bandwidth_bps == pytest.approx(8e9)
