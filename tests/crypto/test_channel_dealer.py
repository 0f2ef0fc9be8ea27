"""Tests for the communication channel, its accounting, and the trusted dealer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.channel import Channel, CommunicationLog, Message
from repro.crypto.dealer import TrustedDealer
from repro.crypto.events import open_ring_event, transfer_event
from repro.crypto.andgates import unpack_planes
from repro.crypto.ring import DEFAULT_RING, PAPER_RING
from repro.crypto.sharing import reconstruct_ring


class TestChannel:
    def test_byte_accounting_for_ring_elements(self):
        channel = Channel(ring=PAPER_RING)  # 32-bit ring: 4 bytes per element
        channel.run_round([transfer_event(0, 1, np.zeros(10, dtype=np.uint64))])
        assert channel.total_bytes == 40

    def test_byte_accounting_for_bit_payloads(self):
        channel = Channel(ring=PAPER_RING)
        channel.run_round([transfer_event(0, 1, np.zeros(10, dtype=np.uint8))])
        assert channel.total_bytes == 10

    def test_round_counting(self):
        channel = Channel()
        for sender, tag in ((0, "a"), (0, "b"), (1, "c"), (0, "d")):
            channel.run_round([transfer_event(sender, 1 - sender, np.zeros(1, np.uint8), tag)])
        assert channel.rounds == 3

    def test_exchange_counts_both_directions(self):
        channel = Channel()  # 64-bit ring: 8 bytes per element
        zeros = np.zeros(3, dtype=np.uint64)
        channel.run_round([open_ring_event(zeros, zeros)])
        assert channel.total_bytes == 48

    def test_rejects_self_send(self):
        with pytest.raises(ValueError):
            Channel().run_round([transfer_event(0, 0, np.zeros(1))])

    def test_reset_clears_log(self):
        channel = Channel()
        channel.run_round([transfer_event(0, 1, np.zeros(5, dtype=np.uint64))])
        channel.reset()
        assert channel.total_bytes == 0 and channel.rounds == 0

    def test_log_totals_sum_every_message(self):
        log = CommunicationLog(
            messages=[Message(0, 1, 10), Message(1, 0, 5), Message(0, 1, 7)]
        )
        assert (log.total_bytes, log.rounds) == (22, 3)

    def test_payload_returned_unchanged(self):
        channel = Channel()
        payload = np.arange(4, dtype=np.uint64)
        (received,) = channel.run_round([transfer_event(0, 1, payload)])
        np.testing.assert_array_equal(received, payload)


class TestTrustedDealer:
    def test_drawn_triple_is_consistent(self):
        dealer = TrustedDealer(DEFAULT_RING, seed=0)
        triple = dealer.draw("triple", (4, 4))
        a = reconstruct_ring(triple["a"])
        b = reconstruct_ring(triple["b"])
        z = reconstruct_ring(triple["z"])
        np.testing.assert_array_equal(z, DEFAULT_RING.mul(a, b))

    def test_square_pair_is_consistent(self):
        dealer = TrustedDealer(PAPER_RING, seed=2)
        pair = dealer.draw("square", (8,))
        a = reconstruct_ring(pair["a"])
        np.testing.assert_array_equal(reconstruct_ring(pair["z"]), PAPER_RING.mul(a, a))

    def test_and_gate_item_satisfies_and_relation(self):
        """The one-monomial AND item: two masks and their product."""
        dealer = TrustedDealer(seed=3)
        item = dealer.draw("bit", (2, 1, 100))
        assert item["lam0"].shape == (3, 13)  # three planes of 100 bits, packed
        lam = unpack_planes(item["lam0"] ^ item["lam1"], (100,))
        np.testing.assert_array_equal(lam[2], lam[0] & lam[1])
        assert set(np.unique(lam)) <= {0, 1}

    def test_triple_counter_increments(self):
        dealer = TrustedDealer(seed=6)
        dealer.draw("triple", (3, 3))
        dealer.draw("bit", (2, 1, 5))
        assert dealer.generated == {"triple": 9, "bit": 15}

    def test_dealer_is_deterministic_given_seed(self):
        first = TrustedDealer(seed=9).draw("triple", (2, 2))
        second = TrustedDealer(seed=9).draw("triple", (2, 2))
        np.testing.assert_array_equal(first["a"].share0, second["a"].share0)
