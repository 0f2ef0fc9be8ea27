"""A scheduled round costs one link traversal, whichever way it points.

Two ``PartyChannel`` ends over a real ``TcpTransport`` pair shaped to a
20 ms one-way link: N openings (both parties send and receive) must take about
N x 20 ms — not 2N, which is what sending in turn cost — and N one-way
transfers still take N x 20 ms.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.crypto.channel import PartyChannel
from repro.crypto.events import open_bits_event, open_ring_event, transfer_event
from repro.crypto.ring import DEFAULT_RING
from repro.crypto.transport import FaultPlan, ShapedTransport, TcpListener, TcpTransport

LINK_LATENCY = 0.02
ROUNDS = 10


def _opening_round():
    shares = np.arange(8, dtype=np.uint64)
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    return [open_ring_event(shares, shares + 1), open_bits_event(bits, bits ^ 1)]


def _transfer_round():
    return [transfer_event(0, 1, np.arange(16, dtype=np.uint8), element_bits=2)]


def _time_rounds(make_round) -> float:
    """Wall clock of ROUNDS rounds run by both parties, slowest party."""
    with TcpListener() as listener:
        one = TcpTransport.connect("127.0.0.1", listener.port, timeout=10.0)
        zero = listener.accept(timeout=10.0)
    shape = FaultPlan(latency_ms=1e3 * LINK_LATENCY)
    zero, one = ShapedTransport(zero, shape), ShapedTransport(one, shape)
    elapsed, errors = {}, []

    def run(party, transport):
        channel = PartyChannel(transport, party, ring=DEFAULT_RING)
        try:
            start = time.perf_counter()
            for _ in range(ROUNDS):
                channel.run_round(make_round())
            elapsed[party] = time.perf_counter() - start
        except BaseException as exc:
            errors.append(exc)
            transport.close()  # unblock the peer

    threads = [
        threading.Thread(target=run, args=(party, transport), daemon=True)
        for party, transport in ((0, zero), (1, one))
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        zero.close()
        one.close()
    assert not errors, errors
    return max(elapsed.values())


@pytest.mark.parametrize(
    "make_round", [_opening_round, _transfer_round], ids=["openings", "transfers"]
)
def test_a_round_costs_one_link_latency(make_round):
    wall = _time_rounds(make_round)
    assert ROUNDS * LINK_LATENCY <= wall < 1.5 * ROUNDS * LINK_LATENCY
