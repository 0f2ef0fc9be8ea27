"""Tests for the transport layer and the party channel.

Covers the array codec (framing, ring-width packing), both transport
implementations (in-process loopback, TCP sockets over localhost), and the
central parity guarantee: a protocol executed by two party programs over a
real transport produces byte-for-byte the same result and the same
communication log as the single-process simulated channel.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

import repro.crypto.transport as transport_module

from repro.crypto.channel import Channel, PartyChannel
from repro.crypto.context import TwoPartyContext, make_context
from repro.crypto.dealer import TrustedDealer
from repro.crypto.events import open_bits_event, open_ring_event, transfer_event
from repro.crypto.faults import FaultInjected, FaultPlan, FaultyTransport, ShapedTransport
from repro.crypto.kernels import dead_lane
from repro.crypto.plan import record_phases
from repro.crypto.ring import DEFAULT_RING, PAPER_RING
from repro.crypto.sharing import SharePair, share
from repro.crypto.transport import (
    FrameTooLarge,
    LoopbackTransport,
    TcpListener,
    TcpTransport,
    decode_array,
    encode_array,
)
from repro.crypto.wire import ring_element_width


class TestArrayCodec:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.uint64).reshape(3, 4),
            np.array([], dtype=np.uint64),
            np.array(7, dtype=np.uint64),
            np.arange(10, dtype=np.uint8),
            np.linspace(-1, 1, 5, dtype=np.float64),
            np.arange(6, dtype=np.uint32).reshape(2, 3),
            np.arange(4, dtype=np.int64) - 2,
        ],
        ids=["ring-2d", "ring-empty", "ring-scalar", "bits", "float64", "uint32", "int64"],
    )
    def test_roundtrip(self, array):
        decoded, payload_bytes = decode_array(encode_array(array, DEFAULT_RING))
        assert decoded.shape == array.shape
        if array.dtype in (np.uint64, np.int64):
            # ring elements come back as uint64 (the in-memory convention)
            assert decoded.dtype == np.uint64
            np.testing.assert_array_equal(decoded, array.astype(np.uint64))
            assert payload_bytes == array.size * 8
        else:
            assert decoded.dtype == array.dtype
            np.testing.assert_array_equal(decoded, array)
            assert payload_bytes == array.nbytes

    def test_ring_elements_packed_at_ring_width(self):
        """A 32-bit ring ships 4 bytes per element — the accounting width."""
        values = PAPER_RING.wrap(np.arange(6, dtype=np.uint64) * 1000)
        frame = encode_array(values, PAPER_RING)
        decoded, payload_bytes = decode_array(frame)
        assert payload_bytes == 6 * ring_element_width(PAPER_RING) == 24
        np.testing.assert_array_equal(decoded, values)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported wire dtype"):
            encode_array(np.zeros(2, dtype=np.complex128), DEFAULT_RING)


class TestTransports:
    def test_loopback_pair_moves_arrays_both_ways(self):
        a, b = LoopbackTransport.pair(timeout=5.0)
        payload = np.arange(8, dtype=np.uint64)
        a.send_arrays([payload], DEFAULT_RING)
        [received] = b.recv_arrays([payload])
        np.testing.assert_array_equal(received, payload)
        assert b.stats.payload_bytes_received == 64
        b.send_arrays([np.ones(3, dtype=np.uint8)], DEFAULT_RING)
        [received] = a.recv_arrays([np.zeros(3, dtype=np.uint8)])
        np.testing.assert_array_equal(received, np.ones(3, dtype=np.uint8))

    def test_loopback_timeout(self):
        a, _ = LoopbackTransport.pair(timeout=0.05)
        with pytest.raises(TimeoutError):
            a.recv_arrays([np.zeros(1, dtype=np.uint64)])

    def test_wire_stats_separate_payload_and_overhead(self):
        a, b = LoopbackTransport.pair()
        a.send_arrays([np.zeros((2, 2), dtype=np.uint64)], DEFAULT_RING)
        b.recv_arrays([np.zeros((2, 2), dtype=np.uint64)])
        assert a.stats.payload_bytes_sent == 32
        assert a.stats.overhead_bytes_sent == 5  # length prefix + code byte
        assert a.stats.wire_bytes_sent == 32 + 5
        assert b.stats.payload_bytes_received == 32
        assert b.stats.frames_received == 1

    def test_tcp_transport_over_localhost(self):
        listener = TcpListener(port=0)
        result = {}

        def server():
            with listener:
                transport = listener.accept(timeout=10.0)
            try:
                [received] = transport.recv_arrays([np.zeros(5, dtype=np.uint64)])
                transport.send_arrays([received * np.uint64(2)], DEFAULT_RING)
                result["server"] = received
            finally:
                transport.close()

        thread = threading.Thread(target=server)
        thread.start()
        client = TcpTransport.connect("127.0.0.1", listener.port, timeout=10.0)
        try:
            client.send_arrays([np.arange(5, dtype=np.uint64)], DEFAULT_RING)
            [doubled] = client.recv_arrays([np.zeros(5, dtype=np.uint64)])
        finally:
            client.close()
            thread.join(timeout=10.0)
        np.testing.assert_array_equal(result["server"], np.arange(5, dtype=np.uint64))
        np.testing.assert_array_equal(doubled, np.arange(5, dtype=np.uint64) * 2)

    def test_tcp_connect_fails_cleanly_without_listener(self):
        with TcpListener(port=0) as listener:
            port = listener.port  # free again once the listener is closed
        with pytest.raises(ConnectionError):
            TcpTransport.connect("127.0.0.1", port, retries=2, retry_delay=0.01)


def _run_party_program(party, transport, seed, program, results, errors):
    """Execute ``program(ctx, party)`` against a PartyChannel endpoint."""
    try:
        channel = PartyChannel(transport, party, ring=DEFAULT_RING)
        ctx = TwoPartyContext(ring=DEFAULT_RING, seed=seed, channel=channel)
        results[party] = (program(ctx, party), channel)
    except Exception as exc:  # pragma: no cover - surfaced via assertion below
        errors[party] = exc


def _run_two_party_threads(program, seed=3, transports=None):
    """Run the same SPMD program as two threads over a transport pair."""
    if transports is None:
        transports = LoopbackTransport.pair(timeout=30.0)
    results, errors = {}, {}
    threads = [
        threading.Thread(
            target=_run_party_program,
            args=(party, transports[party], seed, program, results, errors),
        )
        for party in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not errors, f"party program failed: {errors}"
    return results


def _masked_world(pair: SharePair, party: int) -> SharePair:
    """A party's view of a shared tensor: its world genuine, the other zero."""
    zeros = np.zeros(pair.shape, dtype=np.uint64)
    if party == 0:
        return SharePair(pair.share0.copy(), zeros, pair.ring)
    return SharePair(zeros, pair.share1.copy(), pair.ring)


def _dead_peer(pair: SharePair, party: int) -> SharePair:
    """A party's share of dealer material: the peer's share is the dead lane."""
    dead = dead_lane(pair.shape, pair.share0.dtype)
    if party == 0:
        return SharePair(pair.share0, dead, pair.ring)
    return SharePair(dead, pair.share1, pair.ring)


class TestSimulatedVsPartyChannelParity:
    """The satellite acceptance: simulated-vs-socket byte-count parity."""

    @pytest.mark.parametrize("transport_kind", ["loopback", "tcp"])
    def test_secure_relu_parity(self, transport_kind):
        """Full comparison flow (OT + GMW AND + B2A + mux) over a transport:
        same opened result, same byte counts, same rounds as simulation."""
        from repro.crypto.protocols.activation import secure_relu

        seed = 3
        values = np.random.default_rng(1).normal(size=(6,))

        # Reference: single-process simulated channel.
        ref_ctx = make_context(seed=seed)
        ref_shared = share(values, ref_ctx.ring, ref_ctx.rng)
        ref_out = secure_relu(ref_ctx, ref_shared)
        ref_log = ref_ctx.channel.log

        def program(ctx, party):
            # Mirror the reference's RNG usage, then run with one share-world.
            shared = share(values, ctx.ring, ctx.rng)
            out = secure_relu(ctx, _masked_world(shared, party))
            return out.share0 if party == 0 else out.share1

        if transport_kind == "tcp":
            with TcpListener(port=0) as listener:
                one = TcpTransport.connect("127.0.0.1", listener.port, timeout=30.0)
                pair = (listener.accept(timeout=30.0), one)
        else:
            pair = None

        results = _run_two_party_threads(program, seed=seed, transports=pair)
        share0, channel0 = results[0]
        share1, channel1 = results[1]

        # The jointly computed shares reconstruct to the simulated output.
        np.testing.assert_array_equal(
            DEFAULT_RING.add(share0, share1),
            DEFAULT_RING.add(ref_out.share0, ref_out.share1),
        )
        # Byte-count parity, in total (over a wire every event is a round
        # of one, logged under the "round" tag).
        for channel in (channel0, channel1):
            assert channel.total_bytes == ref_log.total_bytes
            assert channel.rounds == ref_log.rounds
        if transport_kind == "tcp":
            for party in (0, 1):
                results[party][1].transport.close()

    def test_beaver_multiply_parity_with_restricted_pool(self):
        """Each party holding only its half of the dealer material multiplies
        correctly, and the wire payload equals the simulated accounting."""
        from repro.crypto.protocols.arithmetic import multiply

        seed = 5
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 4))
        y = rng.normal(size=(4, 4))

        ref_ctx = make_context(seed=seed)
        ref_x = share(x, ref_ctx.ring, ref_ctx.rng)
        ref_y = share(y, ref_ctx.ring, ref_ctx.rng)
        ref_out = multiply(ref_ctx, ref_x, ref_y)
        ref_bytes = ref_ctx.channel.total_bytes

        def program_with_pool(ctx, party):
            shared_x = share(x, ctx.ring, ctx.rng)
            shared_y = share(y, ctx.ring, ctx.rng)
            dealer = TrustedDealer(ring=ctx.ring, seed=seed)
            full_draw, served = dealer.draw, []

            def own_world_draw(kind, shape):
                # the peer's share of every field is the dead-lane placeholder
                served.append(kind)
                item = full_draw(kind, shape)
                return {name: _dead_peer(pair, party) for name, pair in item.items()}

            dealer.draw = own_world_draw
            ctx.dealer = dealer
            out = multiply(
                ctx, _masked_world(shared_x, party), _masked_world(shared_y, party)
            )
            my_share = out.share0 if party == 0 else out.share1
            return my_share, ctx.channel.transport.stats, served

        results = _run_two_party_threads(program_with_pool, seed=seed)
        (share0, stats0, served0), _ = results[0]
        (share1, stats1, served1), _ = results[1]
        assert served0 == served1 == ["triple"]
        np.testing.assert_array_equal(
            DEFAULT_RING.add(share0, share1),
            DEFAULT_RING.add(ref_out.share0, ref_out.share1),
        )
        # Payload bytes on the wire match the simulated channel's accounting.
        assert stats0.payload_bytes_sent + stats1.payload_bytes_sent == ref_bytes
        assert stats0.payload_bytes_sent == stats1.payload_bytes_received

    def test_transfer_receiver_uses_wire_payload(self):
        """The OT receiver consumes what actually crossed the transport."""
        genuine = np.arange(6, dtype=np.uint8).reshape(2, 3)

        def program(ctx, party):
            if party == 0:
                local = genuine
            else:
                local = np.full_like(genuine, 99)  # garbage on the receiver
            return ctx.channel.run_round([transfer_event(0, 1, local, tag="ot")])[0]

        results = _run_two_party_threads(program)
        np.testing.assert_array_equal(results[0][0], genuine)
        np.testing.assert_array_equal(results[1][0], genuine)  # wire, not 99s


class TestCommunicationLogEdgeCases:
    """Satellite: CommunicationLog.rounds and per-round logging edge cases."""

    @staticmethod
    def _send(channel, sender, payload):
        channel.run_round([transfer_event(sender, 1 - sender, payload)])

    def test_empty_log_has_zero_rounds_and_bytes(self):
        channel = Channel()
        assert channel.rounds == 0
        assert channel.total_bytes == 0
        assert channel.log.messages == []

    def test_single_message_is_one_round(self):
        channel = Channel()
        self._send(channel, 0, np.zeros(1, dtype=np.uint8))
        assert channel.rounds == 1

    def test_same_sender_streak_stays_one_round(self):
        channel = Channel()
        for _ in range(5):
            self._send(channel, 1, np.zeros(2, dtype=np.uint8))
        assert channel.rounds == 1

    def test_alternation_counts_every_direction_change(self):
        channel = Channel()
        for i in range(6):
            self._send(channel, i % 2, np.zeros(1, dtype=np.uint8))
        assert channel.rounds == 6

    def test_a_round_logs_one_summed_message_per_direction(self):
        channel = Channel()  # 64-bit ring: 8 bytes per element
        channel.run_round(
            [
                transfer_event(0, 1, np.zeros(2, dtype=np.uint64), tag="open"),
                transfer_event(1, 0, np.zeros(3, dtype=np.uint64), tag="open"),
                transfer_event(0, 1, np.zeros(4, dtype=np.uint8)),
            ]
        )
        assert [(m.sender, m.receiver, m.num_bytes) for m in channel.log.messages] == [
            (0, 1, 20),
            (1, 0, 24),
        ]

    def test_clear_resets_everything(self):
        channel = Channel()
        self._send(channel, 0, np.zeros(3, dtype=np.uint64))
        channel.log.clear()
        assert channel.log.messages == []
        assert channel.rounds == 0

    def test_zero_size_payload_logs_no_message(self):
        channel = Channel()
        (received,) = channel.run_round(
            [transfer_event(0, 1, np.zeros(0, dtype=np.uint64), tag="empty")]
        )
        assert received.size == 0
        assert channel.total_bytes == 0
        assert channel.rounds == 0
        assert channel.log.messages == []

    def test_open_ring_logs_one_exchange_and_returns_sum(self):
        ctx = make_context(seed=0)
        a = ctx.ring.random((4,), ctx.rng)
        b = ctx.ring.random((4,), ctx.rng)
        (opened,) = ctx.channel.run_round([open_ring_event(a, b, tag="open")])
        np.testing.assert_array_equal(opened, ctx.ring.add(a, b))
        assert ctx.channel.total_bytes == 2 * 4 * ctx.channel.element_bytes
        assert ctx.channel.rounds == 2  # one message each direction

    def test_open_bits_returns_xor(self):
        ctx = make_context(seed=0)
        bits0 = np.array([1, 0, 1, 1], dtype=np.uint8)
        bits1 = np.array([1, 1, 0, 1], dtype=np.uint8)
        (opened,) = ctx.channel.run_round([open_bits_event(bits0, bits1, tag="and")])
        np.testing.assert_array_equal(opened, bits0 ^ bits1)
        # 4 bits per direction ride one packed byte each (frame format v2)
        assert ctx.channel.total_bytes == 2
        # the recorded trace also counts them at a byte per element
        trace, _ = record_phases(lambda ctx: (yield open_bits_event(bits0, bits1)))
        assert trace.online_bytes == 2 and trace.unpacked_bytes == 8


class TestSessionFraming:
    """Multi-message session layer: control frames + graceful shutdown."""

    def test_control_roundtrip_over_loopback(self):
        a, b = LoopbackTransport.pair()
        a.send_control(b'{"job": 1}')
        assert b.recv_control() == b'{"job": 1}'

    def test_shutdown_handshake_returns_none(self):
        a, b = LoopbackTransport.pair()
        a.send_shutdown()
        assert b.recv_control() is None

    def test_control_bytes_never_count_as_payload(self):
        """The invariant manifest verification rests on: per-job payload
        deltas stay exact on a connection that multiplexes control traffic."""
        a, b = LoopbackTransport.pair()
        a.send_control(b"x" * 100)
        b.recv_control()
        a.send_arrays([np.arange(4, dtype=np.uint64)], DEFAULT_RING)
        b.recv_arrays([np.zeros(4, dtype=np.uint64)])
        assert a.stats.payload_bytes_sent == 32
        assert b.stats.payload_bytes_received == 32
        assert a.stats.control_frames_sent == 1
        assert a.stats.control_bytes_sent > 100
        assert b.stats.control_frames_received == 1
        # wire total = payload + framing overhead + control traffic
        assert a.stats.wire_bytes_sent == (
            a.stats.payload_bytes_sent
            + a.stats.overhead_bytes_sent
            + a.stats.control_bytes_sent
        )

    def test_desync_raises_on_both_sides(self):
        a, b = LoopbackTransport.pair()
        a.send_control(b"header")
        with pytest.raises(ValueError, match="out of sync"):
            b.recv_arrays([np.zeros(2, dtype=np.uint64)])
        a2, b2 = LoopbackTransport.pair()
        a2.send_arrays([np.arange(2, dtype=np.uint64)], DEFAULT_RING)
        with pytest.raises(ValueError, match="out of sync"):
            b2.recv_control()

    def test_stats_snapshot_and_since(self):
        a, b = LoopbackTransport.pair()
        a.send_arrays([np.arange(4, dtype=np.uint64)], DEFAULT_RING)
        b.recv_arrays([np.zeros(4, dtype=np.uint64)])
        before = a.stats.snapshot()
        a.send_arrays([np.arange(8, dtype=np.uint64)], DEFAULT_RING)
        b.recv_arrays([np.zeros(8, dtype=np.uint64)])
        delta = a.stats.since(before)
        assert delta.payload_bytes_sent == 64
        assert delta.frames_sent == 1
        # the snapshot froze the earlier state
        assert before.payload_bytes_sent == 32

    def test_control_frames_cross_a_real_socket(self):
        listener = TcpListener(port=0)
        result = {}

        def server():
            with listener:
                transport = listener.accept()
            result["got"] = transport.recv_control()
            result["bye"] = transport.recv_control()
            transport.close()

        thread = threading.Thread(target=server)
        thread.start()
        client = TcpTransport.connect(port=listener.port)
        client.send_control(b"job-header")
        client.send_shutdown()
        thread.join(timeout=10)
        client.close()
        assert result["got"] == b"job-header"
        assert result["bye"] is None


class TestRoundFrames:
    """Multi-tensor round frames: the wire form of one coalesced round."""

    def test_send_arrays_round_trips_in_order(self):
        a, b = LoopbackTransport.pair()
        arrays = [
            np.arange(6, dtype=np.uint64).reshape(2, 3),
            np.arange(4, dtype=np.uint8),
            np.arange(3, dtype=np.uint64),
        ]
        sent_payload = a.send_arrays(arrays, DEFAULT_RING)
        received = b.recv_arrays([np.zeros_like(array) for array in arrays])
        assert len(received) == 3
        for original, decoded in zip(arrays, received):
            assert decoded.dtype == original.dtype
            np.testing.assert_array_equal(decoded, original)
        assert sent_payload == b.stats.payload_bytes_received == 48 + 4 + 24

    def test_round_frame_stats_count_payload_exactly(self):
        a, b = LoopbackTransport.pair()
        arrays = [np.arange(8, dtype=np.uint64), np.arange(5, dtype=np.uint8)]
        a.send_arrays(arrays, DEFAULT_RING)
        b.recv_arrays(arrays)
        # 8 ring elements at 8 bytes + 5 uint8 = 69 payload bytes
        assert a.stats.payload_bytes_sent == 69
        assert b.stats.payload_bytes_received == 69
        assert a.stats.frames_sent == 1
        assert a.stats.round_frames_sent == 1
        assert a.stats.round_arrays_sent == 2
        assert b.stats.round_frames_received == 1
        assert b.stats.round_arrays_received == 2
        assert a.stats.overhead_bytes_sent == b.stats.overhead_bytes_received == 5

    def test_round_frame_overhead_is_less_than_per_array_frames(self):
        """The point of coalescing: one frame's overhead, not N frames'."""
        arrays = [np.arange(4, dtype=np.uint64) for _ in range(10)]
        coalesced, sink_end = LoopbackTransport.pair()
        coalesced.send_arrays(arrays, DEFAULT_RING)
        sink_end.recv_arrays(arrays)
        per_array = LoopbackTransport.pair()
        for array in arrays:
            per_array[0].send_arrays([array], DEFAULT_RING)
            per_array[1].recv_arrays([array])
        assert coalesced.stats.payload_bytes_sent == per_array[0].stats.payload_bytes_sent
        assert coalesced.stats.overhead_bytes_sent < per_array[0].stats.overhead_bytes_sent

    def test_recv_arrays_rejects_non_round_frames(self):
        """A bare array record as a frame (what a peer from before rounds
        were the only data frames would send) is a desync, not data."""
        a, b = LoopbackTransport.pair()
        a._put_frame(encode_array(np.arange(3, dtype=np.uint64), DEFAULT_RING))
        with pytest.raises(ValueError, match="round frame"):
            b.recv_arrays([np.zeros(3, dtype=np.uint64)])

    def test_party_channels_run_coalesced_rounds_like_the_simulation(self):
        """run_round over a real transport: same results, same coalesced log
        as the simulated channel."""
        rng = np.random.default_rng(0)
        s0 = DEFAULT_RING.random((4,), rng)
        s1 = DEFAULT_RING.random((4,), rng)
        b0 = rng.integers(0, 2, size=(5,), dtype=np.uint8)
        b1 = rng.integers(0, 2, size=(5,), dtype=np.uint8)
        payload = rng.integers(0, 255, size=(3,), dtype=np.uint8)

        def events():
            return [
                open_ring_event(s0, s1, tag="open"),
                open_bits_event(b0, b1, tag="bits"),
                transfer_event(0, 1, payload, tag="ot"),
            ]

        simulated = Channel(ring=DEFAULT_RING)
        expected = simulated.run_round(events())

        ta, tb = LoopbackTransport.pair()
        results = {}

        def run(party, transport):
            channel = PartyChannel(transport, party, ring=DEFAULT_RING)
            results[party] = (channel.run_round(events()), channel.log)

        threads = [
            threading.Thread(target=run, args=(0, ta)),
            threading.Thread(target=run, args=(1, tb)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)

        for party in (0, 1):
            got, log = results[party]
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])
            if party == 1:  # the receiver sees the genuine OT payload
                np.testing.assert_array_equal(got[2], payload)
            assert [
                (m.sender, m.num_bytes) for m in log.messages
            ] == [(m.sender, m.num_bytes) for m in simulated.log.messages]
            assert log.rounds == simulated.log.rounds
        # one round frame each direction, arrays coalesced
        assert ta.stats.round_frames_sent == 1
        assert ta.stats.round_arrays_sent == 3  # open + bits + transfer
        assert tb.stats.round_arrays_sent == 2  # open + bits (no transfer)


class TestFaultInjection:
    """ShapedTransport / FaultyTransport: deterministic shaping and faults."""

    ARRAYS = [np.arange(4, dtype=np.uint64)]

    def _round(self, sender, receiver):
        sender.send_arrays(self.ARRAYS, DEFAULT_RING)
        return receiver.recv_arrays(self.ARRAYS)

    def test_shaped_transport_keeps_accounting_exact(self):
        a, b = LoopbackTransport.pair()
        shaped = ShapedTransport(a, FaultPlan(seed=1, latency_ms=1.0, jitter_ms=1.0))
        self._round(shaped, b)
        assert shaped.stats.payload_bytes_sent == 32
        assert shaped.stats.round_frames_sent == 1
        assert b.stats.payload_bytes_received == 32

    def test_shaping_delay_is_seeded_and_replayable(self):
        plan = FaultPlan(seed=7, latency_ms=2.0, jitter_ms=5.0, bandwidth_bytes_per_s=1e6)
        first = ShapedTransport(LoopbackTransport.pair()[0], plan)
        second = ShapedTransport(LoopbackTransport.pair()[0], plan)
        delays_a = [first._shaping_delay_s(100) for _ in range(8)]
        delays_b = [second._shaping_delay_s(100) for _ in range(8)]
        assert delays_a == delays_b  # same plan seed -> same delay sequence
        assert all(d >= 2e-3 + 1e-4 for d in delays_a)  # latency + bandwidth

    def test_drop_at_round_fires_on_the_exact_round(self):
        a, b = LoopbackTransport.pair()
        faulty = FaultyTransport(a, FaultPlan(seed=0, drop_at_round=2))
        for _ in range(2):
            self._round(faulty, b)
        with pytest.raises(FaultInjected, match="round 2"):
            faulty.send_arrays([np.arange(4, dtype=np.uint64)], DEFAULT_RING)
        assert faulty.stats.faults_injected == 1
        # the peer observes a genuine connection loss, with recv context
        with pytest.raises(ConnectionError, match="round frame 2"):
            b.recv_arrays(self.ARRAYS)

    def test_recv_direction_drop_discards_the_frame_in_flight(self):
        a, b = LoopbackTransport.pair()
        faulty = FaultyTransport(
            b, FaultPlan(seed=0, drop_at_round=0, drop_direction="recv")
        )
        a.send_arrays(self.ARRAYS, DEFAULT_RING)
        with pytest.raises(FaultInjected, match="recv direction"):
            faulty.recv_arrays(self.ARRAYS)
        assert faulty.stats.faults_injected == 1
        # the injecting side closed the link: the sender's next recv fails too
        with pytest.raises(ConnectionError):
            a.recv_arrays(self.ARRAYS)

    def test_drop_fires_at_most_max_drops_times(self):
        a, b = LoopbackTransport.pair()
        faulty = FaultyTransport(a, FaultPlan(seed=0, drop_at_round=0, max_drops=1))
        with pytest.raises(FaultInjected):
            faulty.send_arrays([np.arange(2, dtype=np.uint64)], DEFAULT_RING)
        # a fresh session against the SAME plan instance is not re-dropped
        a2, b2 = LoopbackTransport.pair()
        faulty2 = faulty.__class__(a2, faulty.plan)
        faulty2._drops_done = faulty._drops_done
        self._round(faulty2, b2)  # would raise if the drop re-fired

    def test_stall_is_survivable_and_counted(self):
        a, b = LoopbackTransport.pair()
        faulty = FaultyTransport(
            a, FaultPlan(seed=0, stall_at_round=0, stall_ms=30.0)
        )
        self._round(faulty, b)
        assert faulty.stats.stalls_injected == 1
        assert faulty.stats.faults_injected == 0

    def test_control_frames_never_trip_scripted_faults(self):
        a, b = LoopbackTransport.pair()
        faulty = FaultyTransport(a, FaultPlan(seed=0, drop_at_round=0))
        faulty.send_control(b"job-header")  # not a round frame: passes
        assert b.recv_control() == b"job-header"
        with pytest.raises(FaultInjected):
            faulty.send_arrays([np.arange(2, dtype=np.uint64)], DEFAULT_RING)

    def test_plan_validates_directions(self):
        with pytest.raises(ValueError, match="drop_direction"):
            FaultPlan(drop_direction="sideways")
        with pytest.raises(ValueError, match="stall_direction"):
            FaultPlan(stall_direction="up")

    def test_plan_json_roundtrip(self):
        plan = FaultPlan(
            seed=9,
            latency_ms=20.0,
            jitter_ms=5.0,
            bandwidth_bytes_per_s=1e9,
            stall_at_round=4,
            stall_ms=100.0,
            stall_direction="recv",
            drop_at_round=7,
            drop_direction="both",
            max_drops=2,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert plan.drops

    def test_loopback_close_poisons_the_peer(self):
        """The loopback analogue of TCP EOF: close() fails the peer's recv
        instead of letting it hang until timeout."""
        a, b = LoopbackTransport.pair(timeout=5.0)
        a.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            b.recv_arrays([np.zeros(1, dtype=np.uint64)])
        # and it keeps failing (the poison is re-queued)
        with pytest.raises(ConnectionError):
            b.recv_control()


class TestRecvErrorContext:
    """Satellite: partial-frame errors carry round index, direction, bytes."""

    def _serve_truncated(self, payload: bytes):
        """Accept one connection, ship ``payload`` raw, close mid-frame;
        returns ``(thread, port)``."""
        import socket as socket_module

        server = socket_module.socket()
        server.setsockopt(socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def run():
            conn, _ = server.accept()
            conn.sendall(payload)
            conn.close()
            server.close()

        thread = threading.Thread(target=run)
        thread.start()
        return thread, server.getsockname()[1]

    def test_partial_round_frame_reports_context(self):
        import struct

        # length prefix promises 100 bytes; only 10 arrive before EOF
        thread, port = self._serve_truncated(struct.pack("<I", 100) + b"\xfe" + b"x" * 9)
        client = TcpTransport.connect("127.0.0.1", port, timeout=10.0)
        try:
            with pytest.raises(ConnectionError) as excinfo:
                client.recv_arrays([np.zeros(99, dtype=np.uint8)])
        finally:
            client.close()
            thread.join(timeout=10)
        message = str(excinfo.value)
        assert "round frame 0" in message
        assert "recv direction" in message
        assert "mid-frame" in message
        assert "10/100" in message  # bytes-so-far of the truncated read

    def test_truncated_control_frame_reports_context(self):
        import struct

        thread, port = self._serve_truncated(struct.pack("<I", 64) + b"\xff")
        client = TcpTransport.connect("127.0.0.1", port, timeout=10.0)
        try:
            with pytest.raises(ConnectionError, match="control frame") as excinfo:
                client.recv_control()
        finally:
            client.close()
            thread.join(timeout=10)
        assert "mid-frame" in str(excinfo.value)

    def test_eof_before_any_frame_reports_zero_progress(self):
        thread, port = self._serve_truncated(b"")
        client = TcpTransport.connect("127.0.0.1", port, timeout=10.0)
        try:
            with pytest.raises(ConnectionError, match="0 payload bytes"):
                client.recv_arrays([np.zeros(1, dtype=np.uint64)])
        finally:
            client.close()
            thread.join(timeout=10)


    def test_oversized_length_prefix_is_rejected_before_allocating(self):
        """The party link must not trust a peer-supplied length: typed
        error, no hang, no allocation."""
        import struct
        import tracemalloc

        from repro.crypto.transport import FrameTooLarge

        thread, port = self._serve_truncated(struct.pack("<I", 0xFFFFFFFF))
        client = TcpTransport.connect("127.0.0.1", port, timeout=10.0)
        tracemalloc.start()
        try:
            with pytest.raises(FrameTooLarge, match="4294967295"):
                client.recv_control()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            client.close()
            thread.join(timeout=10)
        assert issubclass(FrameTooLarge, ConnectionError)
        assert peak < 1 << 20


class TestInterleavedShutdown:
    """Satellite: shutdown handshake arriving while a job is in flight."""

    def test_shutdown_during_expected_round_frame_is_a_desync(self):
        """A peer that answers a round with the shutdown handshake is out of
        sync — the receiver refuses loudly instead of mis-decoding."""
        a, b = LoopbackTransport.pair()
        a.send_shutdown()
        with pytest.raises(ValueError, match="out of sync"):
            b.recv_arrays([np.zeros(1, dtype=np.uint64)])

    def test_server_treats_mid_job_shutdown_as_connection_loss(self):
        """A PartyServer job whose first round frame — the one carrying the
        job's digest — is answered with the shutdown handshake ends in a
        connection-scoped failure (the job cannot proceed), not a crash
        with a confusing decode error, and decodes nothing."""
        from repro.crypto.plan import compile_plan
        from repro.models.builder import build_model, export_layer_weights
        from repro.models.vgg import vgg_tiny
        from repro.runtime.server import JobRequest, PartyServer, ServerConfig

        spec = vgg_tiny(input_size=8).with_all_polynomial()
        plan = compile_plan(spec, batch_size=1)
        a, b = LoopbackTransport.pair()
        config = ServerConfig(
            base_seed=0,
            plans={("m", 1): plan},
            weights={"m": export_layer_weights(build_model(spec))},
        )
        server = PartyServer(1, b, config)
        a.send_shutdown()
        request = JobRequest(
            job_id=0, model="m", batch_size=1, counter=0,
            input_share=np.zeros(plan.input_shape, dtype=np.uint64),
        )
        with pytest.raises(ConnectionError, match="shut the session down"):
            server.execute_job(request)
        assert b.stats.payload_bytes_received == 0


def _tcp_pair(timeout: float = 10.0):
    """Two connected TcpTransports in this process (party 0, party 1)."""
    with TcpListener() as listener:
        client = TcpTransport.connect("127.0.0.1", listener.port, timeout=timeout)
        server = listener.accept(timeout=timeout)
    return server, client


def _in_threads(*calls, timeout: float = 60.0):
    """Run the calls concurrently; returns their results, re-raising errors."""
    results, errors = {}, {}

    def run(index, call):
        try:
            results[index] = call()
        except BaseException as exc:  # surfaced via the assertion below
            errors[index] = exc

    threads = [
        threading.Thread(target=run, args=(index, call), daemon=True)
        for index, call in enumerate(calls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads), "exchange hung"
    assert not errors, errors
    return [results[index] for index in range(len(calls))]


def _round_frame_bytes(arrays) -> bytes:
    """The on-wire bytes (length prefix included) of one round frame."""
    a, b = LoopbackTransport.pair()
    a.send_arrays(arrays, DEFAULT_RING)
    frame = b._inbox.get()
    return struct.pack("<I", len(frame)) + frame


class _RawPeer:
    """A raw socket peer: ships scripted bytes, then half-closes and drains
    whatever the transport under test sends until that side closes."""

    def __init__(self, payload: bytes, hold_open: bool = False) -> None:
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self._payload = payload
        self._hold_open = hold_open
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        conn, _ = self._listener.accept()
        self._listener.close()
        with conn:
            conn.sendall(self._payload)
            if self._hold_open:  # a silent peer: neither reads nor closes
                self._release.wait(timeout=30)
                return
            conn.shutdown(socket.SHUT_WR)
            while conn.recv(1 << 16):
                pass

    def finish(self) -> None:
        self._release.set()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


class TestFullDuplexExchange:
    """``exchange_arrays`` / ``_transfer(frame, receive=True)``: both frames
    in flight."""

    ARRAYS_A = [np.arange(6, dtype=np.uint64), (np.array([1, 0, 1], dtype=np.uint8), 1)]
    ARRAYS_B = [np.arange(4, dtype=np.uint64) + 7]

    def test_exchange_accounting_equals_send_then_recv(self):
        """Same frames, same WireStats: only the frame layer differs."""
        a, b = LoopbackTransport.pair()
        b.send_arrays(self.ARRAYS_B, DEFAULT_RING)  # already queued for a
        received = a.exchange_arrays(self.ARRAYS_A, self.ARRAYS_B, DEFAULT_RING)
        np.testing.assert_array_equal(received[0], self.ARRAYS_B[0])
        assert [len(r) for r in b.recv_arrays(self.ARRAYS_A)] == [6, 3]

        ref_a, ref_b = LoopbackTransport.pair()
        ref_a.send_arrays(self.ARRAYS_A, DEFAULT_RING)
        ref_b.send_arrays(self.ARRAYS_B, DEFAULT_RING)
        ref_a.recv_arrays(self.ARRAYS_B)
        ref_b.recv_arrays(self.ARRAYS_A)
        assert a.stats == ref_a.stats
        assert b.stats == ref_b.stats

    def test_send_arrays_overrides_still_see_exchanged_rounds(self):
        """A subclass that observes ``send_arrays`` (the e2e benchmark's
        frame recorder does) sees two-way rounds too."""
        seen = []

        class Recording(ShapedTransport):
            def send_arrays(self, arrays, ring=DEFAULT_RING):
                arrays = list(arrays)
                seen.append(len(arrays))
                return super().send_arrays(arrays, ring)

        a, b = LoopbackTransport.pair()
        recording = Recording(a, FaultPlan())
        b.send_arrays(self.ARRAYS_B, DEFAULT_RING)
        recording.exchange_arrays(self.ARRAYS_A, self.ARRAYS_B, DEFAULT_RING)
        assert seen == [2]
        assert recording.stats.round_frames_sent == 1

    def test_tcp_exchange_round_trips_arrays(self):
        server, client = _tcp_pair()
        try:
            got_server, got_client = _in_threads(
                lambda: server.exchange_arrays(self.ARRAYS_A, self.ARRAYS_B, DEFAULT_RING),
                lambda: client.exchange_arrays(self.ARRAYS_B, self.ARRAYS_A, DEFAULT_RING),
            )
        finally:
            server.close()
            client.close()
        np.testing.assert_array_equal(got_server[0], self.ARRAYS_B[0])
        np.testing.assert_array_equal(got_client[0], self.ARRAYS_A[0])
        np.testing.assert_array_equal(got_client[1], self.ARRAYS_A[1][0])
        assert server.stats.payload_bytes_sent == client.stats.payload_bytes_received
        assert client.stats.payload_bytes_sent == server.stats.payload_bytes_received

    def test_simultaneous_32mib_frames_complete(self):
        """Both peers push a frame far beyond the socket buffers at once:
        send-then-receive on both sides would deadlock in ``sendall``; the
        duplex loop drains the peer while it sends."""
        server, client = _tcp_pair(timeout=30.0)
        size = 32 * 1024 * 1024
        buffers = sum(
            server._sock.getsockopt(socket.SOL_SOCKET, option)
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF)
        )
        assert size > 2 * buffers
        frame_a = bytes([1]) * size
        frame_b = bytes([2]) * size
        try:
            got_server, got_client = _in_threads(
                lambda: server._transfer(frame_a, receive=True),
                lambda: client._transfer(frame_b, receive=True),
            )
        finally:
            server.close()
            client.close()
        assert got_server == frame_b
        assert got_client == frame_a

    def test_peer_closing_mid_exchange_names_the_round_index(self):
        arrays = [np.arange(4, dtype=np.uint64)]
        whole = _round_frame_bytes(arrays)
        truncated = struct.pack("<I", 100) + b"\xfe" + b"x" * 9
        peer = _RawPeer(whole + truncated)
        client = TcpTransport.connect("127.0.0.1", peer.port, timeout=10.0)
        try:
            client.exchange_arrays(arrays, arrays, DEFAULT_RING)  # round 0 completes
            with pytest.raises(ConnectionError) as excinfo:
                client.exchange_arrays(arrays, arrays, DEFAULT_RING)
        finally:
            client.close()
            peer.finish()
        message = str(excinfo.value)
        assert "round frame 1" in message
        assert "round index 1" in message
        assert "mid-frame" in message
        assert "10/100" in message

    def test_hostile_prefix_inside_an_exchange_is_rejected_before_allocating(self):
        peer = _RawPeer(struct.pack("<I", 0xFFFFFFFF))
        client = TcpTransport.connect("127.0.0.1", peer.port, timeout=10.0)
        tracemalloc.start()
        try:
            arrays = [np.arange(4, dtype=np.uint64)]
            with pytest.raises(FrameTooLarge, match="4294967295"):
                client.exchange_arrays(arrays, arrays, DEFAULT_RING)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            client.close()
            peer.finish()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "frame_bytes", [64, 16 * 1024 * 1024], ids=["awaiting-reply", "send-blocked"]
    )
    def test_silent_peer_times_out_within_the_transport_timeout(self, frame_bytes):
        """Neither a peer that never answers nor one that never reads may
        hang the exchange past ``timeout``."""
        peer = _RawPeer(b"", hold_open=True)
        client = TcpTransport.connect("127.0.0.1", peer.port, timeout=0.3)
        start = time.perf_counter()
        try:
            with pytest.raises(TimeoutError):
                client._transfer(bytes(frame_bytes), receive=True)
            elapsed = time.perf_counter() - start
        finally:
            client.close()
            peer.finish()
        assert 0.25 <= elapsed < 3.0

    @pytest.mark.parametrize(
        "make_pair", [LoopbackTransport.pair, _tcp_pair], ids=["loopback", "tcp"]
    )
    def test_shaped_exchange_sleeps_its_delay_once(self, make_pair):
        shaped = [ShapedTransport(end, FaultPlan(latency_ms=50.0)) for end in make_pair()]
        arrays = [np.arange(4, dtype=np.uint64)]
        start = time.perf_counter()
        try:
            _in_threads(
                lambda: shaped[0].exchange_arrays(arrays, arrays, DEFAULT_RING),
                lambda: shaped[1].exchange_arrays(arrays, arrays, DEFAULT_RING),
            )
            elapsed = time.perf_counter() - start
        finally:
            for end in shaped:
                end.close()
        assert 0.05 <= elapsed < 0.09  # one traversal, not two


class TestSenderSideFrameLimit:
    """An oversized frame is refused before a byte leaves, not shipped for
    the peer to kill the session on."""

    @pytest.mark.parametrize("duplex", [False, True], ids=["one-way", "exchange"])
    def test_oversized_frame_raises_on_the_sending_side(self, monkeypatch, duplex):
        monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", 64)
        server, client = _tcp_pair(timeout=5.0)
        big = [np.arange(100, dtype=np.uint64)]
        try:
            with pytest.raises(FrameTooLarge, match="refusing to send"):
                if duplex:
                    client.exchange_arrays(big, big, DEFAULT_RING)
                else:
                    client.send_arrays(big, DEFAULT_RING)
            # nothing leaked onto the stream: the next frame the peer sees
            # is the control message sent afterwards
            client.send_control(b"still-aligned")
            assert server.recv_control() == b"still-aligned"
        finally:
            server.close()
            client.close()


class TestFaultsOnExchangedRounds:
    """Scripted faults index exchanged rounds by the same per-direction
    counters as one-way frames: send-side before the exchange, recv-side
    after it."""

    ARRAYS = [np.arange(4, dtype=np.uint64)]

    def _one_way_to(self, sender, receiver):
        sender.send_arrays(self.ARRAYS, DEFAULT_RING)
        return receiver.recv_arrays(self.ARRAYS)

    def test_send_side_drop_fires_before_the_exchange(self):
        a, b = LoopbackTransport.pair()
        faulty = FaultyTransport(a, FaultPlan(drop_at_round=1))
        self._one_way_to(b, faulty)  # a receive does not advance the send index
        b.send_arrays(self.ARRAYS, DEFAULT_RING)
        faulty.exchange_arrays(self.ARRAYS, self.ARRAYS, DEFAULT_RING)  # send round 0
        b.recv_arrays(self.ARRAYS)
        b.send_arrays(self.ARRAYS, DEFAULT_RING)
        with pytest.raises(FaultInjected, match=r"round 1 \(send direction"):
            faulty.exchange_arrays(self.ARRAYS, self.ARRAYS, DEFAULT_RING)
        assert faulty.stats.faults_injected == 1
        assert faulty.stats.round_frames_sent == 1  # the frame never left
        with pytest.raises(ConnectionError, match="round frame 1"):
            b.recv_arrays(self.ARRAYS)

    def test_recv_side_drop_fires_after_the_exchange(self):
        a, b = LoopbackTransport.pair()
        faulty = FaultyTransport(
            a, FaultPlan(drop_at_round=1, drop_direction="recv")
        )
        self._one_way_to(faulty, b)  # a send does not advance the recv index
        self._one_way_to(b, faulty)  # recv round 0
        b.send_arrays(self.ARRAYS, DEFAULT_RING)
        with pytest.raises(FaultInjected, match=r"round 1 \(recv direction"):
            faulty.exchange_arrays(self.ARRAYS, self.ARRAYS, DEFAULT_RING)
        assert faulty.stats.faults_injected == 1
        assert faulty.stats.round_frames_sent == 2  # my half of the round left
        assert len(b.recv_arrays(self.ARRAYS)) == 1
        with pytest.raises(ConnectionError):
            b.recv_arrays(self.ARRAYS)

    def test_stall_on_an_exchanged_round_fires_once_per_configured_direction(self):
        a, b = LoopbackTransport.pair()
        faulty = FaultyTransport(
            a,
            FaultPlan(stall_at_round=0, stall_ms=20.0, stall_direction="both"),
        )
        for _ in range(2):
            b.send_arrays(self.ARRAYS, DEFAULT_RING)
            faulty.exchange_arrays(self.ARRAYS, self.ARRAYS, DEFAULT_RING)
        assert faulty.stats.stalls_injected == 2  # send index 0 + recv index 0
        assert faulty.stats.faults_injected == 0
