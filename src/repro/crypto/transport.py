"""Byte transports for the networked 2PC runtime.

The :class:`~repro.crypto.channel.Channel` family needs a way to move
ndarray payloads between the two computing parties.  This module extracts
that concern into a :class:`Transport` abstraction:

- :class:`LoopbackTransport` — the in-process simulated transport: a pair
  of connected endpoints backed by thread-safe queues, used to run the two
  party programs in two threads of one process;
- :class:`TcpTransport` — a real TCP socket transport with length-prefixed
  framing, so the two party programs can live in two OS processes (or on two
  machines) and exchange shares over the network;
- :class:`~repro.crypto.faults.ShapedTransport` and
  :class:`~repro.crypto.faults.FaultyTransport` — wrappers around either
  that delay frames and inject scripted faults (:mod:`repro.crypto.faults`).

A transport implements one method, :meth:`Transport._transfer` — ship a
frame, collect the peer's next one, or both at once — and every frame is
``uint32 length (LE) || body``.  What is *in* a body (the array codec,
:class:`WireStats`) lives in :mod:`repro.crypto.wire` and is documented in
``docs/wire.md``.

Multi-message sessions
----------------------

A persistent connection carries many plan executions, so the wire protocol
distinguishes two frame classes:

- **round frames** (the protocol payload: the arrays of one coalesced
  communication round, :meth:`Transport.send_arrays` /
  :meth:`Transport.recv_arrays` / :meth:`Transport.exchange_arrays`),
  payloads only — the receiver names the arrays it expects;
- **control frames** (:meth:`Transport.send_control` /
  :meth:`Transport.recv_control`): opaque byte blobs of the session layer;
  a served session sends one, the graceful-shutdown handshake
  (:meth:`Transport.send_shutdown`, after which the peer's
  ``recv_control`` returns ``None``).  A job's header is no control
  frame: its 8-byte digest rides the job's first round frame.

Invariants the rest of the system relies on:

1. control bytes NEVER count as payload — :attr:`WireStats` tracks them
   separately, so per-job payload deltas still equal the manifest
   prediction exactly on a connection that multiplexes many jobs;
2. frame order is deterministic (the 2PC programs are SPMD with a
   canonical exchange order), so a receiver always knows whether the next
   frame must be a round or a control message — a mismatch raises instead
   of silently misparsing;
3. both endpoints of a session observe symmetric stats: what one side
   counts as sent, the other counts as received, frame for frame.
"""

from __future__ import annotations

import queue
import select
import socket
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.crypto.events import payload_num_bytes
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.wire import (
    CONTROL_CODE,
    LEN_PREFIX,
    MAX_FRAME_BYTES,
    ROUND_CODE,
    CorruptFrame,
    FrameTooLarge,
    WireStats,
    decode_payload,
    encode_payload,
    frame_length,
    ring_element_width,
)
# (re-exported: the record codec of the serving daemon's ``A`` frame)
from repro.crypto.wire import decode_array, encode_array  # noqa: F401

#: control payload of the graceful-shutdown handshake.  A peer that receives
#: it learns the session ended cleanly (recv_control returns None) rather
#: than by a dropped connection.
SHUTDOWN_PAYLOAD = b"\x00__2pc_session_shutdown__"
_ROUND_HEAD = bytes([ROUND_CODE])
_SHUTDOWN_FRAME = bytes([CONTROL_CODE]) + SHUTDOWN_PAYLOAD


class Transport:
    """Moves framed byte blobs (and ndarrays) between the two parties."""

    def __init__(self) -> None:
        self.stats = WireStats()
        #: ``None`` outside :meth:`exchange_arrays`; inside, where the send
        #: half parks its frame for the receive half to swap against the
        #: peer's
        self._parked: Optional[List[bytes]] = None

    # -- frame layer (implemented by subclasses) ---------------------------- #
    def _transfer(self, frame: Optional[bytes], receive: bool) -> Optional[bytes]:
        """Ship ``frame`` (if any) and, with ``receive``, collect and return
        the peer's next frame (bytes-like).

        Asked for both, it does both at once — the full-duplex primitive of
        a round in which both parties send: neither side's send may wait
        for the other side's receive.
        """
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def _put_frame(self, frame: bytes) -> None:
        """Hand one outgoing frame to the frame layer: shipped now, or —
        inside an exchange — parked until the receive half takes it (the
        sent counters advance on hand-over either way)."""
        if self._parked is None:
            self._transfer(frame, receive=False)
        else:
            self._parked.append(frame)

    def _take_frame(self) -> bytes:
        """The next incoming frame; swaps a parked outgoing frame for it."""
        return self._transfer(self._parked.pop() if self._parked else None, receive=True)

    def _recv_frame_expecting(self, expected: str) -> bytes:
        """Receive one frame, annotating connection loss with session context.

        A bare ``ConnectionError("peer closed the connection mid-frame")``
        is undiagnosable in a chaos run; re-raise it with what the session
        layer knows: which kind of frame was awaited, the receive-direction
        round index, and how many payload bytes this endpoint had already
        received — enough to locate the failure in the fault schedule.
        """
        try:
            return self._take_frame()
        except (FaultInjected, FrameTooLarge):
            # a scripted drop this endpoint injected itself already carries
            # its round index and direction; an oversized prefix keeps its
            # type so callers can tell a hostile peer from a lost one
            raise
        except ConnectionError as exc:
            raise ConnectionError(
                f"connection lost while awaiting {expected} "
                f"(recv direction, round index "
                f"{self.stats.round_frames_received}, "
                f"{self.stats.payload_bytes_received} payload bytes "
                f"received so far): {exc}"
            ) from exc

    # -- round layer (multi-tensor coalesced frames) ------------------------- #
    def send_arrays(
        self, arrays, ring: FixedPointRing = DEFAULT_RING, digest: bytes = b""
    ) -> int:
        """Ship one coalesced round frame carrying several ndarrays.

        ``arrays`` holds plain ndarrays or ``(array, element_bits)`` pairs —
        the pair form declares a packed sub-byte width for a uint8 payload.
        The frame is ``[ROUND_CODE]``, then ``digest`` (a job's digest on
        its first round frame, empty otherwise), then each array's payload
        (:func:`~repro.crypto.wire.encode_payload`), nothing else: the
        receiver lays it out from the round it expects.  Everything but the
        code byte, the digest and the length prefix counts as payload.
        Returns the payload byte count.
        """
        payloads = []
        for item in arrays:
            array, element_bits = item if isinstance(item, tuple) else (item, 8)
            payloads.append(encode_payload(array, ring, element_bits))
        # (one join: the payloads are copied into the frame exactly once)
        frame = b"".join([_ROUND_HEAD, digest, *payloads])
        overhead = len(_ROUND_HEAD) + len(digest)
        payload_bytes = len(frame) - overhead
        self._put_frame(frame)
        self.stats.frames_sent += 1
        self.stats.round_frames_sent += 1
        self.stats.round_arrays_sent += len(payloads)
        self.stats.payload_bytes_sent += payload_bytes
        self.stats.overhead_bytes_sent += overhead + LEN_PREFIX.size
        return payload_bytes

    def recv_arrays(
        self, expected, ring: FixedPointRing = DEFAULT_RING, digest: bytes = b""
    ) -> List[np.ndarray]:
        """Receive one coalesced round frame laid out as ``expected``.

        ``expected`` holds one template per array, in the peer's order and
        in :meth:`send_arrays`' form: a template's shape, dtype and
        ``element_bits`` fix its payload's length and type.  Expecting a
        job's first frame (``digest`` given), a shutdown handshake raises
        :class:`ConnectionError`, and a frame that does not carry ``digest``
        right after its code byte raises the ``job desync``
        :class:`RuntimeError` before its length is checked.  A frame whose
        length is not exactly the code byte, the digest and those payloads
        raises :class:`~repro.crypto.wire.CorruptFrame` before anything is
        built; otherwise the decoded arrays come back in order.
        """
        frame = self._recv_frame_expecting(
            f"round frame {self.stats.round_frames_received}"
        )
        if not frame or frame[0] != ROUND_CODE:
            if digest and frame == _SHUTDOWN_FRAME:
                # a job's first frame: the peer ended the session between jobs
                raise ConnectionError("peer shut the session down while a job was pending")
            raise ValueError(
                "received a non-round frame where a round frame was expected "
                "— the schedulers of the two endpoints are out of sync"
            )
        overhead = len(_ROUND_HEAD) + len(digest)
        if digest and frame[len(_ROUND_HEAD) : overhead] != digest:
            raise RuntimeError(
                f"job desync — the peer's first round frame carries job digest "
                f"{bytes(frame[len(_ROUND_HEAD) : overhead]).hex()}, this "
                f"endpoint's job is {digest.hex()}: the parties were handed "
                "different jobs or different plans for the key"
            )
        element_bytes = ring_element_width(ring)
        layout = [item if isinstance(item, tuple) else (item, 8) for item in expected]
        sizes = [payload_num_bytes(array, element_bytes, bits) for array, bits in layout]
        payload_bytes = sum(sizes)
        if len(frame) != overhead + payload_bytes:
            raise CorruptFrame(
                f"{len(frame)}-byte round frame; its {len(layout)} arrays "
                f"take {payload_bytes} payload bytes after {overhead} "
                "bytes of code and digest"
            )
        view = memoryview(frame)
        offset = overhead
        out = []
        for (template, bits), size in zip(layout, sizes):
            out.append(decode_payload(view[offset : offset + size], template, ring, bits))
            offset += size
        self.stats.frames_received += 1
        self.stats.round_frames_received += 1
        self.stats.round_arrays_received += len(layout)
        self.stats.payload_bytes_received += payload_bytes
        self.stats.overhead_bytes_received += overhead + LEN_PREFIX.size
        return out

    def exchange_arrays(
        self, arrays, expected, ring: FixedPointRing = DEFAULT_RING, digest: bytes = b""
    ) -> List[np.ndarray]:
        """One full-duplex round: ship my round frame while receiving the
        peer's; returns what :meth:`recv_arrays` returns for ``expected``.

        Framing and accounting are exactly :meth:`send_arrays` followed by
        :meth:`recv_arrays` (``digest`` goes to both) — only the frame
        layer differs: the outgoing frame is parked instead of sent and the
        receive swaps it against the peer's in one :meth:`_transfer`, so
        the two frames cross on the link and the round costs one link
        traversal, not two.  Both parties must call this for the same round
        (they do: a round is two-way for one party exactly when it is for
        the other, and a job's first round is two-way for both).  Either
        side may be empty: with nothing to send, the frame is the code byte
        and the digest alone.
        """
        # (plain try/finally: a generator-based context manager costs ~4 us
        # per round on the small-frame hot path)
        self._parked = []
        try:
            if digest:
                self.send_arrays(arrays, ring, digest)
                return self.recv_arrays(expected, ring, digest)
            # (unarmed: the two-argument form, which a subclass observing
            # send_arrays may override)
            self.send_arrays(arrays, ring)
            return self.recv_arrays(expected, ring)
        finally:
            self._parked = None

    # -- session layer (multi-message framing) ------------------------------ #
    def send_control(self, payload: bytes) -> None:
        """Ship one opaque control message (the session's shutdown).

        Control bytes are accounted separately from array payload so that
        manifest verification stays exact on a connection carrying many jobs.
        """
        frame = bytes([CONTROL_CODE]) + payload
        self._put_frame(frame)
        self.stats.control_frames_sent += 1
        self.stats.control_bytes_sent += len(frame) + LEN_PREFIX.size

    def recv_control(self) -> Optional[bytes]:
        """Receive one control message; ``None`` means graceful shutdown.

        Raises if a round frame arrives instead — the session layers of
        the two endpoints must agree on the frame sequence.
        """
        frame = self._recv_frame_expecting("a control frame")
        if not frame or frame[0] != CONTROL_CODE:
            raise ValueError(
                "received a round frame where a control frame was expected — "
                "the session layers of the two endpoints are out of sync"
            )
        self.stats.control_frames_received += 1
        self.stats.control_bytes_received += len(frame) + LEN_PREFIX.size
        payload = frame[1:]
        if payload == SHUTDOWN_PAYLOAD:
            return None
        return payload

    def send_shutdown(self) -> None:
        """Announce a graceful end of session to the peer.

        Received where a job's first round frame is expected, it ends that
        job with a :class:`ConnectionError` (see :meth:`recv_arrays`).
        """
        self.send_control(SHUTDOWN_PAYLOAD)


class LoopbackTransport(Transport):
    """In-process transport: a pair of endpoints over thread-safe queues.

    This is the simulated counterpart of :class:`TcpTransport` — same
    framing, same stats — for running the two party programs as two threads
    of one process (used by the parity tests and available for debugging).
    """

    def __init__(
        self,
        inbox: "queue.Queue[bytes]",
        outbox: "queue.Queue[bytes]",
        timeout: float = 30.0,
    ) -> None:
        super().__init__()
        self._inbox = inbox
        self._outbox = outbox
        self.timeout = timeout

    @classmethod
    def pair(cls, timeout: float = 30.0) -> Tuple["LoopbackTransport", "LoopbackTransport"]:
        """Two connected endpoints: whatever one sends the other receives."""
        a_to_b: "queue.Queue[bytes]" = queue.Queue()
        b_to_a: "queue.Queue[bytes]" = queue.Queue()
        return (
            cls(inbox=b_to_a, outbox=a_to_b, timeout=timeout),
            cls(inbox=a_to_b, outbox=b_to_a, timeout=timeout),
        )

    def _transfer(self, frame: Optional[bytes], receive: bool) -> Optional[bytes]:
        if frame is not None:
            # the queues are unbounded: a put never waits for the peer's get
            self._outbox.put(frame)
        if not receive:
            return None
        try:
            item = self._inbox.get(timeout=self.timeout)
        except queue.Empty as exc:
            raise TimeoutError(
                f"loopback transport received nothing for {self.timeout}s"
            ) from exc
        if item is None:  # close() poison: the loopback analogue of TCP EOF
            self._inbox.put(None)  # keep erroring on any further recv
            raise ConnectionError("peer closed the connection mid-frame")
        return item

    def close(self) -> None:
        """Mirror a TCP close: the peer's next recv fails instead of hanging."""
        self._outbox.put(None)


class TcpTransport(Transport):
    """Length-prefix framed TCP socket transport between the two parties.

    One party accepts on a :class:`TcpListener`, the other calls
    :meth:`connect`.  ``TCP_NODELAY`` is set because the 2PC online phase is
    latency-bound on many small openings, not bandwidth-bound.  To emulate
    a LAN/WAN link on localhost, wrap the socket in a
    :class:`ShapedTransport`.
    """

    def __init__(self, sock: socket.socket, timeout: float = 120.0) -> None:
        super().__init__()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)  # all I/O runs in the select loop of _transfer
        self._sock = sock
        #: seconds a send or receive may make no progress before it raises
        #: :class:`TimeoutError` (``None``: wait forever)
        self.timeout: Optional[float] = timeout

    # -- connection establishment ------------------------------------------- #
    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 120.0,
        retries: int = 50,
        retry_delay: float = 0.1,
    ) -> "TcpTransport":
        """Connect to the listening party, retrying until it is up."""
        last_error: Optional[OSError] = None
        for _ in range(max(retries, 1)):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect((host, port))
                return cls(sock, timeout=timeout)
            except OSError as exc:
                last_error = exc
                sock.close()
                time.sleep(retry_delay)
        raise ConnectionError(
            f"could not connect to party endpoint {host}:{port} "
            f"after {retries} attempts"
        ) from last_error

    # -- frame layer --------------------------------------------------------- #
    def _transfer(
        self, frame: Optional[bytes], receive: bool
    ) -> Optional[bytearray]:
        """The one I/O loop of the socket, single-threaded and non-blocking:
        each pass moves whatever either direction can move and sleeps in
        ``select`` only when neither can, so two peers each pushing a frame
        larger than the socket buffers drain each other instead of
        deadlocking in ``sendall``.  The prefix and the frame go out as a
        buffer list (no ``prefix + frame`` copy).  A wait that makes no
        progress for ``timeout`` seconds raises :class:`TimeoutError`.
        """
        outgoing: List[memoryview] = []
        if frame is not None:
            if len(frame) > MAX_FRAME_BYTES:
                # the peer would kill the session on the prefix; fail here,
                # before a byte leaves (>= 4 GiB cannot even be packed)
                raise FrameTooLarge(
                    f"refusing to send a {len(frame)}-byte frame; "
                    f"the limit is {MAX_FRAME_BYTES}"
                )
            outgoing = [memoryview(LEN_PREFIX.pack(len(frame))), memoryview(frame)]
        sock = self._sock
        # the receive side reads the 4-byte prefix first, then the body
        incoming = memoryview(bytearray(LEN_PREFIX.size))
        reply: Optional[bytearray] = None
        filled = 0
        while outgoing or receive:
            progressed = False
            if outgoing:
                try:
                    sent = sock.sendmsg(outgoing)
                except BlockingIOError:
                    sent = 0
                progressed = sent > 0
                _drop_sent(outgoing, sent)
            if receive:
                try:
                    count = sock.recv_into(incoming[filled:])
                except BlockingIOError:
                    count = None
                if count == 0:
                    raise ConnectionError(
                        f"peer closed the connection mid-frame "
                        f"({filled}/{len(incoming)} bytes of the current "
                        f"read arrived)"
                    )
                if count:
                    progressed = True
                    filled += count
                    if filled == len(incoming) and reply is None:
                        # frame_length rejects a hostile prefix before
                        # anything is allocated for it
                        reply = bytearray(frame_length(incoming))
                        incoming, filled = memoryview(reply), 0
                    if reply is not None and filled == len(reply):
                        receive = False
            if not progressed:
                ready = select.select(
                    [sock] if receive else [],
                    [sock] if outgoing else [],
                    [],
                    self.timeout,
                )
                if not ready[0] and not ready[1]:
                    raise TimeoutError(
                        f"party link made no progress for {self.timeout}s "
                        f"({filled}/{len(incoming)} bytes of the current "
                        f"read arrived, {sum(map(len, outgoing))} bytes "
                        f"still to send)"
                    )
        return reply

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _drop_sent(buffers: List[memoryview], sent: int) -> None:
    """Remove the first ``sent`` bytes from a buffer list, in place."""
    while sent:
        head = buffers[0]
        if sent < len(head):
            buffers[0] = head[sent:]
            return
        sent -= len(head)
        del buffers[0]


class TcpListener:
    """A bound listening socket whose port is known *before* accepting.

    Binding and accepting are split so party 0 can bind an ephemeral port
    (``port=0``), report the kernel-assigned port to whoever must tell party
    1 where to connect, and only then block in :meth:`accept`.  The port is
    never released between discovery and use, so parallel CI jobs cannot
    steal it.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 1) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(backlog)
        except OSError:
            self._sock.close()
            raise
        self.host = host
        self.port = int(self._sock.getsockname()[1])

    def accept(self, timeout: float = 120.0) -> TcpTransport:
        """Block until the peer connects; returns the connected transport."""
        self._sock.settimeout(timeout)
        conn, _ = self._sock.accept()
        return TcpTransport(conn, timeout=timeout)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "TcpListener":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# (re-exported for callers that import the link wrappers from here; they
# subclass Transport, so they live in repro.crypto.faults, which the
# package always reaches through this module)
from repro.crypto.faults import (  # noqa: E402,F401
    FaultInjected,
    FaultPlan,
    FaultyTransport,
    ShapedTransport,
)
