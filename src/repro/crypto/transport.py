"""Byte transports for the networked 2PC runtime.

The :class:`~repro.crypto.channel.Channel` family needs a way to move
ndarray payloads between the two computing parties.  This module extracts
that concern into a :class:`Transport` abstraction with two implementations:

- :class:`LoopbackTransport` — the in-process simulated transport (the
  formalization of what the single-process harness always did): a pair of
  connected endpoints backed by thread-safe queues, used to run the two
  party programs in two threads of one process;
- :class:`TcpTransport` — a real TCP socket transport with length-prefixed
  framing, so the two party programs can live in two OS processes (or on two
  machines) and exchange shares over the network.

Framing and array codec (frame format v2)
-----------------------------------------

Every frame is ``uint32 length (LE) || header || payload``.  The header
records dtype code, element width and ndim plus the dims; the payload is the
array buffer in little-endian order.  Ring elements (stored as uint64 in
memory regardless of the configured ring width) are packed at the *ring
element width* — 8 bytes for the 64-bit executable ring, 4 bytes for the
paper's 32-bit ring.  uint8 payloads whose true information width is
sub-byte are packed at that width: 1-bit planes (GMW AND openings) at eight
elements per byte, 2-bit digits (the gt/eq OT tables) at four per byte,
``ceil`` per array.  The measured on-wire payload bytes therefore equal the
:class:`~repro.crypto.channel.CommunicationLog` accounting and the
:class:`~repro.crypto.plan.PreprocessingManifest` prediction exactly, at
packed widths.  The few header/length-prefix bytes are tracked separately
as framing overhead.  See ``docs/wire.md`` for the full format.

Multi-message sessions
----------------------

A persistent connection carries many plan executions, so the wire protocol
distinguishes two frame classes:

- **array frames** (the protocol payload, accounted as above);
- **control frames** (:meth:`Transport.send_control` /
  :meth:`Transport.recv_control`): opaque byte blobs used by the session
  layer for job headers, synchronization and the graceful-shutdown
  handshake (:meth:`Transport.send_shutdown`, after which the peer's
  ``recv_control`` returns ``None``).

Invariants the rest of the system relies on:

1. control bytes NEVER count as payload — :attr:`WireStats` tracks them
   separately, so per-job payload deltas still equal the manifest
   prediction exactly on a connection that multiplexes many jobs;
2. frame order is deterministic (the 2PC programs are SPMD with a
   canonical exchange order), so a receiver always knows whether the next
   frame must be an array or a control message — a mismatch raises instead
   of silently misparsing;
3. both endpoints of a session observe symmetric stats: what one side
   counts as sent, the other counts as received, frame for frame.

Link shaping and fault injection
--------------------------------

Deployed 2PC serving runs over links that jitter, stall and drop — not
over a clean loopback.  :class:`ShapedTransport` wraps any transport with
seeded, deterministic link shaping (constant latency, uniform jitter, a
bandwidth cap), and :class:`FaultyTransport` extends it with scripted
faults from a :class:`FaultPlan`: a stall of ``stall_ms`` at communication
round ``stall_at_round``, and a connection drop at ``drop_at_round``
(the wrapper closes the underlying connection and raises
:class:`FaultInjected`, so the peer observes a genuine mid-frame loss).
Faults are configurable per direction and per round index, replayable from
the plan's seed, and counted in :attr:`WireStats.faults_injected` /
:attr:`WireStats.stalls_injected` — shaping never touches the payload
counters, so payload == manifest accounting stays exact on a shaped link.
"""

from __future__ import annotations

import queue
import select
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.crypto.events import packed_num_bytes
from repro.crypto.ring import DEFAULT_RING, FixedPointRing

#: dtype codes of the array codec.  Code 0 is special: ring elements held as
#: uint64 in memory but packed at the ring's element width on the wire.
#: Codes 8/9 are the sub-byte codes: uint8 arrays packed at 1 or 2 bits per
#: element (their header width field holds *bits*, not bytes).
#: Code 255 marks a control frame (session layer, not an array at all);
#: code 254 marks a multi-array *round* frame (one coalesced communication
#: round: several independent arrays in a single framed message).
_RING_CODE = 0
_PACKED_CODES = {1: 8, 2: 9}  # element_bits -> dtype code
_PACKED_BITS = {code: bits for bits, code in _PACKED_CODES.items()}
_ROUND_CODE = 254
_CONTROL_CODE = 255

#: codec counters: ``fast_path_encodes`` counts arrays serialized without an
#: intermediate ``astype`` copy (already canonical little-endian contiguous
#: buffers go straight to ``tobytes``); ``copied_encodes`` counts the rest.
#: Tests assert the fast path is actually hit on the hot ring-element path.
CODEC_STATS = {"fast_path_encodes": 0, "copied_encodes": 0}

#: control payload of the graceful-shutdown handshake.  A peer that receives
#: it learns the session ended cleanly (recv_control returns None) rather
#: than by a dropped connection.
SHUTDOWN_PAYLOAD = b"\x00__2pc_session_shutdown__"

_DTYPE_CODES = {
    1: np.dtype("uint8"),
    2: np.dtype("<u4"),
    3: np.dtype("<u8"),
    4: np.dtype("<i8"),
    5: np.dtype("<f8"),
    6: np.dtype("<f4"),
    7: np.dtype("<i4"),
}
_CODE_BY_DTYPE = {dt: code for code, dt in _DTYPE_CODES.items()}

#: packing widths supported for ring elements (power-of-two byte counts)
_RING_PACK_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}

_LEN_PREFIX = struct.Struct("<I")
#: largest frame a peer may announce, on every framed surface (party link,
#: factory sessions, serving daemon and its client): a corrupt or hostile
#: length prefix must not make the receiver allocate gigabytes
MAX_FRAME_BYTES = 256 * 1024 * 1024
_HEADER_HEAD = struct.Struct("<BBB")  # dtype code, element width, ndim


class FrameTooLarge(ConnectionError):
    """A peer-supplied length prefix exceeds :data:`MAX_FRAME_BYTES`.

    The stream cannot be re-aligned after a bad prefix, so this is a
    connection loss — and subclasses :class:`ConnectionError` so shard
    eviction, job retry and factory fallback already handle it.
    """


def frame_length(prefix: bytes) -> int:
    """Decode a frame's u32 length prefix, rejecting it before any
    allocation if it announces more than :data:`MAX_FRAME_BYTES`."""
    (length,) = _LEN_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"peer announced a {length}-byte frame; the limit is {MAX_FRAME_BYTES}"
        )
    return length


def ring_element_width(ring: FixedPointRing) -> int:
    """On-the-wire byte width of one ring element (the accounting width)."""
    width = ring.ring_bits // 8
    if width not in _RING_PACK_DTYPES:
        raise ValueError(
            f"ring width {ring.ring_bits} bits does not map to a packable "
            f"element width (got {width} bytes; supported: 1, 2, 4, 8)"
        )
    return width


def pack_sub_byte(flat: np.ndarray, element_bits: int) -> bytes:
    """Pack a flat uint8 array of 1- or 2-bit values into ``ceil`` bytes."""
    if element_bits == 1:
        return np.packbits(flat & np.uint8(1), bitorder="little").tobytes()
    if element_bits != 2:
        raise ValueError(f"unsupported packed element width {element_bits} bits")
    flat = flat & np.uint8(3)
    pad = (-flat.size) % 4
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)])
    quads = flat.reshape(-1, 4)
    packed = quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    return packed.astype(np.uint8).tobytes()


def unpack_sub_byte(payload: bytes, num_elements: int, element_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_sub_byte`; returns a flat uint8 array."""
    if num_elements == 0:
        return np.zeros(0, dtype=np.uint8)
    raw = np.frombuffer(payload, dtype=np.uint8)
    if element_bits == 1:
        return np.unpackbits(raw, count=num_elements, bitorder="little")
    if element_bits != 2:
        raise ValueError(f"unsupported packed element width {element_bits} bits")
    index = np.arange(num_elements)
    return ((raw[index >> 2] >> ((index & 3) << 1)) & 3).astype(np.uint8)


def _native_payload(array: np.ndarray, canonical: np.dtype) -> bytes:
    """Array buffer in canonical little-endian order, avoiding the
    intermediate ``astype`` copy when the buffer already is canonical."""
    if array.dtype == canonical:
        CODEC_STATS["fast_path_encodes"] += 1
        return array.tobytes()
    CODEC_STATS["copied_encodes"] += 1
    return np.ascontiguousarray(array).astype(canonical, copy=False).tobytes()


def encode_array(
    array: np.ndarray, ring: FixedPointRing = DEFAULT_RING, element_bits: int = 8
) -> bytes:
    """Serialize an ndarray into ``header || payload`` bytes.

    uint64/int64 arrays are treated as ring elements and packed at the ring
    element width; uint8 arrays with a declared sub-byte ``element_bits`` (1
    or 2) are bit-packed; other dtypes are packed at their native width in
    little-endian order.  The payload byte count therefore matches
    :meth:`repro.crypto.channel.Channel.send` accounting exactly.
    """
    array = np.asarray(array)
    if not array.flags["C_CONTIGUOUS"]:
        # (ascontiguousarray would also promote 0-d arrays to 1-d)
        array = np.ascontiguousarray(array)
    if array.ndim > 255:
        raise ValueError("arrays with more than 255 dimensions are not supported")
    dims = struct.pack(f"<{array.ndim}Q", *array.shape)
    if array.dtype in (np.dtype(np.uint64), np.dtype(np.int64)):
        width = ring_element_width(ring)
        if width == 8 and array.dtype == np.dtype("<u8"):
            CODEC_STATS["fast_path_encodes"] += 1
            payload = array.tobytes()
        else:
            CODEC_STATS["copied_encodes"] += 1
            packed = array.astype(np.uint64, copy=False)
            if width != 8:
                packed = ring.wrap(packed)
            payload = packed.astype(_RING_PACK_DTYPES[width], copy=False).tobytes()
        header = _HEADER_HEAD.pack(_RING_CODE, width, array.ndim)
    elif element_bits in _PACKED_CODES and array.dtype == np.dtype(np.uint8):
        # sub-byte code: the header's width field carries *bits* per element
        payload = pack_sub_byte(array.reshape(-1), element_bits)
        header = _HEADER_HEAD.pack(_PACKED_CODES[element_bits], element_bits, array.ndim)
    else:
        canonical = array.dtype.newbyteorder("<")
        code = _CODE_BY_DTYPE.get(canonical)
        if code is None:
            raise ValueError(f"unsupported wire dtype {array.dtype}")
        payload = _native_payload(array, canonical)
        header = _HEADER_HEAD.pack(code, canonical.itemsize, array.ndim)
    return header + dims + payload


def decode_array(frame: bytes) -> Tuple[np.ndarray, int]:
    """Inverse of :func:`encode_array`.

    Returns ``(array, payload_bytes)`` — the payload byte count excludes the
    header, so it can be checked against the channel accounting.  Ring
    element payloads come back as uint64, packed sub-byte payloads as uint8
    (the in-memory conventions).
    """
    code, width, ndim = _HEADER_HEAD.unpack_from(frame, 0)
    if code == _CONTROL_CODE:
        raise ValueError(
            "received a control frame where an array frame was expected — "
            "the session layers of the two endpoints are out of sync"
        )
    offset = _HEADER_HEAD.size
    shape = struct.unpack_from(f"<{ndim}Q", frame, offset)
    offset += 8 * ndim
    payload = frame[offset:]
    if code == _RING_CODE:
        if width not in _RING_PACK_DTYPES:
            raise ValueError(f"invalid ring element width {width}")
        array = np.frombuffer(payload, dtype=_RING_PACK_DTYPES[width])
        array = array.astype(np.uint64).reshape(shape)
    elif code in _PACKED_BITS:
        if width != _PACKED_BITS[code]:
            raise ValueError(
                f"packed frame width field {width} does not match code {code}"
            )
        num_elements = 1
        for dim in shape:
            num_elements *= dim
        array = unpack_sub_byte(payload, num_elements, width).reshape(shape)
    else:
        dtype = _DTYPE_CODES.get(code)
        if dtype is None:
            raise ValueError(f"unknown wire dtype code {code}")
        array = np.frombuffer(payload, dtype=dtype).reshape(shape)
        array = np.ascontiguousarray(array)
    return array, len(payload)


@dataclass
class WireStats:
    """Measured traffic of one transport endpoint.

    ``payload_bytes_*`` counts array payload bytes only (the quantity the
    manifest predicts); ``overhead_bytes_*`` counts length prefixes and array
    headers; ``control_bytes_*`` counts session-layer control frames (job
    headers, shutdown handshake) in full.  The sum of all three is what
    actually crossed the wire — and because control traffic is kept out of
    the payload counters, per-job payload deltas on a persistent connection
    still match the manifest exactly.
    """

    frames_sent: int = 0
    frames_received: int = 0
    payload_bytes_sent: int = 0
    payload_bytes_received: int = 0
    overhead_bytes_sent: int = 0
    overhead_bytes_received: int = 0
    control_frames_sent: int = 0
    control_frames_received: int = 0
    control_bytes_sent: int = 0
    control_bytes_received: int = 0
    #: coalesced multi-array round frames (each counts once in frames_*
    #: too); ``round_arrays_*`` counts the arrays that rode inside them —
    #: the round counters of the round-coalescing scheduler
    round_frames_sent: int = 0
    round_frames_received: int = 0
    round_arrays_sent: int = 0
    round_arrays_received: int = 0
    #: scripted faults a wrapping :class:`FaultyTransport` injected on this
    #: endpoint (connection drops / stalls).  Kept in the wire stats so the
    #: accounting that travels with a job also records what was done to it —
    #: payload counters are never touched by injection, so payload ==
    #: manifest stays exact even on a faulted link.
    faults_injected: int = 0
    stalls_injected: int = 0

    @property
    def wire_bytes_sent(self) -> int:
        return (
            self.payload_bytes_sent
            + self.overhead_bytes_sent
            + self.control_bytes_sent
        )

    @property
    def wire_bytes_received(self) -> int:
        return (
            self.payload_bytes_received
            + self.overhead_bytes_received
            + self.control_bytes_received
        )

    def snapshot(self) -> "WireStats":
        """A frozen copy, for per-job deltas on a persistent connection."""
        return WireStats(**self.__dict__)

    def since(self, earlier: "WireStats") -> "WireStats":
        """Field-wise ``self - earlier``: the traffic of one session slice."""
        return WireStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in self.__dict__
            }
        )


class Transport:
    """Moves framed byte blobs (and ndarrays) between the two parties."""

    def __init__(self) -> None:
        self.stats = WireStats()
        #: ``None`` outside :meth:`exchange_array`/:meth:`exchange_arrays`;
        #: inside, where the send half parks its frame for the receive half
        #: to swap against the peer's
        self._parked: Optional[List[bytes]] = None

    # -- frame layer (implemented by subclasses) ---------------------------- #
    def _send_frame(self, frame: bytes) -> None:
        raise NotImplementedError

    def _recv_frame(self) -> bytes:
        raise NotImplementedError

    def _exchange_frame(self, frame: bytes) -> bytes:
        """Ship ``frame`` while receiving the peer's next frame (bytes-like).

        The full-duplex primitive of a round in which both parties send:
        both frames are in flight at once, so the round costs one link
        traversal instead of two, and neither side's send may wait for the
        other side's receive.
        """
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def _put_frame(self, frame: bytes) -> None:
        """Hand one outgoing frame to the frame layer: shipped now, or —
        inside an exchange — parked until the receive half takes it (the
        sent counters advance on hand-over either way)."""
        if self._parked is None:
            self._send_frame(frame)
        else:
            self._parked.append(frame)

    def _take_frame(self) -> bytes:
        """The next incoming frame; swaps a parked outgoing frame for it."""
        if self._parked:
            return self._exchange_frame(self._parked.pop())
        return self._recv_frame()

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

    # -- array layer --------------------------------------------------------- #
    def send_array(
        self,
        array: np.ndarray,
        ring: FixedPointRing = DEFAULT_RING,
        element_bits: int = 8,
    ) -> int:
        """Ship one ndarray; returns the payload byte count put on the wire."""
        frame = encode_array(array, ring, element_bits)
        payload_bytes = _payload_length(frame)
        self._put_frame(frame)
        self.stats.frames_sent += 1
        self.stats.payload_bytes_sent += payload_bytes
        self.stats.overhead_bytes_sent += len(frame) - payload_bytes + _LEN_PREFIX.size
        return payload_bytes

    def recv_array(self) -> Tuple[np.ndarray, int]:
        """Receive one ndarray; returns ``(array, payload_bytes)``."""
        frame = self._recv_frame_expecting("an array frame")
        array, payload_bytes = decode_array(frame)
        self.stats.frames_received += 1
        self.stats.payload_bytes_received += payload_bytes
        self.stats.overhead_bytes_received += (
            len(frame) - payload_bytes + _LEN_PREFIX.size
        )
        return array, payload_bytes

    def exchange_array(
        self,
        array: np.ndarray,
        ring: FixedPointRing = DEFAULT_RING,
        element_bits: int = 8,
    ) -> Tuple[np.ndarray, int]:
        """:meth:`send_array` and :meth:`recv_array` as one full-duplex
        exchange (see :meth:`exchange_arrays`)."""
        self._parked = []
        try:
            self.send_array(array, ring, element_bits)
            return self.recv_array()
        finally:
            self._parked = None

    # -- round layer (multi-tensor coalesced frames) ------------------------- #
    def send_arrays(self, arrays, ring: FixedPointRing = DEFAULT_RING) -> int:
        """Ship one coalesced round frame carrying several ndarrays.

        ``arrays`` holds plain ndarrays or ``(array, element_bits)`` pairs —
        the pair form declares a packed sub-byte width for a uint8 payload.
        The frame is ``[_ROUND_CODE][u32 count]`` followed by one prefix-free
        ``header || dims || payload`` record per array (the same codec as
        single-array frames; each header determines its own payload length).
        Array payload bytes count toward the payload stats exactly as if
        each array had been sent alone — the manifest check stays exact —
        while the per-array framing the round *saves* shows up as reduced
        overhead.  Returns the summed payload byte count.
        """
        records = []
        payload_bytes = 0
        for item in arrays:
            array, element_bits = item if isinstance(item, tuple) else (item, 8)
            encoded = encode_array(array, ring, element_bits)
            payload_bytes += _payload_length(encoded)
            records.append(encoded)
        # records need no per-array length prefix: each header (dtype code,
        # element width, dims) determines its own payload length, so the
        # receiver walks the concatenation — that is what makes a coalesced
        # round cheaper in overhead than N single-array frames.
        # (one join: the records are copied into the frame exactly once)
        head = bytes([_ROUND_CODE]) + _LEN_PREFIX.pack(len(records))
        frame = b"".join([head, *records])
        self._put_frame(frame)
        self.stats.frames_sent += 1
        self.stats.round_frames_sent += 1
        self.stats.round_arrays_sent += len(records)
        self.stats.payload_bytes_sent += payload_bytes
        self.stats.overhead_bytes_sent += len(frame) - payload_bytes + _LEN_PREFIX.size
        return payload_bytes

    def recv_arrays(self) -> "list[Tuple[np.ndarray, int]]":
        """Receive one coalesced round frame; ``(array, payload_bytes)`` per
        array, in the order the peer packed them."""
        frame = self._recv_frame_expecting(
            f"round frame {self.stats.round_frames_received}"
        )
        if not frame or frame[0] != _ROUND_CODE:
            raise ValueError(
                "received a non-round frame where a round frame was expected "
                "— the schedulers of the two endpoints are out of sync"
            )
        (count,) = _LEN_PREFIX.unpack_from(frame, 1)
        offset = 1 + _LEN_PREFIX.size
        out = []
        payload_total = 0
        for _ in range(count):
            length = _encoded_record_length(frame, offset)
            array, payload_bytes = decode_array(frame[offset : offset + length])
            offset += length
            out.append((array, payload_bytes))
            payload_total += payload_bytes
        if offset != len(frame):
            raise ValueError(
                f"round frame has {len(frame) - offset} trailing bytes after "
                f"{count} arrays — corrupt frame"
            )
        self.stats.frames_received += 1
        self.stats.round_frames_received += 1
        self.stats.round_arrays_received += count
        self.stats.payload_bytes_received += payload_total
        self.stats.overhead_bytes_received += (
            len(frame) - payload_total + _LEN_PREFIX.size
        )
        return out

    def exchange_arrays(
        self, arrays, ring: FixedPointRing = DEFAULT_RING
    ) -> "list[Tuple[np.ndarray, int]]":
        """One full-duplex round: ship my round frame while receiving the
        peer's; returns what :meth:`recv_arrays` returns.

        Framing and accounting are exactly :meth:`send_arrays` followed by
        :meth:`recv_arrays` — only the frame layer differs: the outgoing
        frame is parked instead of sent and the receive swaps it against
        the peer's through :meth:`_exchange_frame`, so the two frames cross
        on the link and the round costs one link traversal, not two.  Both
        parties must call this for the same round (they do: a round is
        two-way for one party exactly when it is for the other).
        """
        # (plain try/finally here and in exchange_array: a generator-based
        # context manager costs ~4 us per round on the small-frame hot path)
        self._parked = []
        try:
            self.send_arrays(arrays, ring)
            return self.recv_arrays()
        finally:
            self._parked = None

    # -- session layer (multi-message framing) ------------------------------ #
    def send_control(self, payload: bytes) -> None:
        """Ship one opaque control message (job header, sync, shutdown).

        Control bytes are accounted separately from array payload so that
        manifest verification stays exact on a connection carrying many jobs.
        """
        frame = bytes([_CONTROL_CODE]) + payload
        self._put_frame(frame)
        self.stats.control_frames_sent += 1
        self.stats.control_bytes_sent += len(frame) + _LEN_PREFIX.size

    def recv_control(self) -> Optional[bytes]:
        """Receive one control message; ``None`` means graceful shutdown.

        Raises if an array frame arrives instead — the session layers of
        the two endpoints must agree on the frame sequence.
        """
        frame = self._recv_frame_expecting("a control frame")
        if not frame or frame[0] != _CONTROL_CODE:
            raise ValueError(
                "received an array frame where a control frame was expected — "
                "the session layers of the two endpoints are out of sync"
            )
        self.stats.control_frames_received += 1
        self.stats.control_bytes_received += len(frame) + _LEN_PREFIX.size
        payload = frame[1:]
        if payload == SHUTDOWN_PAYLOAD:
            return None
        return payload

    def send_shutdown(self) -> None:
        """Announce a graceful end of session to the peer."""
        self.send_control(SHUTDOWN_PAYLOAD)


def _payload_length(frame: bytes) -> int:
    _, _, ndim = _HEADER_HEAD.unpack_from(frame, 0)
    return len(frame) - _HEADER_HEAD.size - 8 * ndim


def _encoded_record_length(buffer: bytes, offset: int) -> int:
    """Length of the ``header || dims || payload`` record at ``offset``.

    The header fully determines the payload size — element width times the
    product of the dims, or ``ceil(bits * elements / 8)`` for the sub-byte
    codes — which is what makes the records prefix-free: round frames
    concatenate them without per-array length prefixes.
    """
    code, width, ndim = _HEADER_HEAD.unpack_from(buffer, offset)
    dims = struct.unpack_from(f"<{ndim}Q", buffer, offset + _HEADER_HEAD.size)
    num_elements = 1
    for dim in dims:
        num_elements *= dim
    if code in _PACKED_BITS:
        payload_bytes = packed_num_bytes(num_elements, width)  # width is bits here
    else:
        payload_bytes = width * num_elements
    return _HEADER_HEAD.size + 8 * ndim + payload_bytes


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

    def _send_frame(self, frame: bytes) -> None:
        self._outbox.put(frame)

    def _recv_frame(self) -> bytes:
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

    def _exchange_frame(self, frame: bytes) -> bytes:
        # the queues are unbounded: a put never waits for the peer's get
        self._send_frame(frame)
        return self._recv_frame()

    def close(self) -> None:
        """Mirror a TCP close: the peer's next recv fails instead of hanging."""
        self._outbox.put(None)


class TcpTransport(Transport):
    """Length-prefix framed TCP socket transport between the two parties.

    Party 0 conventionally listens (:meth:`listen`) and party 1 connects
    (:meth:`connect`).  ``TCP_NODELAY`` is set because the 2PC online phase
    is latency-bound on many small openings, not bandwidth-bound.

    ``link_latency`` (seconds) injects a one-way delay before each outgoing
    frame, emulating a LAN/WAN link on localhost.  Deployed 2PC serving is
    dominated by round-trip time, so capacity planning (and the pool-scaling
    benchmark) exercises the runtime in that regime rather than the
    unrealistically fast loopback one.  The link is full duplex: an exchange
    (:meth:`_exchange_frame`) delays both parties' frames concurrently, so
    it costs one ``link_latency``, like a one-way frame.
    """

    def __init__(
        self,
        sock: socket.socket,
        timeout: float = 120.0,
        link_latency: float = 0.0,
    ) -> None:
        super().__init__()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)  # all I/O runs in the select loop of _transfer
        self._sock = sock
        #: seconds a send or receive may make no progress before it raises
        #: :class:`TimeoutError` (``None``: wait forever)
        self.timeout: Optional[float] = timeout
        self.link_latency = link_latency

    # -- connection establishment ------------------------------------------- #
    @classmethod
    def listen(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 120.0,
        link_latency: float = 0.0,
    ) -> "TcpTransport":
        """Accept exactly one peer connection (party 0's side)."""
        listener = TcpListener(host=host, port=port)
        try:
            return listener.accept(timeout=timeout, link_latency=link_latency)
        finally:
            listener.close()

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 120.0,
        retries: int = 50,
        retry_delay: float = 0.1,
        link_latency: float = 0.0,
    ) -> "TcpTransport":
        """Connect to the listening party, retrying until it is up."""
        last_error: Optional[OSError] = None
        for _ in range(max(retries, 1)):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect((host, port))
                return cls(sock, timeout=timeout, link_latency=link_latency)
            except OSError as exc:
                last_error = exc
                sock.close()
                time.sleep(retry_delay)
        raise ConnectionError(
            f"could not connect to party endpoint {host}:{port} "
            f"after {retries} attempts"
        ) from last_error

    # -- frame layer --------------------------------------------------------- #
    def _send_frame(self, frame: bytes) -> None:
        self._transfer(frame, receive=False)

    def _recv_frame(self) -> bytearray:
        return self._transfer(None, receive=True)

    def _exchange_frame(self, frame: bytes) -> bytearray:
        return self._transfer(frame, receive=True)

    def _transfer(
        self, frame: Optional[bytes], receive: bool
    ) -> Optional[bytearray]:
        """Ship ``frame`` (if any) and, with ``receive``, collect and return
        the peer's next frame — both at once when both are asked for.

        The one I/O loop of the socket, single-threaded and non-blocking:
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
            if self.link_latency > 0.0:
                time.sleep(self.link_latency)
            outgoing = [memoryview(_LEN_PREFIX.pack(len(frame))), memoryview(frame)]
        sock = self._sock
        # the receive side reads the 4-byte prefix first, then the body
        incoming = memoryview(bytearray(_LEN_PREFIX.size))
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
    1 where to connect, and only then block in :meth:`accept`.  This closes
    the pick-then-bind race of :func:`free_port`: the port is never released
    between discovery and use, so parallel CI jobs cannot steal it.
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

    def accept(self, timeout: float = 120.0, link_latency: float = 0.0) -> TcpTransport:
        """Block until the peer connects; returns the connected transport."""
        self._sock.settimeout(timeout)
        conn, _ = self._sock.accept()
        return TcpTransport(conn, timeout=timeout, link_latency=link_latency)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "TcpListener":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def free_port(host: str = "127.0.0.1") -> int:
    """Pick a currently free TCP port.

    Inherently racy (the port is released before the caller binds it);
    retained for tests that only need *a likely-free* port.  Runtime code
    binds ephemeral ports directly via :class:`TcpListener` and passes the
    bound port to the peer instead.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return int(sock.getsockname()[1])


# --------------------------------------------------------------------------- #
# Link shaping and fault injection
# --------------------------------------------------------------------------- #


class FaultInjected(ConnectionError):
    """A scripted fault from a :class:`FaultPlan` fired on this endpoint.

    Subclasses :class:`ConnectionError` so every recovery path (party-server
    job abort, shard eviction, pool retry) treats an injected drop exactly
    like a genuine connection loss — chaos tests exercise the real code.
    """


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of link shaping and scripted faults.

    Shaping (applies to every outgoing frame, all session long):

    - ``latency_ms`` — constant one-way delay;
    - ``jitter_ms`` — extra uniform ``[0, jitter_ms)`` delay drawn from a
      generator seeded with ``seed`` (replayable: the same plan produces the
      same delay sequence);
    - ``bandwidth_bytes_per_s`` — serialization delay of ``len(frame)``
      bytes through a capped link (0 = uncapped).

    Scripted faults (fire at a *communication round index*, i.e. the n-th
    coalesced round frame moving in the configured direction):

    - ``stall_at_round`` / ``stall_ms`` / ``stall_direction`` — a one-off
      read/write stall (the job survives; only latency suffers);
    - ``drop_at_round`` / ``drop_direction`` / ``max_drops`` — the wrapper
      closes the underlying connection and raises :class:`FaultInjected`;
      the peer observes a genuine mid-frame connection loss.  ``max_drops``
      bounds how often the drop fires (default once), so a respawned
      session against the same plan instance is not re-dropped forever.

    The plan is plain data (picklable, JSON-serializable via
    :meth:`to_dict`) so it can ride in a :class:`ServerConfig` to a party
    process and be uploaded as a CI artifact when a chaos test fails.
    """

    seed: int = 0
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    bandwidth_bytes_per_s: float = 0.0
    stall_at_round: Optional[int] = None
    stall_ms: float = 0.0
    stall_direction: str = "send"
    drop_at_round: Optional[int] = None
    drop_direction: str = "send"
    max_drops: int = 1

    _DIRECTIONS = ("send", "recv", "both")

    def __post_init__(self) -> None:
        for name in ("stall_direction", "drop_direction"):
            value = getattr(self, name)
            if value not in self._DIRECTIONS:
                raise ValueError(
                    f"{name} must be one of {self._DIRECTIONS}, got {value!r}"
                )

    @property
    def drops(self) -> bool:
        return self.drop_at_round is not None and self.max_drops > 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "latency_ms": self.latency_ms,
            "jitter_ms": self.jitter_ms,
            "bandwidth_bytes_per_s": self.bandwidth_bytes_per_s,
            "stall_at_round": self.stall_at_round,
            "stall_ms": self.stall_ms,
            "stall_direction": self.stall_direction,
            "drop_at_round": self.drop_at_round,
            "drop_direction": self.drop_direction,
            "max_drops": self.max_drops,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(**payload)


class ShapedTransport(Transport):
    """A transport wrapper that shapes the link deterministically.

    Wraps any :class:`Transport` and delays each outgoing frame by the
    plan's constant latency, seeded jitter and bandwidth-cap serialization
    time.  The wrapper keeps its own :class:`WireStats` (the array/control
    layers of :class:`Transport` run against it), so payload and manifest
    accounting are bit-for-bit what an unshaped endpoint would record —
    shaping only costs time, never bytes.
    """

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        super().__init__()
        self.inner = inner
        self.plan = plan
        self._jitter_rng = np.random.default_rng(plan.seed)

    def _shaping_delay_s(self, frame_bytes: int) -> float:
        plan = self.plan
        delay = plan.latency_ms / 1e3
        if plan.jitter_ms > 0.0:
            delay += float(self._jitter_rng.uniform(0.0, plan.jitter_ms)) / 1e3
        if plan.bandwidth_bytes_per_s > 0.0:
            delay += frame_bytes / plan.bandwidth_bytes_per_s
        return delay

    def _shape(self, frame: bytes) -> None:
        delay = self._shaping_delay_s(len(frame))
        if delay > 0.0:
            time.sleep(delay)

    def _send_frame(self, frame: bytes) -> None:
        self._shape(frame)
        self.inner._send_frame(frame)

    def _recv_frame(self) -> bytes:
        return self.inner._recv_frame()

    def _exchange_frame(self, frame: bytes) -> bytes:
        # full duplex: the peer shapes its frame concurrently, so the
        # exchange pays the one-way delay once
        self._shape(frame)
        return self.inner._exchange_frame(frame)

    def close(self) -> None:
        self.inner.close()


class FaultyTransport(ShapedTransport):
    """A :class:`ShapedTransport` that also executes scripted faults.

    Round indices are the per-direction counts of coalesced round frames
    (``WireStats.round_frames_sent`` / ``_received``) — the same counters
    the round-coalescing scheduler reports — so "drop at round k" means
    exactly the k-th communication round of the executing plan in that
    direction.  Control frames and single-array frames never trip a fault.

    Send-side faults fire *before* the frame leaves (the peer never sees
    it); recv-side faults fire after the bytes arrive but before they are
    delivered (the frame is lost in flight).  Both close the underlying
    connection first, so the peer observes a genuine connection loss and
    both parties abort the job rather than deadlocking.  The hooks sit on
    :meth:`Transport._put_frame` / :meth:`Transport._take_frame`, so in a
    full-duplex exchange the send-side fault fires before the exchange and
    the recv-side fault after it, at the same per-direction indices as on
    one-way frames.
    """

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        super().__init__(inner, plan)
        self._drops_done = 0

    @staticmethod
    def _applies(configured: str, direction: str) -> bool:
        return configured in (direction, "both")

    def _round_index(self, direction: str) -> int:
        if direction == "send":
            return self.stats.round_frames_sent
        return self.stats.round_frames_received

    def _run_scripted_faults(self, direction: str) -> None:
        plan = self.plan
        index = self._round_index(direction)
        if (
            plan.stall_ms > 0.0
            and plan.stall_at_round == index
            and self._applies(plan.stall_direction, direction)
        ):
            self.stats.stalls_injected += 1
            time.sleep(plan.stall_ms / 1e3)
        if (
            plan.drop_at_round == index
            and self._drops_done < plan.max_drops
            and self._applies(plan.drop_direction, direction)
        ):
            self._drops_done += 1
            self.stats.faults_injected += 1
            self.inner.close()
            raise FaultInjected(
                f"scripted fault: connection dropped at round {index} "
                f"({direction} direction, fault {self._drops_done}/"
                f"{plan.max_drops} of the plan)"
            )

    def _put_frame(self, frame: bytes) -> None:
        if frame and frame[0] == _ROUND_CODE:
            self._run_scripted_faults("send")
        super()._put_frame(frame)

    def _take_frame(self) -> bytes:
        frame = super()._take_frame()
        if frame and frame[0] == _ROUND_CODE:
            self._run_scripted_faults("recv")
        return frame


@dataclass
class TransportEndpoint:
    """How one party reaches the other: host/port plus its own role.

    Party 0 may carry a pre-bound :class:`TcpListener` (its ``port`` then
    names the listener's kernel-assigned port); :meth:`open` accepts on it
    instead of binding anew, which is what makes end-to-end ephemeral-port
    sessions race-free.
    """

    party: int
    host: str = "127.0.0.1"
    port: int = 0
    timeout: float = 120.0
    connect_retries: int = 100
    link_latency: float = 0.0
    listener: Optional[TcpListener] = None
    extra: dict = field(default_factory=dict)

    def open(self) -> TcpTransport:
        """Establish the inter-party connection for this endpoint's role."""
        if self.party == 0 and self.listener is not None:
            try:
                return self.listener.accept(
                    timeout=self.timeout, link_latency=self.link_latency
                )
            finally:
                self.listener.close()
        if self.port <= 0:
            # port 0 would listen on an undiscoverable ephemeral port / try to
            # connect to an invalid one; fail immediately instead of timing out.
            raise ValueError(
                f"TransportEndpoint needs a concrete port (or a pre-bound "
                f"listener for party 0), got {self.port}; bind one with "
                "repro.crypto.transport.TcpListener(host, 0)"
            )
        if self.party == 0:
            return TcpTransport.listen(
                self.host,
                self.port,
                timeout=self.timeout,
                link_latency=self.link_latency,
            )
        return TcpTransport.connect(
            self.host,
            self.port,
            timeout=self.timeout,
            retries=self.connect_retries,
            link_latency=self.link_latency,
        )
