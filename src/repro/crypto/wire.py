"""The array codec: how one ndarray becomes bytes.

:mod:`repro.crypto.transport` moves frames; this module says what is in
them.  An array's *payload* is its buffer in little-endian order.  Ring
elements (stored as uint64 in memory regardless of the configured ring
width) are packed at the *ring element width* — 8 bytes for the 64-bit
executable ring, 4 bytes for the paper's 32-bit ring.  uint8 payloads whose
true information width is sub-byte are packed at that width: 1-bit planes
(GMW AND openings) at eight elements per byte, 2-bit digits (the gt/eq OT
tables) at four per byte, ``ceil`` per array.  The payload bytes therefore
equal the :class:`~repro.crypto.channel.CommunicationLog` accounting and
the :class:`~repro.crypto.plan.PreprocessingManifest` prediction exactly,
at packed widths; everything else on the wire is tracked as framing
overhead (:class:`WireStats`).

A round frame of the party link is payloads only
(:func:`encode_payload` / :func:`decode_payload`): both parties hold the
round group that lays it out.  The serving daemon's ``A`` frame body is a
self-describing *record*, ``header || dims || payload``
(:func:`encode_array` / :func:`decode_array`), whose decoder checks the
length a header *declares* against the bytes present before it builds
anything (:class:`CorruptFrame`).  See ``docs/wire.md``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.crypto.events import packed_num_bytes
from repro.crypto.ring import DEFAULT_RING, FixedPointRing

#: dtype codes of the array codec.  Code 0 is special: ring elements held as
#: uint64 in memory but packed at the ring's element width on the wire.
#: Codes 8/9 are the sub-byte codes: uint8 arrays packed at 1 or 2 bits per
#: element (their header width field holds *bits*, not bytes).
#: Code 255 marks a control frame (session layer, not an array at all);
#: code 254 marks a *round* frame (the payloads of one coalesced
#: communication round, back to back).
_RING_CODE = 0
_PACKED_CODES = {1: 8, 2: 9}  # element_bits -> dtype code
_PACKED_BITS = {code: bits for bits, code in _PACKED_CODES.items()}
ROUND_CODE = 254
CONTROL_CODE = 255

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

#: the ``uint32 length (LE)`` that precedes every frame on every framed
#: surface (party link, serving daemon and its client)
LEN_PREFIX = struct.Struct("<I")
#: largest frame a peer may announce on any of them: a corrupt or hostile
#: length prefix must not make the receiver allocate gigabytes
MAX_FRAME_BYTES = 256 * 1024 * 1024
_HEADER_HEAD = struct.Struct("<BBB")  # dtype code, element width, ndim


class FrameTooLarge(ConnectionError):
    """A peer-supplied length prefix exceeds :data:`MAX_FRAME_BYTES`.

    The stream cannot be re-aligned after a bad prefix, so this is a
    connection loss — and subclasses :class:`ConnectionError` so shard
    eviction and job retry already handle it.
    """


class CorruptFrame(ConnectionError):
    """A peer-supplied frame does not parse: a record with a truncated
    header or dims, a declared payload length other than the length
    present, an unknown dtype code or element width, or trailing bytes; a
    round frame whose length is not its round's.  Raised before anything
    is built from the frame.

    On the party link the stream cannot be trusted afterwards, hence
    :class:`ConnectionError` (eviction and replay already handle it).
    """


def frame_length(prefix: bytes) -> int:
    """Decode a frame's u32 length prefix, rejecting it before any
    allocation if it announces more than :data:`MAX_FRAME_BYTES`."""
    (length,) = LEN_PREFIX.unpack(prefix)
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


#: byte -> the four 2-bit digits it packs, LSB first, as one little-endian
#: u32 (so one lookup per byte decodes four digits)
_DIGITS_OF_BYTE = np.array(
    [[byte >> shift & 3 for shift in (0, 2, 4, 6)] for byte in range(256)], np.uint8
).view("<u4")


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
    """Inverse of :func:`pack_sub_byte` (padding bits ignored); a flat uint8 array."""
    if num_elements == 0:
        return np.zeros(0, dtype=np.uint8)
    raw = np.frombuffer(payload, dtype=np.uint8)
    if element_bits == 1:
        return np.unpackbits(raw, count=num_elements, bitorder="little")
    if element_bits != 2:
        raise ValueError(f"unsupported packed element width {element_bits} bits")
    return np.take(_DIGITS_OF_BYTE, raw).view(np.uint8)[:num_elements]


def _wire_code(dtype: np.dtype, ring: FixedPointRing, element_bits: int) -> Tuple[int, int]:
    """The ``(dtype code, width field)`` an array of ``dtype`` travels as."""
    if dtype in (np.dtype(np.uint64), np.dtype(np.int64)):
        return _RING_CODE, ring_element_width(ring)
    if element_bits in _PACKED_CODES and dtype == np.dtype(np.uint8):
        # sub-byte code: the width field carries *bits* per element
        return _PACKED_CODES[element_bits], element_bits
    canonical = dtype.newbyteorder("<")
    code = _CODE_BY_DTYPE.get(canonical)
    if code is None:
        raise ValueError(f"unsupported wire dtype {dtype}")
    return code, canonical.itemsize


def encode_payload(
    array: np.ndarray, ring: FixedPointRing = DEFAULT_RING, element_bits: int = 8
) -> bytes:
    """An array's payload bytes, in C order.

    uint64/int64 arrays are treated as ring elements and packed at the ring
    element width; uint8 arrays with a declared sub-byte ``element_bits`` (1
    or 2) are bit-packed; other dtypes are packed at their native width in
    little-endian order.  The byte count therefore is
    :func:`~repro.crypto.events.payload_num_bytes`, the channel accounting.
    """
    array = np.asarray(array)
    return _encode(array, *_wire_code(array.dtype, ring, element_bits), ring)


def _encode(array: np.ndarray, code: int, width: int, ring: FixedPointRing) -> bytes:
    if code == _RING_CODE:
        if width == 8 and array.dtype == np.dtype("<u8"):
            return array.tobytes()
        packed = array.astype(np.uint64, copy=False)
        if width != 8:
            packed = ring.wrap(packed)
        return packed.astype(_RING_PACK_DTYPES[width], copy=False).tobytes()
    if code in _PACKED_BITS:
        return pack_sub_byte(array.reshape(-1), width)
    # (no copy when the buffer already is canonical)
    return array.astype(_DTYPE_CODES[code], copy=False).tobytes()


def _decode(payload, code: int, width: int, shape: Tuple[int, ...]) -> np.ndarray:
    """The array a payload of exactly the right length holds; it owns its
    memory (ring elements come back as uint64, packed payloads as uint8)."""
    if code == _RING_CODE:
        array = np.frombuffer(payload, dtype=_RING_PACK_DTYPES[width])
        return array.astype(np.uint64).reshape(shape)
    if code in _PACKED_BITS:
        return unpack_sub_byte(payload, math.prod(shape), width).reshape(shape)
    return np.frombuffer(payload, dtype=_DTYPE_CODES[code]).reshape(shape).copy()


def decode_payload(
    payload, template: np.ndarray, ring: FixedPointRing = DEFAULT_RING, element_bits: int = 8
) -> np.ndarray:
    """Inverse of :func:`encode_payload`: the array shaped and typed like
    ``template`` whose payload is ``payload`` (exactly
    ``payload_num_bytes(template, ...)`` bytes — the caller checks)."""
    return _decode(payload, *_wire_code(template.dtype, ring, element_bits), template.shape)


def encode_array(
    array: np.ndarray, ring: FixedPointRing = DEFAULT_RING, element_bits: int = 8
) -> bytes:
    """Serialize an ndarray into a self-describing ``header || dims ||
    payload`` record (the payload of :func:`encode_payload` after a header)."""
    array = np.asarray(array)
    if array.ndim > 255:
        raise ValueError("arrays with more than 255 dimensions are not supported")
    code, width = _wire_code(array.dtype, ring, element_bits)
    header = _HEADER_HEAD.pack(code, width, array.ndim)
    dims = struct.pack(f"<{array.ndim}Q", *array.shape)
    return header + dims + _encode(array, code, width, ring)


def decode_array(frame: bytes) -> Tuple[np.ndarray, int]:
    """Inverse of :func:`encode_array`, for one peer-supplied record.

    Returns ``(array, payload_bytes)``.  The header fully determines the
    payload size — element width times the product of the dims, or
    ``ceil(bits * elements / 8)`` for the sub-byte codes — so every check
    runs before anything is sliced, allocated or unpacked: a frame that is
    not exactly the record its header declares raises :class:`CorruptFrame`.
    """
    try:
        code, width, ndim = _HEADER_HEAD.unpack_from(frame, 0)
        shape = struct.unpack_from(f"<{ndim}Q", frame, _HEADER_HEAD.size)
    except struct.error as exc:
        raise CorruptFrame(
            f"{len(frame)}-byte array record is cut off inside its header or dims"
        ) from exc
    if code == _RING_CODE:
        known = width in _RING_PACK_DTYPES
    elif code in _PACKED_BITS:
        known = width == _PACKED_BITS[code]
    else:
        known = code in _DTYPE_CODES and width == _DTYPE_CODES[code].itemsize
    if not known:
        raise CorruptFrame(f"array record has unknown dtype code {code} or element width {width}")
    num_elements = math.prod(shape)  # (Python ints: hostile dims cannot wrap)
    if code in _PACKED_BITS:
        payload_bytes = packed_num_bytes(num_elements, width)  # width is bits here
    else:
        payload_bytes = width * num_elements
    offset = _HEADER_HEAD.size + 8 * ndim
    if offset + payload_bytes != len(frame):
        raise CorruptFrame(
            f"array record declares {payload_bytes} payload bytes (dims {shape}) "
            f"but {len(frame) - offset} follow its header"
        )
    try:
        array = _decode(memoryview(frame)[offset:], code, width, shape)
    except ValueError as exc:  # lengths agree, so: dims numpy cannot hold
        raise CorruptFrame(f"array record does not fit an ndarray: {exc}") from exc
    return array, payload_bytes


@dataclass
class WireStats:
    """Measured traffic of one transport endpoint.

    ``payload_bytes_*`` counts array payload bytes only (the quantity the
    manifest predicts); ``overhead_bytes_*`` counts the rest of a round
    frame, its length prefix, code byte and (on a job's first frame) job
    digest; ``control_bytes_*`` counts session-layer control frames (the
    shutdown handshake) in full.  The sum of all three is what
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
    #: coalesced round frames — the only data frames, so equal to
    #: ``frames_*``; ``round_arrays_*`` counts the arrays that rode inside
    #: them — the round counters of the round-coalescing scheduler
    round_frames_sent: int = 0
    round_frames_received: int = 0
    round_arrays_sent: int = 0
    round_arrays_received: int = 0
    #: scripted faults a wrapping :class:`~repro.crypto.faults.FaultyTransport`
    #: injected on this endpoint (connection drops / stalls).  Kept in the
    #: wire stats so the accounting that travels with a job also records
    #: what was done to it — payload counters are never touched by
    #: injection, so payload == manifest stays exact even on a faulted link.
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
