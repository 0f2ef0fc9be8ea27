"""Round-trip tests for frame format v2: packed sub-byte payloads, ring
widths, the no-copy encode fast path, and the packed accounting rule.

Satellite coverage of the wire-compression work: every supported element
width (1/2/8/32/64 bits) x ring width (32/64 bits), including odd lengths
where the packed bits do not fill the last byte, plus a hypothesis property
test that ``decode(encode(x))`` is exact for every supported dtype code.
"""

from __future__ import annotations

import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.events import packed_num_bytes, payload_num_bytes
from repro.crypto.ring import DEFAULT_RING, PAPER_RING
from repro.crypto.transport import LoopbackTransport
from repro.crypto.wire import (
    CorruptFrame,
    decode_array,
    encode_array,
    pack_sub_byte,
    unpack_sub_byte,
)

RINGS = {"ring64": DEFAULT_RING, "ring32": PAPER_RING}


class TestPackedRoundTrip:
    @pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
    @pytest.mark.parametrize("element_bits", [1, 2])
    @pytest.mark.parametrize(
        # odd lengths on purpose: the last byte is partially filled
        "length", [0, 1, 3, 7, 8, 9, 31, 64, 101],
    )
    def test_sub_byte_round_trip(self, ring, element_bits, length):
        rng = np.random.default_rng(length + element_bits)
        values = rng.integers(0, 1 << element_bits, size=length, dtype=np.uint8)
        frame = encode_array(values, ring, element_bits)
        decoded, payload_bytes = decode_array(frame)
        assert decoded.dtype == np.uint8
        np.testing.assert_array_equal(decoded, values)
        assert payload_bytes == packed_num_bytes(length, element_bits)
        # the accounting rule agrees with the codec, byte for byte
        assert payload_bytes == payload_num_bytes(
            values, ring.ring_bits // 8, element_bits
        )

    @pytest.mark.parametrize("element_bits", [1, 2])
    def test_multidimensional_shapes_survive(self, element_bits):
        values = np.arange(24, dtype=np.uint8).reshape(2, 3, 4) % (1 << element_bits)
        decoded, _ = decode_array(encode_array(values, DEFAULT_RING, element_bits))
        assert decoded.shape == (2, 3, 4)
        np.testing.assert_array_equal(decoded, values)

    def test_one_bit_payload_is_eighth_of_bytes(self):
        bits = np.ones(80, dtype=np.uint8)
        _, payload_bytes = decode_array(encode_array(bits, DEFAULT_RING, 1))
        assert payload_bytes == 10

    def test_two_bit_payload_is_quarter_of_bytes(self):
        digits = np.full(80, 3, dtype=np.uint8)
        _, payload_bytes = decode_array(encode_array(digits, DEFAULT_RING, 2))
        assert payload_bytes == 20

    def test_pack_helpers_are_inverse(self):
        rng = np.random.default_rng(0)
        for element_bits in (1, 2):
            flat = rng.integers(0, 1 << element_bits, size=37, dtype=np.uint8)
            packed = pack_sub_byte(flat, element_bits)
            assert len(packed) == packed_num_bytes(37, element_bits)
            np.testing.assert_array_equal(
                unpack_sub_byte(packed, 37, element_bits), flat
            )

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 37, 4097])
    def test_two_bit_codec_matches_the_per_element_reference(self, length):
        """Element ``i`` sits in bits ``2(i%4)..2(i%4)+1`` of byte ``i//4``."""
        digits = np.random.default_rng(length).integers(0, 4, size=length, dtype=np.uint8)
        reference = bytearray(packed_num_bytes(length, 2))
        for i, digit in enumerate(digits):
            reference[i // 4] |= int(digit) << (2 * (i % 4))
        assert pack_sub_byte(digits, 2) == bytes(reference)
        decoded = unpack_sub_byte(bytes(reference), length, 2)
        assert decoded.dtype == np.uint8
        assert [int(v) for v in decoded] == [int(d) for d in digits]

    @pytest.mark.parametrize("length", [1, 3, 5, 37, 4097])
    def test_two_bit_decoder_ignores_set_padding_bits(self, length):
        digits = np.random.default_rng(length).integers(0, 4, size=length, dtype=np.uint8)
        payload = bytearray(pack_sub_byte(digits, 2))
        payload[-1] |= 0xFF << (2 * (length % 4 or 4)) & 0xFF  # set every padding bit
        np.testing.assert_array_equal(unpack_sub_byte(bytes(payload), length, 2), digits)
        record = encode_array(digits, DEFAULT_RING, 2)
        decoded, _ = decode_array(record[: -len(payload)] + bytes(payload))
        np.testing.assert_array_equal(decoded, digits)

    def test_default_element_bits_keeps_uint8_at_native_width(self):
        """element_bits=8 (the default) must not repack generic byte data."""
        payload = np.arange(10, dtype=np.uint8)
        decoded, payload_bytes = decode_array(encode_array(payload, DEFAULT_RING))
        np.testing.assert_array_equal(decoded, payload)
        assert payload_bytes == 10


class TestWholeByteWidths:
    @pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
    def test_ring_elements_pack_at_ring_width(self, ring):
        values = ring.wrap(np.arange(9, dtype=np.uint64) * 977)
        decoded, payload_bytes = decode_array(encode_array(values, ring))
        assert payload_bytes == 9 * ring.ring_bits // 8
        np.testing.assert_array_equal(decoded, values)

    @pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
    def test_uint32_native_width(self, ring):
        values = np.arange(7, dtype=np.uint32)
        decoded, payload_bytes = decode_array(encode_array(values, ring))
        assert payload_bytes == 28
        np.testing.assert_array_equal(decoded, values)


class TestEncodeFastPath:
    def test_non_contiguous_arrays_still_encode_correctly(self):
        values = np.arange(20, dtype=np.uint64)[::2]
        decoded, _ = decode_array(encode_array(values, DEFAULT_RING))
        np.testing.assert_array_equal(decoded, values)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    length=st.integers(0, 65),
    code=st.sampled_from(["bits1", "bits2", "uint8", "uint32", "int64", "ring64", "ring32", "f32", "f64"]),
)
def test_property_decode_encode_is_exact(seed, length, code):
    """decode(encode(x)) is exact for every supported dtype code."""
    rng = np.random.default_rng(seed)
    ring = DEFAULT_RING
    element_bits = 8
    if code == "bits1":
        values = rng.integers(0, 2, size=length, dtype=np.uint8)
        element_bits = 1
    elif code == "bits2":
        values = rng.integers(0, 4, size=length, dtype=np.uint8)
        element_bits = 2
    elif code == "uint8":
        values = rng.integers(0, 256, size=length, dtype=np.uint8)
    elif code == "uint32":
        values = rng.integers(0, 2**32, size=length, dtype=np.uint32)
    elif code == "int64":
        values = rng.integers(-(2**40), 2**40, size=length, dtype=np.int64)
    elif code == "ring64":
        values = DEFAULT_RING.random((length,), rng)
    elif code == "ring32":
        ring = PAPER_RING
        values = PAPER_RING.random((length,), rng)
    elif code == "f32":
        values = rng.normal(size=length).astype(np.float32)
    else:
        values = rng.normal(size=length)
    decoded, _ = decode_array(encode_array(values, ring, element_bits))
    if code == "int64":
        # ring convention: signed 64-bit comes back as its uint64 image
        np.testing.assert_array_equal(decoded, values.astype(np.uint64))
    else:
        np.testing.assert_array_equal(decoded, values)


def test_round_and_control_frames_are_byte_identical_to_the_committed_wire():
    """Golden bytes of what ``send_arrays`` and ``send_control`` put on the
    link: a round frame is the code byte and the payloads, nothing else,
    and may not change under a refactor."""
    ring = np.arange(6, dtype=np.uint64).reshape(2, 3) * np.uint64(0x0123456789ABCDEF)
    index = np.arange(13)
    bits1 = ((index % 2) ^ (index % 3 == 0)).astype(np.uint8)
    bits2 = (np.arange(7) % 4).astype(np.uint8)
    a, b = LoopbackTransport.pair()
    a.send_arrays([ring, (bits1, 1), (bits2, 2)], DEFAULT_RING)
    assert bytes(b._inbox.get()).hex() == (
        "fe"
        "0000000000000000efcdab8967452301de9b5713cf8a4602cd69039d36d06903bc37af269e158d04"
        "ab055bb0055bb005"
        "e318"
        "e424"
    )
    a.send_control(b"job")
    assert bytes(b._inbox.get()).hex() == "ff6a6f62"
    assert (a.stats.payload_bytes_sent, a.stats.overhead_bytes_sent) == (52, 5)
    assert a.stats.control_bytes_sent == 8
    # a job's first round frame: the code byte, its 8-byte digest, the
    # payloads; the digest is framing, not payload
    digest = bytes.fromhex("0123456789abcdef")
    a.send_arrays([ring, (bits1, 1)], DEFAULT_RING, digest)
    assert bytes(b._inbox.get()).hex() == (
        "fe"
        "0123456789abcdef"
        "0000000000000000efcdab8967452301de9b5713cf8a4602cd69039d36d06903bc37af269e158d04"
        "ab055bb0055bb005"
        "e318"
    )
    assert (a.stats.payload_bytes_sent, a.stats.overhead_bytes_sent) == (52 + 50, 5 + 13)
    # a party with nothing to send in a job's first round sends the digest alone
    a.send_arrays([], DEFAULT_RING, digest)
    assert bytes(b._inbox.get()).hex() == "fe0123456789abcdef"
    assert (a.stats.payload_bytes_sent, a.stats.overhead_bytes_sent) == (52 + 50, 5 + 13 + 13)
    assert a.stats.round_frames_sent == 3 and a.stats.control_frames_sent == 1


def _record(code: int, width: int, dims, payload: bytes = b"") -> bytes:
    return struct.pack(f"<BBB{len(dims)}Q", code, width, len(dims), *dims) + payload


def _round(count: int, body: bytes) -> bytes:
    """A round frame in the layout that prefixed a count and array records."""
    return b"\xfe" + struct.pack("<I", count) + body


_GOOD = _record(0, 8, (1,), bytes(8))

#: peer-supplied array records that must be refused from the header alone
HOSTILE_RECORDS = {
    # 12 bytes that used to unpack into a 2 GiB array / a 2 GiB index
    "1bit-dims-2^31": _record(8, 1, (2**31,), b"\x00"),
    "2bit-dims-2^28": _record(9, 2, (2**28,), b"\x00"),
    "dims-product-wraps-uint64": _record(0, 8, (2**32, 2**32), bytes(8)),
    "truncated-header": b"\x00\x08",
    "truncated-dims": struct.pack("<BBBQ", 0, 8, 2, 4),
    "short-ring-payload": _record(0, 8, (2,), bytes(15)),
    "unknown-dtype-code": _record(77, 1, (1,), b"\x00"),
    "control-code-as-dtype": _record(255, 1, (1,), b"\x00"),
    "ring-width-3": _record(0, 3, (1,), bytes(3)),
    "native-width-mismatch": _record(2, 8, (1,), bytes(8)),
    "packed-width-mismatch": _record(8, 2, (4,), b"\x00"),
    "more-dims-than-numpy-holds": _record(0, 8, (1,) * 255, bytes(8)),
    "trailing-bytes": _GOOD + b"\x00",
}

#: the round every hostile round frame is received as: one ring element, a
#: 1-bit plane of 13 and a 2-bit digit tensor of 7 (8 + 2 + 2 payload bytes)
ROUND_LAYOUT = [
    np.zeros(1, dtype=np.uint64),
    (np.zeros(13, dtype=np.uint8), 1),
    (np.zeros((7, 1), dtype=np.uint8), 2),
]
_EXACT = b"\xfe" + bytes(range(1, 13))

#: the records above as the array of a round frame laid out as they used to
#: be, the ways such a frame could lie about its count, and the frames one
#: byte off the layout: every one has a length other than the round's
HOSTILE_ROUNDS = {
    **{name: _round(1, record) for name, record in HOSTILE_RECORDS.items()},
    "count-overruns-frame": _round(2, _GOOD),
    "count-2^32-1-of-nothing": _round(2**32 - 1, b""),
    "no-count": b"\xfe\x01",
    "one-byte-short": _EXACT[:-1],
    "one-byte-long": _EXACT + b"\x00",
}


def _recv_arrays_over_loopback(frame: bytes):
    a, b = LoopbackTransport.pair(timeout=5.0)
    a._put_frame(frame)
    return b.recv_arrays(ROUND_LAYOUT, DEFAULT_RING)


def test_a_round_frame_of_exactly_its_layouts_length_decodes():
    """The positive control of the hostile rounds: same layout, right
    length.  The arrays own their memory: scribbling over the received
    frame afterwards changes none of them."""
    frame = bytearray(_EXACT)
    arrays = _recv_arrays_over_loopback(frame)
    expected = [
        np.array([0x0807060504030201], dtype=np.uint64),
        unpack_sub_byte(bytes([9, 10]), 13, 1),
        unpack_sub_byte(bytes([11, 12]), 7, 2).reshape(7, 1),
    ]
    frame[1:] = bytes(12)
    for array, reference in zip(arrays, expected):
        assert array.dtype == reference.dtype
        np.testing.assert_array_equal(array, reference)


@pytest.mark.parametrize(
    "decode, frame",
    [
        pytest.param(decode, frame, id=f"{label}-{name}")
        for label, decode, table in (
            ("decode_array", decode_array, HOSTILE_RECORDS),
            ("recv_arrays", _recv_arrays_over_loopback, HOSTILE_ROUNDS),
        )
        for name, frame in table.items()
    ],
)
def test_hostile_frame_is_refused_before_anything_is_built(decode, frame):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CorruptFrame):
            decode(frame)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert issubclass(CorruptFrame, ConnectionError)
    assert peak < 1 << 20
    assert elapsed < 1.0  # (the first two took 13 s and 26 s)
