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
    CODEC_STATS,
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
    def test_contiguous_ring_array_skips_the_astype_copy(self):
        """Micro-assertion: the hot path (contiguous uint64 on the 64-bit
        ring) serializes without an intermediate astype copy."""
        before = CODEC_STATS["fast_path_encodes"]
        encode_array(np.arange(16, dtype=np.uint64), DEFAULT_RING)
        assert CODEC_STATS["fast_path_encodes"] == before + 1

    def test_native_little_endian_floats_hit_the_fast_path(self):
        before = CODEC_STATS["fast_path_encodes"]
        encode_array(np.linspace(0, 1, 5, dtype="<f8"), DEFAULT_RING)
        assert CODEC_STATS["fast_path_encodes"] == before + 1

    def test_narrow_ring_still_rewraps(self):
        """The 32-bit ring genuinely repacks (wrap + downcast) — copied path."""
        before = CODEC_STATS["copied_encodes"]
        encode_array(np.arange(4, dtype=np.uint64), PAPER_RING)
        assert CODEC_STATS["copied_encodes"] == before + 1

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
    """Golden bytes, captured from a ``LoopbackTransport`` before the codec
    moved to ``repro.crypto.wire``: what ``send_arrays`` and
    ``send_control`` put on the link may not change under a refactor."""
    ring = np.arange(6, dtype=np.uint64).reshape(2, 3) * np.uint64(0x0123456789ABCDEF)
    index = np.arange(13)
    bits1 = ((index % 2) ^ (index % 3 == 0)).astype(np.uint8)
    bits2 = (np.arange(7) % 4).astype(np.uint8)
    a, b = LoopbackTransport.pair()
    a.send_arrays([ring, (bits1, 1), (bits2, 2)], DEFAULT_RING)
    assert bytes(b._inbox.get()).hex() == (
        "fe03000000"
        "0008020200000000000000030000000000000000000000000000"
        "00efcdab8967452301de9b5713cf8a4602cd69039d36d06903bc37af269e158d04"
        "ab055bb0055bb005"
        "0801010d00000000000000e318"
        "0902010700000000000000e424"
    )
    a.send_control(b"job")
    assert bytes(b._inbox.get()).hex() == "ff6a6f62"
    assert (a.stats.payload_bytes_sent, a.stats.overhead_bytes_sent) == (52, 50)
    assert a.stats.control_bytes_sent == 8


def _record(code: int, width: int, dims, payload: bytes = b"") -> bytes:
    return struct.pack(f"<BBB{len(dims)}Q", code, width, len(dims), *dims) + payload


def _round(count: int, body: bytes) -> bytes:
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

#: the same records as the only array of a round frame, plus the ways a
#: round frame itself can lie about its contents
HOSTILE_ROUNDS = {
    **{name: _round(1, record) for name, record in HOSTILE_RECORDS.items()},
    "count-overruns-frame": _round(2, _GOOD),
    "count-2^32-1-of-nothing": _round(2**32 - 1, b""),
    "no-count": b"\xfe\x01",
}


def _recv_arrays_over_loopback(frame: bytes) -> None:
    a, b = LoopbackTransport.pair(timeout=5.0)
    a._put_frame(frame)
    b.recv_arrays()


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
