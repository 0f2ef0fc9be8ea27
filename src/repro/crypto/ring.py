"""Fixed-point arithmetic over the ring :math:`Z_{2^k}`.

The 2PC protocols of the paper operate on additively secret-shared values in
a power-of-two ring (the paper's FPGA implementation uses a 32-bit ring).
This module provides the encode/decode, wrap-around arithmetic, truncation
and bit/digit decomposition primitives the protocols build on.

The default ring for the *executable* protocol simulation is 64 bits with 16
fractional bits (the CrypTen convention) because the functional-correctness
tests run real convolutions whose accumulations overflow a 32-bit ring; the
*latency model* in :mod:`repro.hardware` uses the paper's 32-bit setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class FixedPointRing:
    """Parameters of the fixed-point ring used by the 2PC protocols.

    Attributes:
        ring_bits: total bit width k of the ring Z_{2^k} (<= 64).
        frac_bits: number of fractional bits f in the fixed-point encoding;
            a real value v is represented as round(v * 2^f) mod 2^k.
    """

    ring_bits: int = 64
    frac_bits: int = 16

    def __post_init__(self) -> None:
        if not 2 <= self.ring_bits <= 64:
            raise ValueError(f"ring_bits must be in [2, 64], got {self.ring_bits}")
        if not 0 <= self.frac_bits < self.ring_bits - 1:
            raise ValueError(
                f"frac_bits must be in [0, ring_bits-1), got {self.frac_bits}"
            )

    # -- constants ------------------------------------------------------- #
    @property
    def modulus(self) -> int:
        return 1 << self.ring_bits

    @property
    def mask(self) -> np.uint64:
        if self.ring_bits == 64:
            return np.uint64(0xFFFFFFFFFFFFFFFF)
        return np.uint64((1 << self.ring_bits) - 1)

    @property
    def scale(self) -> float:
        return float(1 << self.frac_bits)

    @property
    def half_modulus(self) -> int:
        return 1 << (self.ring_bits - 1)

    @property
    def max_representable(self) -> float:
        """Largest positive real value representable without wrap."""
        return (self.half_modulus - 1) / self.scale

    # -- encode / decode --------------------------------------------------- #
    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode real values into ring elements (dtype uint64)."""
        scaled = np.rint(np.asarray(values, dtype=np.float64) * self.scale).astype(np.int64)
        return self.wrap(scaled.astype(np.uint64))

    def decode(self, elements: np.ndarray) -> np.ndarray:
        """Decode ring elements back to real values (signed interpretation)."""
        signed = self.to_signed(elements)
        return signed.astype(np.float64) / self.scale

    def to_signed(self, elements: np.ndarray) -> np.ndarray:
        """Interpret ring elements as signed integers in [-2^{k-1}, 2^{k-1})."""
        elements = self.wrap(np.asarray(elements, dtype=np.uint64))
        if self.ring_bits == 64:
            # uint64 -> int64 reinterprets the top bit correctly.
            return elements.view(np.int64)
        as_int = elements.astype(np.int64)
        half = np.int64(self.half_modulus)
        mod = np.int64(self.modulus)
        return np.where(as_int >= half, as_int - mod, as_int)

    # -- modular arithmetic ------------------------------------------------ #
    def wrap(self, elements: np.ndarray) -> np.ndarray:
        """Reduce elements modulo 2^k (always a fresh uint64 array)."""
        elements = np.asarray(elements).astype(np.uint64)
        if self.ring_bits == 64:
            return elements
        return elements & self.mask

    def _reduce(self, fresh) -> np.ndarray:
        """Reduce a result this ring just computed: on the 64-bit ring the
        uint64 arithmetic already wrapped, so it is returned as is (a 0-d
        result stays an array) instead of being copied by :meth:`wrap`."""
        if self.ring_bits == 64:
            return np.asarray(fresh)
        return self.wrap(fresh)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self._reduce(np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64))

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self._reduce(np.asarray(a, dtype=np.uint64) - np.asarray(b, dtype=np.uint64))

    def neg(self, a: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self._reduce(np.uint64(0) - np.asarray(a, dtype=np.uint64))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self._reduce(np.asarray(a, dtype=np.uint64) * np.asarray(b, dtype=np.uint64))

    def scalar_mul(self, a: np.ndarray, scalar: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self._reduce(np.asarray(a, dtype=np.uint64) * np.uint64(scalar % self.modulus))

    # -- truncation --------------------------------------------------------- #
    def truncate_local(self, share: np.ndarray, party: int) -> np.ndarray:
        """SecureML-style local truncation of a *share* by ``frac_bits``.

        Party 0 arithmetically shifts its share interpreted as signed; party 1
        negates, shifts, and negates back.  The reconstruction differs from
        the exact truncation by at most one LSB (with overwhelming
        probability), which is the standard trade-off in 2PC fixed-point
        training/inference systems.
        """
        share = self.wrap(share)
        signed = self.to_signed(share)
        if party == 0:
            shifted = signed >> self.frac_bits
        else:
            shifted = -((-signed) >> self.frac_bits)
        return self.wrap(shifted.astype(np.int64).astype(np.uint64))

    def truncate_plain(self, element: np.ndarray) -> np.ndarray:
        """Exact truncation of a *plaintext* ring element by ``frac_bits``."""
        signed = self.to_signed(element)
        return self.wrap((signed >> self.frac_bits).astype(np.uint64))

    # -- bit / digit decomposition ------------------------------------------ #
    def msb(self, elements: np.ndarray) -> np.ndarray:
        """Most significant bit of each ring element (0 or 1, dtype uint8)."""
        elements = self.wrap(elements)
        return ((elements >> np.uint64(self.ring_bits - 1)) & np.uint64(1)).astype(np.uint8)

    def low_bits(self, elements: np.ndarray) -> np.ndarray:
        """Elements with the MSB cleared: value mod 2^{k-1}."""
        elements = self.wrap(elements)
        low_mask = np.uint64((1 << (self.ring_bits - 1)) - 1)
        return elements & low_mask

    def digits(self, elements: np.ndarray, digit_bits: int = 2) -> np.ndarray:
        """Decompose ring elements into little-endian ``digit_bits``-bit digits.

        Returns an array of shape ``(num_digits,) + elements.shape`` with
        dtype uint8.  The paper's OT comparison flow uses ``digit_bits=2``
        (U = 16 digits for a 32-bit value).
        """
        if self.ring_bits % digit_bits:
            raise ValueError("digit_bits must divide ring_bits")
        elements = self.wrap(elements)
        num_digits = self.ring_bits // digit_bits
        digit_mask = np.uint64((1 << digit_bits) - 1)
        out = np.empty((num_digits,) + elements.shape, dtype=np.uint8)
        for i in range(num_digits):
            out[i] = ((elements >> np.uint64(i * digit_bits)) & digit_mask).astype(np.uint8)
        return out

    def from_digits(self, digits: np.ndarray, digit_bits: int = 2) -> np.ndarray:
        """Inverse of :meth:`digits`."""
        num_digits = digits.shape[0]
        out = np.zeros(digits.shape[1:], dtype=np.uint64)
        for i in range(num_digits):
            out |= digits[i].astype(np.uint64) << np.uint64(i * digit_bits)
        return self.wrap(out)

    # -- random elements ------------------------------------------------------ #
    def random(self, shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Uniformly random ring elements."""
        if self.ring_bits == 64:
            return rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        return rng.integers(0, self.modulus, size=shape, dtype=np.uint64)


#: The ring the paper's FPGA implementation uses (32-bit, 12 fractional bits).
PAPER_RING = FixedPointRing(ring_bits=32, frac_bits=12)

#: Default ring for the executable protocol simulation (CrypTen convention).
DEFAULT_RING = FixedPointRing(ring_bits=64, frac_bits=16)
