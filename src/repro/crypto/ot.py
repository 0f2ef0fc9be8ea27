"""Oblivious-transfer building blocks.

Two pieces live here:

1. :func:`one_of_four_ot` — a simulated 1-of-4 OT batch.  The sender
   transmits all four masked messages (that is what the wire sees in the
   real OT extension as well, and what the paper's communication model
   counts in Eq. 8); the receiver's choice never leaves its side of the
   simulation.  The millionaire protocol's phase generator expresses the
   same transfer as batched :func:`~repro.crypto.events.transfer_event`\\ s
   so all digit OTs of a comparison share one coalesced round; this
   stand-alone entry point keeps the OT semantics testable in isolation.

2. :class:`OTFlow` — an accounting replica of the exact four-step 2PC-OT
   message flow of Fig. 4 (shared base S, R list, encrypted comparison
   matrix, masked result) used to validate the analytical communication
   model of :mod:`repro.hardware.latency` against executed byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.events import packed_num_bytes
from repro.crypto.ring import FixedPointRing


def one_of_four_ot(
    ctx: TwoPartyContext,
    messages: np.ndarray,
    choices: np.ndarray,
    tag: str = "ot",
) -> np.ndarray:
    """Batched 1-of-4 oblivious transfer.

    Args:
        ctx: two-party context (the channel records the transfer volume).
        messages: array of shape ``(4,) + shape`` holding the sender's (S0)
            four candidate messages per position, dtype uint8 (bit payloads).
        choices: array of shape ``shape`` with values in {0, 1, 2, 3} held by
            the receiver (S1).

    Returns:
        The chosen messages, shape ``shape`` — known only to the receiver.
    """
    if messages.shape[0] != 4:
        raise ValueError("one_of_four_ot expects messages stacked on a leading axis of 4")
    if messages.shape[1:] != choices.shape:
        raise ValueError(
            f"message shape {messages.shape[1:]} does not match choices {choices.shape}"
        )
    # The sender pushes all four (masked) messages onto the wire; the
    # receiver selects from what actually arrived (under a PartyChannel the
    # receiver's local ``messages`` argument is garbage and is discarded).
    messages = ctx.channel.transfer(0, 1, messages.astype(np.uint8), tag=tag)
    chosen = np.take_along_axis(
        messages, choices.astype(np.intp)[None, ...], axis=0
    )[0]
    return chosen


@dataclass
class OTFlowCost:
    """Byte counts of one execution of the Fig. 4 flow."""

    comm1_bytes: int
    comm2_bytes: int
    comm3_bytes: int
    comm4_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.comm1_bytes + self.comm2_bytes + self.comm3_bytes + self.comm4_bytes


class OTFlow:
    """Accounting replica of the paper's 4-step 2PC-OT comparison flow.

    The element counts per step follow Section III-C.1: with w-bit values
    split into U = w/2 two-bit parts,

    - step 1 (S0 -> S1): one w-bit mask base ``S``;
    - step 2 (S1 -> S0): an R list of U values per element;
    - step 4 (S1 -> S0): one masked result per element;
    - step 3 (S0 -> S1): an encrypted 4 x U comparison matrix per element —
      w-bit words in the paper's accounting (Eq. 8), or 2-bit packed entries
      with ``packed=True``, matching what the executable runtime actually
      ships for its stacked digit OT (the first round group of
      :func:`repro.crypto.protocols.comparison.millionaire_gt_phases`).

    The word width is **derived from the ring**: pass ``ring=`` (or nothing
    — ``execute`` falls back to the context's ring) instead of hardcoding
    ``32``.  ``word_bits=`` remains available for exercising the paper's
    literal 32-bit formulas against a differently configured runtime.
    """

    def __init__(
        self,
        word_bits: Optional[int] = None,
        digit_bits: int = 2,
        ring: Optional[FixedPointRing] = None,
        packed: bool = False,
    ) -> None:
        if word_bits is None and ring is not None:
            word_bits = ring.ring_bits
        self.word_bits = word_bits  # None: derive from ctx.ring at execute()
        self.digit_bits = digit_bits
        self.digit_values = 1 << digit_bits
        self.packed = packed

    def _resolve_width(self, ctx: TwoPartyContext) -> int:
        word_bits = self.word_bits if self.word_bits is not None else ctx.ring.ring_bits
        # the placeholder buffers below are sized in uint32 units, so only
        # the two widths the rings support keep the channel log equal to the
        # reported OTFlowCost — reject anything else instead of drifting
        if word_bits not in (32, 64) or word_bits % self.digit_bits:
            raise ValueError(
                f"word width {word_bits} bits is unsupported (32 or 64, "
                f"divisible by digit_bits={self.digit_bits})"
            )
        return word_bits

    def execute(self, ctx: TwoPartyContext, num_elements: int) -> OTFlowCost:
        """Send placeholder payloads with the exact Fig. 4 sizes."""
        word_bits = self._resolve_width(ctx)
        num_digits = word_bits // self.digit_bits
        word_bytes = word_bits // 8
        word_dtype = np.uint64 if word_bytes == 8 else np.uint32
        # uint64 placeholders would be ring-accounted; keep the byte counts
        # literal by sizing uint32 buffers to the exact step volume instead.
        def words(count: int) -> np.ndarray:
            if word_dtype is np.uint32:
                return np.zeros(count, dtype=np.uint32)
            return np.zeros(2 * count, dtype=np.uint32)

        # Step 1: shared mask base S (one word, independent of element count).
        ctx.channel.send(0, 1, words(1), tag="otflow/step1")
        comm1 = word_bytes
        # Step 2: R list, num_digits words per element.
        ctx.channel.send(1, 0, words(num_elements * num_digits), tag="otflow/step2")
        comm2 = word_bytes * num_digits * num_elements
        # Step 3: encrypted comparison matrix, 4 x num_digits entries per
        # element — w-bit words unpacked, 2-bit packed entries otherwise.
        matrix_entries = num_elements * num_digits * self.digit_values
        if self.packed:
            ctx.channel.send(
                0,
                1,
                np.zeros(matrix_entries, dtype=np.uint8),
                tag="otflow/step3",
                element_bits=self.digit_bits,
            )
            comm3 = packed_num_bytes(matrix_entries, self.digit_bits)
        else:
            ctx.channel.send(0, 1, words(matrix_entries), tag="otflow/step3")
            comm3 = word_bytes * matrix_entries
        # Step 4: masked result, one word per element.
        ctx.channel.send(1, 0, words(num_elements), tag="otflow/step4")
        comm4 = word_bytes * num_elements
        return OTFlowCost(comm1, comm2, comm3, comm4)
