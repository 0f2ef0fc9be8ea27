"""Two-party computation context shared by all protocol implementations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.crypto.channel import Channel
from repro.crypto.dealer import TrustedDealer
from repro.crypto.ring import DEFAULT_RING, FixedPointRing


@dataclass
class TwoPartyContext:
    """Holds the ring, the trusted dealer, the channel and the RNG.

    All online protocols take a context as their first argument; the context
    is the simulation's stand-in for the pair of server processes in the real
    deployment.
    """

    ring: FixedPointRing = DEFAULT_RING
    seed: int = 0
    channel: Channel = field(default=None)  # type: ignore[assignment]
    dealer: TrustedDealer = field(default=None)  # type: ignore[assignment]
    rng: np.random.Generator = field(default=None)  # type: ignore[assignment]
    #: fused-kernel state (a :class:`repro.crypto.kernels.KernelContext`)
    #: installed by the plan executor for the duration of a run; None (the
    #: oracle, standalone protocol calls) keeps the reference numpy chains
    kernels: Optional[object] = None

    def __post_init__(self) -> None:
        if self.channel is None:
            self.channel = Channel(ring=self.ring)
        if self.dealer is None:
            self.dealer = TrustedDealer(ring=self.ring, seed=self.seed)
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed + 1)

    def reset_communication(self) -> None:
        """Clear the channel log (e.g. between benchmark runs)."""
        self.channel.reset()

    @property
    def communication_bytes(self) -> int:
        return self.channel.total_bytes

    @property
    def communication_rounds(self) -> int:
        return self.channel.rounds


def make_context(
    ring: Optional[FixedPointRing] = None, seed: int = 0
) -> TwoPartyContext:
    """Convenience constructor used throughout tests and examples."""
    return TwoPartyContext(ring=ring or DEFAULT_RING, seed=seed)
