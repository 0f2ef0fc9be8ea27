"""Protocol execution statistics.

Summarizes what a 2PC execution consumed: online communication (bytes,
rounds, per-tag breakdown) and offline correlated randomness (Beaver
triples, square pairs, bit triples).  Used by the microbenchmarks to compare
the executed simulation against the analytical communication model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.crypto.context import TwoPartyContext
from repro.crypto.events import bytes_saved_pct as _bytes_saved_pct


@dataclass(frozen=True)
class ProtocolStatistics:
    """Aggregate online/offline cost of a protocol execution."""

    online_bytes: int
    online_rounds: int
    bytes_by_tag: Dict[str, int]
    arithmetic_triples: int
    bit_triples: int
    dabits: int = 0
    #: frame-format-v1 equivalent of ``online_bytes`` (no sub-byte packing)
    online_unpacked_bytes: int = 0

    @property
    def online_megabytes(self) -> float:
        return self.online_bytes / 1e6

    @property
    def bytes_saved_pct(self) -> float:
        """Percent of online payload the packed wire format saves (0-100)."""
        return _bytes_saved_pct(self.online_bytes, self.online_unpacked_bytes)

    def dominated_by(self, prefix: str) -> float:
        """Fraction of the online bytes whose tag starts with ``prefix``."""
        if self.online_bytes == 0:
            return 0.0
        matching = sum(v for k, v in self.bytes_by_tag.items() if k.startswith(prefix))
        return matching / self.online_bytes


def collect_statistics(ctx: TwoPartyContext) -> ProtocolStatistics:
    """Snapshot the context's channel and dealer counters."""
    return ProtocolStatistics(
        online_bytes=ctx.channel.total_bytes,
        online_rounds=ctx.channel.rounds,
        bytes_by_tag=dict(ctx.channel.log.bytes_by_tag()),
        arithmetic_triples=ctx.dealer.triples_generated,
        bit_triples=ctx.dealer.bit_triples_generated,
        dabits=getattr(ctx.dealer, "dabits_generated", 0),
        online_unpacked_bytes=ctx.channel.log.total_unpacked_bytes,
    )
