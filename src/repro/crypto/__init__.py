"""Two-party computation (2PC) substrate.

Executable simulation of the cryptographic building blocks of the paper:
fixed-point ring arithmetic, additive secret sharing, Beaver-triple products,
the OT-based comparison flow, and the per-operator protocols (2PC-Conv,
2PC-ReLU, 2PC-MaxPool, 2PC-AvgPool, 2PC-X^2act).  All inter-server messages
flow through a :class:`repro.crypto.channel.Channel` so communication volume
and round counts can be measured and compared with the analytical model in
:mod:`repro.hardware`.
"""

from repro.crypto import protocols
from repro.crypto.channel import Channel, CommunicationLog, PartyChannel
from repro.crypto.context import TwoPartyContext, make_context
from repro.crypto.transport import (
    LoopbackTransport,
    TcpTransport,
    Transport,
    WireStats,
)
from repro.crypto.faults import (
    FaultInjected,
    FaultPlan,
    FaultyTransport,
    ShapedTransport,
)
from repro.crypto.dealer import (
    PreprocessingExhausted,
    RandomnessPool,
    TrustedDealer,
)
from repro.crypto.events import (
    CommEvent,
    open_bits_event,
    open_ring_event,
    run_phases,
    transfer_event,
)
from repro.crypto.plan import (
    InferencePlan,
    PreprocessingManifest,
    compile_plan,
)
from repro.crypto.kernels import (
    KERNELS,
    KernelContext,
    arena_for,
)
from repro.crypto.scheduler import run_scheduled_plan
from repro.crypto.ring import DEFAULT_RING, PAPER_RING, FixedPointRing
from repro.crypto.sharing import (
    SharePair,
    add_public,
    add_shares,
    reconstruct,
    scale_shares,
    share,
    share_ring_elements,
    sub_shares,
)

__all__ = [
    "protocols",
    "Channel",
    "CommunicationLog",
    "PartyChannel",
    "Transport",
    "LoopbackTransport",
    "TcpTransport",
    "WireStats",
    "FaultInjected",
    "FaultPlan",
    "FaultyTransport",
    "ShapedTransport",
    "TwoPartyContext",
    "make_context",
    "TrustedDealer",
    "RandomnessPool",
    "PreprocessingExhausted",
    "InferencePlan",
    "PreprocessingManifest",
    "compile_plan",
    "KERNELS",
    "KernelContext",
    "arena_for",
    "run_scheduled_plan",
    "CommEvent",
    "open_ring_event",
    "open_bits_event",
    "transfer_event",
    "run_phases",
    "FixedPointRing",
    "DEFAULT_RING",
    "PAPER_RING",
    "SharePair",
    "share",
    "share_ring_elements",
    "reconstruct",
    "add_shares",
    "sub_shares",
    "add_public",
    "scale_shares",
]
