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
    FaultInjected,
    FaultPlan,
    FaultyTransport,
    LoopbackTransport,
    ShapedTransport,
    TcpTransport,
    Transport,
    WireStats,
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
from repro.crypto.ot import OTFlow, OTFlowCost, one_of_four_ot
from repro.crypto.plan import (
    PLAN_INPUT,
    InferencePlan,
    PlanOp,
    PreprocessingManifest,
    compile_plan,
)
from repro.crypto.kernels import (
    KERNELS,
    KernelContext,
    WorkspaceArena,
    arena_for,
    clear_arenas,
    clear_executors,
    register_kernel,
)
from repro.crypto.passes import (
    PlanSchedule,
    ScheduledPlan,
    ScheduledRound,
    dead_op_elimination,
    levelize,
    optimize_plan,
    schedule_rounds,
)
from repro.crypto.scheduler import run_scheduled_plan
from repro.crypto.ring import DEFAULT_RING, PAPER_RING, FixedPointRing
from repro.crypto.stats import ProtocolStatistics, collect_statistics
from repro.crypto.sharing import (
    SharePair,
    add_public,
    add_shares,
    neg_shares,
    reconstruct,
    reconstruct_ring,
    scale_shares,
    scale_shares_integer,
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
    "PlanOp",
    "PreprocessingManifest",
    "PLAN_INPUT",
    "compile_plan",
    "PlanSchedule",
    "ScheduledPlan",
    "ScheduledRound",
    "KERNELS",
    "KernelContext",
    "WorkspaceArena",
    "arena_for",
    "clear_arenas",
    "clear_executors",
    "register_kernel",
    "dead_op_elimination",
    "levelize",
    "optimize_plan",
    "schedule_rounds",
    "run_scheduled_plan",
    "CommEvent",
    "open_ring_event",
    "open_bits_event",
    "transfer_event",
    "run_phases",
    "OTFlow",
    "OTFlowCost",
    "one_of_four_ot",
    "FixedPointRing",
    "DEFAULT_RING",
    "PAPER_RING",
    "SharePair",
    "share",
    "share_ring_elements",
    "reconstruct",
    "reconstruct_ring",
    "add_shares",
    "sub_shares",
    "neg_shares",
    "add_public",
    "scale_shares",
    "scale_shares_integer",
    "ProtocolStatistics",
    "collect_statistics",
]
