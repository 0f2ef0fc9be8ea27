"""Protocol registry: the dispatch and accounting contract of the plan runtime.

Every layer kind that can be executed under 2PC registers a
:class:`ProtocolHandler` here (see the ``@register_protocol`` decorators at
the bottom of the modules in :mod:`repro.crypto.protocols`).  A handler
bundles the facets the compiler and runtime need:

- ``phases`` — the online protocol as a *phase generator*: local computation
  punctuated by ``yield``\\ ed round groups of
  :class:`~repro.crypto.events.CommEvent`.  The driver (not the handler)
  decides how each group hits the wire: coalesced into shared rounds by the
  plan scheduler (the runtime), event by event by the sequential oracle
  (:func:`repro.crypto.events.run_reference`), or recorded as an
  :class:`OpTrace` by the plan compiler (:func:`repro.crypto.plan.trace_op`);
- ``infer_shape`` — static shape inference used by the plan compiler;
- ``yields`` — whether ``phases`` was registered as a generator.  A plain
  function neither communicates nor draws randomness, so its trace is
  empty without a run.

There is no second, hand-written description of a protocol's cost: the
compiler runs the phase generator once and the trace falls out, so the
preprocessing manifest and the byte accounting of a compiled plan list the
requests and messages in exactly the order the protocol performs them.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.crypto.dealer import item_elements, material_bytes
from repro.crypto.ring import FixedPointRing
from repro.models.specs import LayerKind, LayerSpec

#: one traced wire event: the ``(sender, num_bytes)`` messages it emits.  An
#: opening is bidirectional (two messages, S0's first); a transfer is one.
TraceEvent = Tuple[Tuple[int, int], ...]
#: one traced round group: events that may share a coalesced round
TraceGroup = Tuple[TraceEvent, ...]


@dataclass(frozen=True)
class RandomnessRequest:
    """One unit of correlated randomness an online protocol will consume.

    ``kind`` is one of ``"triple"`` (elementwise Beaver triple), ``"square"``
    (Beaver pair for the square protocol), ``"bit"`` (a multi-input AND
    item of shape ``(radix, outputs) + S``: the mask products of one
    comparison-tree combine per element of ``S``) or
    ``"dabit"`` (a doubly-shared random bit — XOR shares plus arithmetic
    shares of the same bit — widened with additive shares of a random ring
    element ``a`` and of ``r·a``, consumed by the one-round select);
    ``shape`` is the tensor shape of the request.  Elementwise triples have
    identical operand shapes, which is the only triple form the model-zoo
    protocols consume (public-weight convolution and linear layers need no
    triples at all, and the ReLU/MaxPool multiplexer needs a daBit only).
    """

    kind: str
    shape: Tuple[int, ...]

    @property
    def num_elements(self) -> int:
        """Elements of the item; an AND item's are its planes' bits."""
        return item_elements(self.kind, self.shape)

    def material_bytes(self, ring: FixedPointRing, word_bytes: int = 0) -> int:
        """Bytes of randomness material the dealer ships for this request
        (:func:`repro.crypto.dealer.material_bytes`)."""
        return material_bytes(ring, self.kind, self.shape, word_bytes)


@dataclass(frozen=True)
class OpTrace:
    """Ordered randomness requests and grouped wire messages of one op.

    ``groups`` holds one entry per round group the protocol's phase
    generator yields, in yield order; each group holds its events' messages.
    The flat sequential view (:attr:`messages`) concatenates every event's
    ``(sender, num_bytes)`` messages in transmission order, mirroring exactly
    what a *sequential* execution logs; the coalesced view
    (:attr:`scheduled_messages`) emits at most one message per direction per
    group, mirroring what a round-coalescing execution logs.
    ``unpacked_bytes`` is the messages' total with every uint8 element a
    full byte — what the packed wire format saves against.
    """

    requests: Tuple[RandomnessRequest, ...] = ()
    groups: Tuple[TraceGroup, ...] = ()
    unpacked_bytes: int = 0

    # -- views -------------------------------------------------------------- #
    @property
    def messages(self) -> List[Tuple[int, int]]:
        """Flat ``(sender, num_bytes)`` sequence of a sequential execution."""
        return [
            message
            for group in self.groups
            for event in group
            for message in event
        ]

    @property
    def scheduled_messages(self) -> List[Tuple[int, int]]:
        """Per-direction message sequence of a round-coalesced execution."""
        return scheduled_messages_of_groups(self.groups)

    # -- aggregates -------------------------------------------------------- #
    @property
    def online_bytes(self) -> int:
        return sum(num_bytes for _, num_bytes in self.messages)

    @property
    def rounds(self) -> int:
        """Sequential round count: direction changes + 1 (the
        :class:`CommunicationLog` convention) — what the oracle logs; the
        scheduled count is :attr:`scheduled_rounds`."""
        return trace_rounds(self.messages)

    @property
    def scheduled_rounds(self) -> int:
        """Round count after intra-op coalescing (one frame per direction
        per yielded group)."""
        return trace_rounds(self.scheduled_messages)


def group_direction_totals(group) -> Tuple[int, int]:
    """Summed ``(bytes_from_0, bytes_from_1)`` of one traced round group.

    The single accounting rule shared by the plan's round trace, the
    scheduled-message view and the round scheduler — they must agree or the
    payload==manifest invariant drifts.
    """
    totals = [0, 0]
    for event in group:
        for sender, num_bytes in event:
            totals[sender] += num_bytes
    return totals[0], totals[1]


def scheduled_messages_of_groups(groups) -> List[Tuple[int, int]]:
    """Coalesced ``(sender, num_bytes)`` stream: per group, per direction,
    one summed message (S0's first — the canonical exchange order)."""
    out: List[Tuple[int, int]] = []
    for group in groups:
        totals = group_direction_totals(group)
        for sender in (0, 1):
            if totals[sender]:
                out.append((sender, totals[sender]))
    return out


def trace_rounds(messages) -> int:
    """Round count of a ``(sender, bytes)`` message sequence."""
    senders = [sender for sender, _ in messages]
    if not senders:
        return 0
    return 1 + sum(1 for a, b in zip(senders, senders[1:]) if a != b)


#: phases(ctx, layer, params, x, cache) -> Generator[RoundGroup, results, SharePair]
PhasesFn = Callable[..., object]
#: infer_shape(layer, input_shape) -> output_shape
InferShapeFn = Callable[[LayerSpec, Tuple[int, ...]], Tuple[int, ...]]


@dataclass(frozen=True)
class ProtocolHandler:
    """The registered facets of a kind; ``yields`` is False for a handler
    registered as a plain (communication-free) function."""

    kind: LayerKind
    phases: PhasesFn
    infer_shape: InferShapeFn
    yields: bool


_HANDLERS: Dict[LayerKind, ProtocolHandler] = {}


def _as_phases(fn: Callable) -> PhasesFn:
    """Wrap a communication-free plain handler as a (yield-less) generator."""
    if inspect.isgeneratorfunction(fn):
        return fn

    def phases(*args, **kwargs):
        return fn(*args, **kwargs)
        yield  # pragma: no cover — unreachable; makes this a generator fn

    phases.__name__ = getattr(fn, "__name__", "phases")
    phases.__doc__ = fn.__doc__
    return phases


def register_protocol(
    kind: LayerKind, *, infer_shape: InferShapeFn
) -> Callable[[Callable], Callable]:
    """Decorator registering ``fn`` as the online protocol for ``kind``.

    ``fn`` is either a phase generator (interactive protocols) or a plain
    function (communication-free ops), which is wrapped as a yield-less
    generator so every driver sees one interface.
    """

    def decorate(fn: Callable) -> Callable:
        if kind in _HANDLERS:
            raise ValueError(f"protocol handler for {kind} already registered")
        _HANDLERS[kind] = ProtocolHandler(
            kind=kind,
            phases=_as_phases(fn),
            infer_shape=infer_shape,
            yields=inspect.isgeneratorfunction(fn),
        )
        return fn

    return decorate


def get_handler(kind: LayerKind) -> ProtocolHandler:
    """Look up the handler for a layer kind (loading the registrations)."""
    _ensure_registered()
    try:
        return _HANDLERS[kind]
    except KeyError as exc:
        raise KeyError(
            f"no 2PC protocol handler registered for layer kind {kind}; "
            f"registered: {sorted(k.value for k in _HANDLERS)}"
        ) from exc


def registered_kinds() -> Tuple[LayerKind, ...]:
    _ensure_registered()
    return tuple(sorted(_HANDLERS, key=lambda k: k.value))


def _ensure_registered() -> None:
    # The handlers live at the bottom of the protocol modules; importing the
    # package runs every ``@register_protocol`` decorator exactly once.
    import repro.crypto.protocols  # noqa: F401


# -- shared shape helpers -------------------------------------------------- #
def same_shape(layer: LayerSpec, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(input_shape)
