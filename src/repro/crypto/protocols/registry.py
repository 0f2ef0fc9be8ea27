"""Protocol registry: the dispatch and accounting contract of the plan runtime.

Every layer kind that can be executed under 2PC registers a
:class:`ProtocolHandler` here (see the ``@register_protocol`` decorators at
the bottom of the modules in :mod:`repro.crypto.protocols`).  A handler
bundles the facets the compiler and runtime need:

- ``phases`` — the online protocol as a *phase generator*: local computation
  punctuated by ``yield``\\ ed round groups of
  :class:`~repro.crypto.events.CommEvent`.  The driver (not the handler)
  decides how each group hits the wire: coalesced into shared rounds by the
  plan scheduler (the runtime), or event by event by the sequential oracle
  (:func:`repro.crypto.events.run_reference`);
- ``infer_shape`` — static shape inference used by the plan compiler;
- ``trace`` — the *exact* offline/online cost of one invocation: the ordered
  correlated-randomness requests and the **grouped** wire messages.  Trace
  groups mirror the generator's yield groups one for one, which is what lets
  the compiler schedule rounds without running the protocol.

Because ``trace`` is declared next to ``phases`` in the same module, the
preprocessing manifest and the byte accounting of a compiled plan are exact
by construction: the trace lists requests/messages in the same order the
protocol performs them, so an offline phase that generates randomness in
trace order produces the identical dealer stream lazy draws would have.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.crypto.events import packed_num_bytes
from repro.crypto.ring import FixedPointRing
from repro.models.specs import LayerKind, LayerSpec

#: one traced wire event: the ``(sender, num_bytes)`` messages it emits.  An
#: opening is bidirectional (two messages, S0's first); a transfer is one.
TraceEvent = Tuple[Tuple[int, int], ...]
#: one traced round group: events that may share a coalesced round
TraceGroup = Tuple[TraceEvent, ...]


def open_trace_event(num_bytes: int) -> TraceEvent:
    """A bidirectional opening of ``num_bytes`` per direction."""
    return ((0, int(num_bytes)), (1, int(num_bytes)))


def send_trace_event(sender: int, num_bytes: int) -> TraceEvent:
    """A one-directional transfer."""
    return ((int(sender), int(num_bytes)),)


def packed_payload_bytes(num_elements: int, element_bits: int) -> int:
    """Wire bytes of a packed sub-byte payload — the trace-side alias of
    :func:`repro.crypto.events.packed_num_bytes` (``ceil`` per array), so
    the trace helpers cannot drift from the channel accounting rule."""
    return packed_num_bytes(num_elements, element_bits)


def open_bits_trace_event(num_elements: int, element_bits: int = 1) -> TraceEvent:
    """A bidirectional bit opening, packed at ``element_bits`` per element."""
    return open_trace_event(packed_payload_bytes(num_elements, element_bits))


@dataclass(frozen=True)
class RandomnessRequest:
    """One unit of correlated randomness an online protocol will consume.

    ``kind`` is one of ``"triple"`` (elementwise Beaver triple), ``"square"``
    (Beaver pair for the square protocol), ``"bit"`` (GMW AND bit triple) or
    ``"dabit"`` (a doubly-shared random bit: XOR shares plus arithmetic
    shares of the same bit, consumed by the one-round B2A conversion);
    ``shape`` is the tensor shape of the request.  Elementwise triples have
    identical operand shapes, which is the only triple form the model-zoo
    protocols consume (public-weight convolution and linear layers need no
    triples at all).
    """

    kind: str
    shape: Tuple[int, ...]

    @property
    def num_elements(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def material_bytes(self, ring: FixedPointRing) -> int:
        """Bytes of randomness material the dealer ships for this request.

        A Beaver triple is three shared tensors (two shares each), a square
        pair two, a bit triple six one-byte bit arrays, a daBit one bit byte
        plus one ring element per party.
        """
        eb = ring.ring_bits // 8
        if self.kind == "triple":
            return 6 * self.num_elements * eb
        if self.kind == "square":
            return 4 * self.num_elements * eb
        if self.kind == "bit":
            return 6 * self.num_elements
        if self.kind == "dabit":
            return 2 * self.num_elements * (1 + eb)
        raise ValueError(f"unknown randomness request kind {self.kind!r}")


@dataclass
class OpTrace:
    """Ordered randomness requests and grouped wire messages of one op.

    ``groups`` holds one entry per round group the protocol's phase
    generator yields, in yield order; each group holds its events' messages.
    The flat sequential view (:attr:`messages`) concatenates every event's
    ``(sender, num_bytes)`` messages in transmission order, mirroring exactly
    what a *sequential* execution logs; the coalesced view
    (:attr:`scheduled_messages`) emits at most one message per direction per
    group, mirroring what a round-coalescing execution logs.
    """

    requests: List[RandomnessRequest] = field(default_factory=list)
    groups: List[TraceGroup] = field(default_factory=list)

    # -- builders ---------------------------------------------------------- #
    def request(self, kind: str, shape: Tuple[int, ...]) -> "OpTrace":
        self.requests.append(RandomnessRequest(kind, tuple(shape)))
        return self

    def send(self, sender: int, num_bytes: int) -> "OpTrace":
        """One transfer in a round group of its own."""
        self.groups.append((send_trace_event(sender, num_bytes),))
        return self

    def exchange(self, num_bytes: int) -> "OpTrace":
        """Both directions, S0 first — one opening in a group of its own."""
        self.groups.append((open_trace_event(num_bytes),))
        return self

    def group(self, events: List[TraceEvent]) -> "OpTrace":
        """One round group of independent events (coalescible together)."""
        if events:
            self.groups.append(tuple(events))
        return self

    def extend(self, other: "OpTrace") -> "OpTrace":
        self.requests.extend(other.requests)
        self.groups.extend(other.groups)
        return self

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

    The single accounting rule shared by the manifest round trace, the
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
#: trace(layer, input_shape, ring) -> OpTrace
TraceFn = Callable[[LayerSpec, Tuple[int, ...], FixedPointRing], OpTrace]


@dataclass(frozen=True)
class ProtocolHandler:
    """The registered (phases, infer_shape, trace) facets of a kind."""

    kind: LayerKind
    phases: PhasesFn
    infer_shape: InferShapeFn
    trace: TraceFn


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
    kind: LayerKind, *, infer_shape: InferShapeFn, trace: TraceFn
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
            trace=trace,
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


# -- shared trace helpers ---------------------------------------------------- #
def element_bytes(ring: FixedPointRing) -> int:
    """On-the-wire size of one ring element (matches the channel accounting)."""
    return ring.ring_bits // 8


def no_trace(layer: LayerSpec, input_shape: Tuple[int, ...], ring: FixedPointRing) -> OpTrace:
    """Trace of a communication-free local op (conv/linear/avgpool/...)."""
    return OpTrace()


def same_shape(layer: LayerSpec, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(input_shape)
