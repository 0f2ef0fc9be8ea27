"""Plan IR: compiled secure-inference programs with preprocessing manifests.

This module is the compiler of the plan-based 2PC runtime (the executable
counterpart of the paper's Fig. 3 deployment, split into an offline and an
online phase):

- :func:`compile_plan` lowers a :class:`repro.models.specs.ModelSpec` into an
  :class:`InferencePlan` — a **chain** of :class:`PlanOp` protocol ops in
  layer order, each reading its predecessor's output (ADD ops also read
  their earlier residual source).  The plan is its own schedule: the
  executor (:func:`repro.crypto.scheduler.run_scheduled_plan`) walks the
  ops in order and puts one round on the wire per round group;
- every op carries its exact :class:`~repro.crypto.protocols.registry.OpTrace`
  (ordered correlated-randomness requests and **grouped** wire messages,
  one group per round group its phase generator yields), recorded by
  running that generator once (:func:`trace_op`, the third driver of a
  phase generator next to :func:`~repro.crypto.events.run_phases` and
  :func:`~repro.crypto.scheduler.run_scheduled_plan`), so the plan's
  byte/round predictions match the executed
  :class:`~repro.crypto.channel.CommunicationLog` exactly — both the
  executor's and the sequential oracle's;
- the per-plan :class:`PreprocessingManifest` aggregates those requests into
  the exact Beaver-triple / square-pair / bit-triple counts and byte volumes
  the offline phase must produce (see
  :meth:`repro.crypto.dealer.TrustedDealer.preprocess`); the plan itself
  holds the online phase's exact per-round byte trace
  (:attr:`InferencePlan.round_trace`).

Round accounting has three numbers, all exact:

- ``online_rounds`` — the **scheduled** count: the direction-flip count a
  round-coalescing execution of the plan logs (independent openings of one
  round group share one framed message per direction);
- ``oracle_rounds`` — the trace-derived sequential count (every
  opening its own exchange): the direction-flip count the sequential
  oracle (:func:`repro.crypto.events.run_reference`) logs;
- ``num_rounds`` — the number of round groups: the link traversals on a
  job's critical path (a two-way round is one full-duplex exchange).

The same per-op traces are the single source of truth consumed by the hardware
layer (:func:`repro.hardware.comm.communication_report` with ``plan=`` and
the plan-sourced latency LUT) so the NAS latency penalty and the executable
engine can no longer drift apart in their per-op communication accounting.

Typical use::

    plan = compile_plan(spec, batch_size=8)          # offline: compile once
    pool = ctx.dealer.preprocess(plan)               # offline: gen randomness
    engine = SecureInferenceEngine(ctx)
    result = engine.execute(plan, weights, queries, pool=pool)   # online
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import TrustedDealer
from repro.crypto.events import as_group, event_payload_arrays, payload_num_bytes
from repro.crypto.kernels import KernelContext, dead_lane
from repro.crypto.protocols.registry import (
    OpTrace,
    RandomnessRequest,
    TraceGroup,
    get_handler,
    group_direction_totals,
    scheduled_messages_of_groups,
    trace_rounds,
)
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.sharing import SharePair
from repro.models.specs import LayerKind, LayerSpec, ModelSpec


@dataclass(frozen=True)
class PlanOp:
    """One protocol op of a compiled plan.

    Carries the originating :class:`LayerSpec`, the statically inferred
    input/output shapes (batch dimension included) and the op's exact
    offline/online trace; ``round_groups`` holds its wire messages grouped
    by round: one group per round its phase generator yields, each group
    holding the ``(sender, num_bytes)`` messages of its independent events.
    ``unpacked_bytes`` is what those messages would cost with every uint8
    element a full byte (:attr:`OpTrace.unpacked_bytes`).
    """

    name: str
    kind: LayerKind
    layer: LayerSpec
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    requests: Tuple[RandomnessRequest, ...]
    round_groups: Tuple[TraceGroup, ...] = ()
    unpacked_bytes: int = 0

    @property
    def messages(self) -> List[Tuple[int, int]]:
        """Flat ``(sender, num_bytes)`` sequence of a sequential execution."""
        return [message for group in self.round_groups for event in group for message in event]

    @property
    def online_bytes(self) -> int:
        """Exact online communication of this op (both directions)."""
        return sum(
            num_bytes for group in self.round_groups for event in group for _, num_bytes in event
        )

    @property
    def scheduled_messages(self) -> List[Tuple[int, int]]:
        """Per-direction message stream of a round-coalesced execution."""
        return scheduled_messages_of_groups(self.round_groups)

    @property
    def online_rounds(self) -> int:
        """Scheduled round count (post-coalescing) of this op."""
        return trace_rounds(self.scheduled_messages)

    @property
    def oracle_rounds(self) -> int:
        """Trace-derived sequential round count (every opening its own
        exchange) — what the oracle logs for this op."""
        return trace_rounds(self.messages)

    @property
    def interactive(self) -> bool:
        return bool(self.messages)

    def randomness_elements(self, kind: str) -> int:
        return sum(r.num_elements for r in self.requests if r.kind == kind)


@dataclass(frozen=True)
class PreprocessingManifest:
    """Exact correlated-randomness demand of one execution: the offline
    phase.  The online phase's traffic is the plan's (see
    :attr:`InferencePlan.round_trace`).

    ``requests`` preserves global consumption order — the offline phase must
    generate in this order for the dealer's random stream to be identical to
    what a lazy (interpretive) execution would have drawn.
    """

    requests: Tuple[RandomnessRequest, ...]
    ring: FixedPointRing

    # -- aggregate counts --------------------------------------------------- #
    def elements(self, kind: str) -> int:
        return sum(r.num_elements for r in self.requests if r.kind == kind)

    @property
    def triple_elements(self) -> int:
        """Beaver-triple elements (Eq. 2 products of two shared tensors)."""
        return self.elements("triple")

    @property
    def square_pair_elements(self) -> int:
        """Beaver-pair elements for the square protocol (Eq. 3)."""
        return self.elements("square")

    @property
    def bit_triple_elements(self) -> int:
        """AND-item plane bits (masks and mask products, per party) of the
        comparison tree; the name predates multi-input AND items."""
        return self.elements("bit")

    @property
    def dabit_elements(self) -> int:
        """daBits (with their half-triples) consumed by the one-round select."""
        return self.elements("dabit")

    @property
    def material_bytes(self) -> int:
        """Total bytes of randomness material the dealer ships offline."""
        return sum(r.material_bytes(self.ring) for r in self.requests)

    @property
    def party_pool_bytes(self) -> int:
        """Bytes one party's pool pins: its half of the material, with every
        ring element held as a uint64 word whatever the ring's width."""
        return sum(r.material_bytes(self.ring, word_bytes=8) for r in self.requests) // 2

    # -- grouping / identity -------------------------------------------------- #
    def grouped_requests(self) -> List[Tuple[str, Tuple[int, ...], int]]:
        """Requests grouped per (kind, shape), in first-occurrence order.

        The offline phase generates each group from its own seeded
        substream and the pool serves each (kind, shape) stack in row
        order, so the grouped counts — not the interleaving — fully
        determine the material.
        """
        counts: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        for request in self.requests:
            key = (request.kind, tuple(request.shape))
            counts[key] = counts.get(key, 0) + 1
        return [(kind, shape, count) for (kind, shape), count in counts.items()]

    @property
    def content_hash(self) -> str:
        """Content hash of the randomness material this manifest demands.

        Hashes the ring parameters and the grouped (kind, shape, count)
        requests — the exact inputs of pool generation — so two manifests
        with the same hash consume interchangeable pool buffers.  A pool
        carries it as ``manifest_hash``, which its exhaustion errors name.
        """
        digest = hashlib.sha256()
        digest.update(f"pool-material/v1:{self.ring.ring_bits}:{self.ring.frac_bits}".encode())
        for kind, shape, count in self.grouped_requests():
            digest.update(f";{kind}:{','.join(str(d) for d in shape)}x{count}".encode())
        return digest.hexdigest()[:16]

    def summary(self) -> Dict[str, int]:
        return {
            "triple_elements": self.triple_elements,
            "square_pair_elements": self.square_pair_elements,
            "bit_triple_elements": self.bit_triple_elements,
            "dabit_elements": self.dabit_elements,
            "material_bytes": self.material_bytes,
        }


@dataclass(frozen=True)
class InferencePlan:
    """A compiled secure-inference program for one model and batch size.

    ``ops`` is the layer order of the source spec, which is also the
    execution order: each op reads its predecessor's output.
    """

    model_name: str
    batch_size: int
    ring: FixedPointRing
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    ops: Tuple[PlanOp, ...]

    def __iter__(self) -> Iterator[PlanOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def op(self, name: str) -> PlanOp:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(f"no op named {name!r} in plan for {self.model_name}")

    # -- manifest / predictions -------------------------------------------- #
    @property
    def manifest(self) -> PreprocessingManifest:
        requests = tuple(request for op in self.ops for request in op.requests)
        return PreprocessingManifest(requests=requests, ring=self.ring)

    @property
    def round_trace(self) -> Tuple[Tuple[int, int], ...]:
        """Exact per-round byte trace ``(bytes_from_0, bytes_from_1)`` of
        the online phase, one entry per round group."""
        return tuple(
            group_direction_totals(group) for op in self.ops for group in op.round_groups
        )

    @property
    def online_bytes(self) -> int:
        """Exact predicted online communication (matches the channel log)."""
        return sum(op.online_bytes for op in self.ops)

    @property
    def unpacked_online_bytes(self) -> int:
        """:attr:`online_bytes` with every uint8 element a full byte: the
        counterfactual the packed wire format's ``bytes_saved_pct`` compares
        against."""
        return sum(op.unpacked_bytes for op in self.ops)

    @property
    def online_rounds(self) -> int:
        """Scheduled round count: what a round-coalescing execution of this
        plan logs (ops in order, each op's round groups coalesced)."""
        return trace_rounds(
            [m for op in self.ops for m in op.scheduled_messages]
        )

    @property
    def oracle_rounds(self) -> int:
        """Sequential round count: direction changes + 1 over all messages
        of an uncoalesced execution (the :class:`CommunicationLog.rounds`
        convention) — what the oracle logs."""
        return trace_rounds([m for op in self.ops for m in op.messages])

    @property
    def num_rounds(self) -> int:
        """Round groups of the plan: the link traversals on a job's critical
        path (a link of one-way latency ``L`` costs ``num_rounds × L``)."""
        return sum(len(op.round_groups) for op in self.ops)

    def per_op_bytes(self) -> Dict[str, int]:
        return {op.name: op.online_bytes for op in self.ops}

    def per_op_summary(self) -> List[Dict[str, object]]:
        """Per-op accounting rows (for reports and the examples)."""
        return [
            {
                "op": op.name,
                "kind": op.kind.value,
                "output_shape": op.output_shape,
                "online_bytes": op.online_bytes,
                "triples": op.randomness_elements("triple"),
                "squares": op.randomness_elements("square"),
                "bit_triples": op.randomness_elements("bit"),
                "dabits": op.randomness_elements("dabit"),
            }
            for op in self.ops
        ]


class _RecordingDealer(TrustedDealer):
    """The dealer of a recording run: notes each item's request, then draws
    it as usual."""

    def __init__(self, ring: FixedPointRing) -> None:
        super().__init__(ring)
        self.requests: List[RandomnessRequest] = []

    def draw(self, kind: str, shape: Tuple[int, ...]):
        self.requests.append(RandomnessRequest(kind, tuple(shape)))
        return super().draw(kind, shape)


def record_phases(
    start: Callable[[TwoPartyContext], object],
    ring: FixedPointRing = DEFAULT_RING,
    live: Optional[int] = 1,
) -> Tuple[OpTrace, object]:
    """Run the phase generator ``start(ctx)`` once and record its trace.

    ``ctx`` is a throwaway context holding share lane ``live`` (None for
    both) and a dealer that records every item drawn.  Each yielded round
    group becomes one trace group, its events' bytes counted by the
    channel's own rule (:func:`~repro.crypto.events.payload_num_bytes`) —
    and once more at a byte per uint8 element, summed into
    ``unpacked_bytes`` — and is answered with zero arrays of the results'
    shapes.  Returns the trace and the generator's return value.
    """
    dealer = _RecordingDealer(ring)
    ctx = TwoPartyContext(ring=ring, dealer=dealer, kernels=KernelContext(live=live))
    gen = start(ctx)
    element_bytes = ring.ring_bits // 8
    groups: List[TraceGroup] = []
    unpacked_bytes = 0
    answers = None
    while True:
        try:
            group = as_group(gen.send(answers))
        except StopIteration as stop:
            return OpTrace(tuple(dealer.requests), tuple(groups), unpacked_bytes), stop.value
        groups.append(
            tuple(
                tuple(
                    (sender, payload_num_bytes(array, element_bytes, event.element_bits))
                    for sender, array in event_payload_arrays(event)
                )
                for event in group
            )
        )
        unpacked_bytes += sum(
            payload_num_bytes(array, element_bytes)
            for event in group
            for _, array in event_payload_arrays(event)
        )
        answers = tuple(np.zeros(e.payload0.shape, e.payload0.dtype) for e in group)


@functools.lru_cache(maxsize=1024)
def trace_op(
    layer: LayerSpec, input_shape: Tuple[int, ...], ring: FixedPointRing = DEFAULT_RING
) -> OpTrace:
    """The exact trace of one op at ``input_shape``: its phase generator
    recorded on lane 1 alone (S0's OT pads and table are never built), or
    the empty trace of a handler registered as a plain function.  A trace
    depends on nothing else, so it is recorded once per process."""
    handler = get_handler(layer.kind)
    if not handler.yields:
        return OpTrace()
    shape = tuple(input_shape)
    x = SharePair(dead_lane(shape), np.zeros(shape, np.uint64), ring)
    trace, out = record_phases(lambda ctx: handler.phases(ctx, layer, {}, x, {}), ring)
    expected = tuple(handler.infer_shape(layer, shape))
    if out.shape != expected:
        raise RuntimeError(
            f"layer {layer.name!r}: recorded output shape {out.shape} differs "
            f"from the inferred {expected}"
        )
    return trace


def compile_plan(
    spec: ModelSpec,
    batch_size: int = 1,
    ring: Optional[FixedPointRing] = None,
) -> InferencePlan:
    """Lower a model spec into an executable plan with static shapes.

    Shape inference threads the (batched) activation shape through the
    registry handlers; each op's trace is recorded at its concrete input
    shape (:func:`trace_op`), which makes the preprocessing manifest and
    byte accounting exact for the given batch size.  An ADD op's residual
    source must name an earlier layer of the same shape; anything else
    fails here, at compile time.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    ring = ring or DEFAULT_RING
    shape: Tuple[int, ...] = (
        batch_size,
        spec.in_channels,
        spec.input_size,
        spec.input_size,
    )
    input_shape = shape
    ops: List[PlanOp] = []
    shapes: Dict[str, Tuple[int, ...]] = {}
    for layer in spec.layers:
        handler = get_handler(layer.kind)
        out_shape = tuple(handler.infer_shape(layer, shape))
        if layer.kind == LayerKind.ADD:
            # infer_shape already rejected empty residual_from; a dangling or
            # forward reference must fail here, at compile time, not as a
            # KeyError halfway through the online phase.
            if layer.residual_from not in shapes:
                raise ValueError(
                    f"layer {layer.name!r}: residual_from references "
                    f"{layer.residual_from!r}, which is not an earlier layer"
                )
            residual_shape = shapes[layer.residual_from]
            if residual_shape != out_shape:
                raise ValueError(
                    f"layer {layer.name!r}: residual shape {residual_shape} "
                    f"does not match main-path shape {out_shape}"
                )
        trace = trace_op(layer, shape, ring)
        ops.append(
            PlanOp(
                name=layer.name,
                kind=layer.kind,
                layer=layer,
                input_shape=shape,
                output_shape=out_shape,
                requests=trace.requests,
                round_groups=trace.groups,
                unpacked_bytes=trace.unpacked_bytes,
            )
        )
        shapes[layer.name] = out_shape
        shape = out_shape
    return InferencePlan(
        model_name=spec.name,
        batch_size=batch_size,
        ring=ring,
        input_shape=input_shape,
        output_shape=shape,
        ops=tuple(ops),
    )
