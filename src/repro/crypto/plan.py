"""Plan IR: compiled secure-inference programs with preprocessing manifests.

This module is the compiler of the plan-based 2PC runtime (the executable
counterpart of the paper's Fig. 3 deployment, split into an offline and an
online phase):

- :func:`compile_plan` lowers a :class:`repro.models.specs.ModelSpec` into an
  :class:`InferencePlan` — a **graph** of :class:`PlanOp` protocol ops.
  Every op carries explicit value defs/uses (it *defines* its layer name and
  *uses* the names of the ops whose outputs it reads), so the plan is a DAG
  the optimizer passes in :mod:`repro.crypto.passes` can reason about, not
  just a flat list;
- every op carries its exact :class:`~repro.crypto.protocols.registry.OpTrace`
  (ordered correlated-randomness requests and **grouped** wire messages,
  mirroring the round groups its phase generator yields), declared by the
  protocol handlers themselves, so the plan's byte/round predictions match
  the executed :class:`~repro.crypto.channel.CommunicationLog` exactly —
  in both the sequential and the round-coalescing execution mode;
- the per-plan :class:`PreprocessingManifest` aggregates those requests into
  the exact Beaver-triple / square-pair / bit-triple counts and byte volumes
  the offline phase must produce (see
  :meth:`repro.crypto.dealer.TrustedDealer.preprocess`) plus the exact
  per-round byte trace of the online phase.

Round accounting has two flavours, both exact:

- ``online_rounds`` — the **scheduled** count: what a round-coalescing
  execution of the plan logs (independent openings of one round group share
  one framed message per direction);
- ``oracle_rounds`` — the trace-derived sequential count (every
  opening its own exchange): the direction-flip count the sequential
  oracle (:func:`repro.crypto.events.run_reference`) logs.

The same manifest is the single source of truth consumed by the hardware
layer (:func:`repro.hardware.comm.communication_report` with ``plan=`` and
the plan-sourced latency LUT) so the NAS latency penalty and the executable
engine can no longer drift apart in their per-op communication accounting.

Typical use::

    plan = compile_plan(spec, batch_size=8)          # offline: compile once
    splan = optimize_plan(plan)                      # offline: pass pipeline
    pool = ctx.dealer.preprocess(splan)              # offline: gen randomness
    engine = SecureInferenceEngine(ctx)
    result = engine.execute(splan, weights, queries, pool=pool)   # online
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

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
from repro.models.specs import LayerKind, LayerSpec, ModelSpec

#: the value name of the client query batch (the plan's only external input)
PLAN_INPUT = "@input"

#: serialization format tag of :meth:`InferencePlan.to_dict`
PLAN_FORMAT = "inference-plan/v1"


@dataclass(frozen=True)
class PlanOp:
    """One protocol op of a compiled plan graph.

    Carries the originating :class:`LayerSpec`, the statically inferred
    input/output shapes (batch dimension included), the op's exact
    offline/online trace, and its dataflow edges:

    - ``uses`` — the value names this op reads (:data:`PLAN_INPUT` or the
      names of earlier ops; ADD ops additionally use their residual source);
    - ``deps`` — the same edges as op indices (excluding the plan input);
    - ``round_groups`` — the op's wire messages grouped by round: one group
      per round its phase generator yields, each group holding the
      ``(sender, num_bytes)`` messages of its independent events.
    """

    index: int
    name: str
    kind: LayerKind
    layer: LayerSpec
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    requests: Tuple[RandomnessRequest, ...]
    messages: Tuple[Tuple[int, int], ...]
    uses: Tuple[str, ...] = ()
    deps: Tuple[int, ...] = ()
    round_groups: Tuple[TraceGroup, ...] = ()

    @property
    def defines(self) -> str:
        """The value name this op defines (its layer name)."""
        return self.name

    @property
    def online_bytes(self) -> int:
        """Exact online communication of this op (both directions)."""
        return sum(num_bytes for _, num_bytes in self.messages)

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


#: one scheduled round of a manifest trace: (bytes from S0, bytes from S1)
RoundTrace = Tuple[int, int]


def round_trace_messages(round_trace: Tuple[RoundTrace, ...]) -> List[Tuple[int, int]]:
    """Expand a per-round byte trace into the canonical message stream."""
    messages: List[Tuple[int, int]] = []
    for bytes_from_0, bytes_from_1 in round_trace:
        if bytes_from_0:
            messages.append((0, bytes_from_0))
        if bytes_from_1:
            messages.append((1, bytes_from_1))
    return messages


@dataclass(frozen=True)
class PreprocessingManifest:
    """Exact correlated-randomness and communication demand of one execution.

    ``requests`` preserves global consumption order — the offline phase must
    generate in this order for the dealer's random stream to be identical to
    what a lazy (interpretive) execution would have drawn.

    ``messages`` is the flat sequential wire trace; ``round_trace`` is the
    exact per-round byte trace ``(bytes_from_0, bytes_from_1)`` of the
    scheduled execution the manifest was computed for.  For an optimized
    :class:`~repro.crypto.passes.ScheduledPlan` the round trace is recomputed
    from the coalesced schedule, so both byte *and* round predictions stay
    exact after optimization.
    """

    requests: Tuple[RandomnessRequest, ...]
    ring: FixedPointRing
    messages: Tuple[Tuple[int, int], ...] = ()
    round_trace: Tuple[RoundTrace, ...] = ()

    # -- aggregate counts --------------------------------------------------- #
    def elements(self, kind: str) -> int:
        return sum(r.num_elements for r in self.requests if r.kind == kind)

    @property
    def triple_elements(self) -> int:
        """Beaver-triple elements (Eq. 2 products, incl. B2A and multiplex)."""
        return self.elements("triple")

    @property
    def square_pair_elements(self) -> int:
        """Beaver-pair elements for the square protocol (Eq. 3)."""
        return self.elements("square")

    @property
    def bit_triple_elements(self) -> int:
        """GMW AND-gate bit triples of the comparison circuit."""
        return self.elements("bit")

    @property
    def dabit_elements(self) -> int:
        """Doubly-shared random bits consumed by the one-round B2A."""
        return self.elements("dabit")

    @property
    def material_bytes(self) -> int:
        """Total bytes of randomness material the dealer ships offline."""
        return sum(r.material_bytes(self.ring) for r in self.requests)

    # -- grouping / identity -------------------------------------------------- #
    def grouped_requests(self) -> List[Tuple[str, Tuple[int, ...], int]]:
        """Requests grouped per (kind, shape), in first-occurrence order.

        The offline phase generates each group from its own seeded
        substream and the pool pops per-(kind, shape) FIFOs, so the grouped
        counts — not the interleaving — fully determine the material.
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
        with the same hash consume interchangeable pool buffers.  This is
        the inventory key of the offline factory.
        """
        digest = hashlib.sha256()
        digest.update(f"pool-material/v1:{self.ring.ring_bits}:{self.ring.frac_bits}".encode())
        for kind, shape, count in self.grouped_requests():
            digest.update(f";{kind}:{','.join(str(d) for d in shape)}x{count}".encode())
        return digest.hexdigest()[:16]

    # -- online communication ----------------------------------------------- #
    @property
    def online_bytes(self) -> int:
        return sum(num_bytes for _, num_bytes in self.messages)

    @property
    def online_rounds(self) -> int:
        """Scheduled (post-coalescing) round count of the online phase."""
        return trace_rounds(round_trace_messages(self.round_trace))

    @property
    def oracle_rounds(self) -> int:
        """Sequential trace-derived round count — what the oracle logs."""
        return trace_rounds(self.messages)

    def summary(self) -> Dict[str, int]:
        return {
            "triple_elements": self.triple_elements,
            "square_pair_elements": self.square_pair_elements,
            "bit_triple_elements": self.bit_triple_elements,
            "dabit_elements": self.dabit_elements,
            "material_bytes": self.material_bytes,
            "online_bytes": self.online_bytes,
            "online_rounds": self.online_rounds,
            "oracle_rounds": self.oracle_rounds,
        }


@dataclass(frozen=True)
class InferencePlan:
    """A compiled secure-inference program for one model and batch size.

    ``ops`` is stored in a topological order (the layer order of the source
    spec); the dataflow DAG lives in each op's ``uses``/``deps`` edges.
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
        requests: List[RandomnessRequest] = []
        messages: List[Tuple[int, int]] = []
        round_trace: List[RoundTrace] = []
        for op in self.ops:
            requests.extend(op.requests)
            messages.extend(op.messages)
            for group in op.round_groups:
                round_trace.append(group_direction_totals(group))
        return PreprocessingManifest(
            requests=tuple(requests),
            ring=self.ring,
            messages=tuple(messages),
            round_trace=tuple(round_trace),
        )

    @property
    def online_bytes(self) -> int:
        """Exact predicted online communication (matches the channel log)."""
        return sum(op.online_bytes for op in self.ops)

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

    # -- (de)serialization --------------------------------------------------- #
    def to_dict(self) -> Dict:
        """JSON-serializable form of the compiled plan graph."""
        return {
            "format": PLAN_FORMAT,
            "model_name": self.model_name,
            "batch_size": self.batch_size,
            "ring": {"ring_bits": self.ring.ring_bits, "frac_bits": self.ring.frac_bits},
            "input_shape": list(self.input_shape),
            "output_shape": list(self.output_shape),
            "ops": [_op_to_dict(op) for op in self.ops],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "InferencePlan":
        if data.get("format") != PLAN_FORMAT:
            raise ValueError(
                f"unsupported plan format {data.get('format')!r}; "
                f"expected {PLAN_FORMAT!r}"
            )
        ring = FixedPointRing(
            ring_bits=int(data["ring"]["ring_bits"]),
            frac_bits=int(data["ring"]["frac_bits"]),
        )
        return cls(
            model_name=data["model_name"],
            batch_size=int(data["batch_size"]),
            ring=ring,
            input_shape=tuple(data["input_shape"]),
            output_shape=tuple(data["output_shape"]),
            ops=tuple(_op_from_dict(entry, ring) for entry in data["ops"]),
        )


def _op_to_dict(op: PlanOp) -> Dict:
    return {
        "index": op.index,
        "name": op.name,
        "kind": op.kind.value,
        "layer": op.layer.to_dict(),
        "input_shape": list(op.input_shape),
        "output_shape": list(op.output_shape),
        "uses": list(op.uses),
        "deps": list(op.deps),
        "requests": [
            {"kind": r.kind, "shape": list(r.shape)} for r in op.requests
        ],
        "round_groups": [
            [[[sender, num_bytes] for sender, num_bytes in event] for event in group]
            for group in op.round_groups
        ],
    }


def _op_from_dict(data: Dict, ring: FixedPointRing) -> PlanOp:
    layer = LayerSpec.from_dict(data["layer"])
    round_groups = tuple(
        tuple(
            tuple((int(sender), int(num_bytes)) for sender, num_bytes in event)
            for event in group
        )
        for group in data["round_groups"]
    )
    messages = tuple(
        message for group in round_groups for event in group for message in event
    )
    return PlanOp(
        index=int(data["index"]),
        name=data["name"],
        kind=LayerKind(data["kind"]),
        layer=layer,
        input_shape=tuple(data["input_shape"]),
        output_shape=tuple(data["output_shape"]),
        requests=tuple(
            RandomnessRequest(entry["kind"], tuple(entry["shape"]))
            for entry in data["requests"]
        ),
        messages=messages,
        uses=tuple(data["uses"]),
        deps=tuple(int(d) for d in data["deps"]),
        round_groups=round_groups,
    )


def compile_plan(
    spec: ModelSpec,
    batch_size: int = 1,
    ring: Optional[FixedPointRing] = None,
) -> InferencePlan:
    """Lower a model spec into an executable plan graph with static shapes.

    Shape inference threads the (batched) activation shape through the
    registry handlers; each op's trace is evaluated at its concrete input
    shape, which makes the preprocessing manifest and byte accounting exact
    for the given batch size.  Dataflow edges are made explicit: each op
    uses the previous op's output (the sequential activation chain of the
    spec) plus, for ADD ops, the named residual source — giving the
    optimizer passes a genuine dependency DAG.
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
    index_of: Dict[str, int] = {}
    for index, layer in enumerate(spec.layers):
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
        uses: List[str] = [ops[-1].name if ops else PLAN_INPUT]
        if layer.kind == LayerKind.ADD and layer.residual_from not in uses:
            uses.append(layer.residual_from)
        deps = tuple(index_of[name] for name in uses if name in index_of)
        trace: OpTrace = handler.trace(layer, shape, ring)
        ops.append(
            PlanOp(
                index=index,
                name=layer.name,
                kind=layer.kind,
                layer=layer,
                input_shape=shape,
                output_shape=out_shape,
                requests=tuple(trace.requests),
                messages=tuple(trace.messages),
                uses=tuple(uses),
                deps=deps,
                round_groups=tuple(trace.groups),
            )
        )
        shapes[layer.name] = out_shape
        index_of[layer.name] = index
        shape = out_shape
    return InferencePlan(
        model_name=spec.name,
        batch_size=batch_size,
        ring=ring,
        input_shape=input_shape,
        output_shape=shape,
        ops=tuple(ops),
    )
