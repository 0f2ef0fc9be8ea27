"""Latency lookup table: per-layer operator costs for a model specification.

The NAS loss needs the latency of every candidate operator at every choice
point (Lat(OP_{l,j}) in the paper); recomputing the analytical model inside
the training loop would be wasteful, so the costs are precomputed into a
:class:`LatencyTable` keyed by layer name and candidate kind.

Two communication sources are supported:

- ``source="model"`` (default): the closed-form per-operator equations of
  :class:`repro.hardware.latency.LatencyModel` — the paper's 32-bit FPGA
  accounting, pinned against the published Fig. 1 constants;
- ``source="plan"``: the compiled plan of the executable 2PC
  runtime (:func:`repro.crypto.plan.compile_plan`) — byte counts and round
  counts that match the :class:`~repro.crypto.channel.CommunicationLog` of
  an actual execution exactly, so the NAS latency penalty and the engine
  share one accounting.  Computation terms still come from the device model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hardware.latency import DEFAULT_LATENCY_MODEL, LatencyModel, OperatorCost, ZERO_COST
from repro.models.specs import (
    ACTIVATION_KINDS,
    POOLING_KINDS,
    LayerKind,
    LayerSpec,
    ModelSpec,
)


def layer_cost(model: LatencyModel, layer: LayerSpec) -> OperatorCost:
    """Latency/communication cost of one concrete layer."""
    kind = layer.kind
    if kind == LayerKind.CONV:
        return model.conv(
            fi=layer.input_size,
            fo=layer.output_size,
            ic=layer.in_channels // layer.groups,
            oc=layer.out_channels,
            kernel=layer.kernel,
        )
    if kind == LayerKind.LINEAR:
        return model.linear(layer.in_channels, layer.out_channels)
    if kind == LayerKind.RELU:
        return model.relu(layer.input_size, layer.in_channels)
    if kind == LayerKind.X2ACT:
        return model.x2act(layer.input_size, layer.in_channels)
    if kind == LayerKind.MAXPOOL:
        return model.maxpool(layer.input_size, layer.in_channels, kernel=layer.kernel)
    if kind == LayerKind.AVGPOOL:
        return model.avgpool(layer.input_size, layer.in_channels, kernel=layer.kernel)
    if kind == LayerKind.GLOBAL_AVGPOOL:
        return model.avgpool(layer.input_size, layer.in_channels, kernel=layer.input_size)
    if kind == LayerKind.ADD:
        return model.residual_add(layer.input_size, layer.in_channels)
    if kind == LayerKind.BATCHNORM:
        return model.batchnorm(layer.input_size, layer.in_channels)
    if kind == LayerKind.FLATTEN:
        return ZERO_COST
    raise ValueError(f"no latency model for layer kind {kind}")


def candidate_kinds(layer: LayerSpec) -> Tuple[LayerKind, ...]:
    """The operator candidates a searchable layer chooses between."""
    if layer.kind in ACTIVATION_KINDS:
        return (LayerKind.RELU, LayerKind.X2ACT)
    if layer.kind in POOLING_KINDS:
        return (LayerKind.MAXPOOL, LayerKind.AVGPOOL)
    return (layer.kind,)


@dataclass
class LatencyTable:
    """Per-layer, per-candidate latency lookup table for one model spec."""

    model_name: str
    entries: Dict[str, Dict[LayerKind, OperatorCost]] = field(default_factory=dict)

    def cost(self, layer_name: str, kind: LayerKind) -> OperatorCost:
        try:
            return self.entries[layer_name][kind]
        except KeyError as exc:
            raise KeyError(
                f"no LUT entry for layer {layer_name!r} with kind {kind}"
            ) from exc

    def seconds(self, layer_name: str, kind: LayerKind) -> float:
        return self.cost(layer_name, kind).total_s

    def layer_names(self) -> List[str]:
        return list(self.entries)

    def total_seconds(self, spec: ModelSpec) -> float:
        """Total latency of a concrete (derived) architecture."""
        return sum(self.cost(layer.name, layer.kind).total_s for layer in spec.layers)

    def total_cost(self, spec: ModelSpec) -> OperatorCost:
        total = ZERO_COST
        for layer in spec.layers:
            total = total + self.cost(layer.name, layer.kind)
        return total


def plan_op_cost(
    model: LatencyModel, layer: LayerSpec, input_shape: Tuple[int, ...], ring=None
) -> OperatorCost:
    """Cost one op from its compiled-plan trace (exact executable comm).

    Communication bytes and rounds come from the op's recorded trace at the
    concrete input shape (:func:`repro.crypto.plan.trace_op`); the time term
    charges one network base latency per round plus the payload over the
    raw bandwidth.  Computation uses the device equations of
    :func:`layer_cost`.
    """
    from repro.crypto.plan import trace_op
    from repro.crypto.ring import DEFAULT_RING

    trace = trace_op(layer, input_shape, ring or DEFAULT_RING)
    comm_bytes = trace.online_bytes
    comm_s = (
        trace.rounds * model.network.base_latency_s
        + 8.0 * comm_bytes / model.network.bandwidth_bps
    )
    return OperatorCost(
        computation_s=layer_cost(model, layer).computation_s,
        communication_s=comm_s,
        communication_bytes=float(comm_bytes),
    )


def build_latency_table(
    spec: ModelSpec,
    model: Optional[LatencyModel] = None,
    source: str = "model",
    batch_size: int = 1,
) -> LatencyTable:
    """Precompute the operator latency LUT for every layer and candidate kind.

    ``source="model"`` uses the analytical per-operator equations;
    ``source="plan"`` takes communication from the compiled-plan traces of
    the executable runtime (see the module docstring).
    """
    model = model or DEFAULT_LATENCY_MODEL
    table = LatencyTable(model_name=spec.name)
    if source == "model":
        for layer in spec.layers:
            per_kind: Dict[LayerKind, OperatorCost] = {}
            for kind in candidate_kinds(layer):
                per_kind[kind] = layer_cost(model, layer.with_kind(kind))
            table.entries[layer.name] = per_kind
        return table
    if source == "plan":
        from repro.crypto.plan import compile_plan

        plan = compile_plan(spec, batch_size=batch_size)
        for op in plan.ops:
            per_kind = {}
            for kind in candidate_kinds(op.layer):
                # Both candidate sets (ReLU/X^2act, MaxPool/AvgPool) preserve
                # tensor shapes, so the propagated input shape stays valid.
                per_kind[kind] = plan_op_cost(
                    model, op.layer.with_kind(kind), op.input_shape, plan.ring
                )
            table.entries[op.name] = per_kind
        return table
    raise ValueError(f"unknown latency table source {source!r} (use 'model' or 'plan')")
