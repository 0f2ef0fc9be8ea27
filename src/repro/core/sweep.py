"""Analytic λ-sweeps over full-size backbones.

The differentiable search (Algorithm 1) converges, per gate, to whichever
candidate wins the trade-off between its contribution to the validation loss
and λ times its latency.  For the full-size backbones — whose supernets
cannot be trained with the offline numpy engine — the figure benchmarks use
this equilibrium directly: an activation gate selects X^2act when the
latency saving scaled by λ outweighs its (surrogate) accuracy sensitivity,
and a pooling gate selects AvgPool analogously.

This is the documented substitute for running Algorithm 1 at ImageNet scale;
the true differentiable search is exercised on the tiny backbones by
:mod:`repro.core.search` and the examples/tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.surrogate import AccuracySurrogate
from repro.hardware.lut import LatencyTable, build_latency_table
from repro.models.specs import ACTIVATION_KINDS, POOLING_KINDS, LayerKind, ModelSpec

#: λ values used for the Fig. 5 sweeps (λ1 < λ2 < λ3 < λ4).
DEFAULT_LAMBDAS: Sequence[float] = (1e-4, 5e-4, 2e-3, 1e-2)

#: accuracy sensitivity (percentage points) assigned to a MaxPool -> AvgPool
#: swap; pooling choice has far less accuracy impact than activation choice.
POOLING_SENSITIVITY_PP = 0.02


@dataclass
class SweepPoint:
    """One architecture produced by a λ-sweep."""

    lam: float
    spec: ModelSpec
    accuracy: float
    latency_ms: float
    communication_mb: float
    relu_elements: int
    polynomial_fraction: float


@dataclass
class SweepResult:
    backbone: str
    points: List[SweepPoint] = field(default_factory=list)

    def latencies_ms(self) -> List[float]:
        return [p.latency_ms for p in self.points]

    def accuracies(self) -> List[float]:
        return [p.accuracy for p in self.points]


def select_architecture(
    spec: ModelSpec,
    lam: float,
    table: Optional[LatencyTable] = None,
    surrogate: Optional[AccuracySurrogate] = None,
) -> ModelSpec:
    """Per-gate equilibrium selection for one latency-penalty value λ.

    A searchable activation becomes polynomial when
    ``lam * (Lat_ReLU - Lat_X2act) [ms] > sensitivity [pp]``; a searchable
    pooling becomes average pooling under the analogous condition.
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    table = table or build_latency_table(spec)
    surrogate = surrogate or AccuracySurrogate()
    sensitivity = surrogate.per_layer_sensitivity(spec)
    assignment: Dict[str, LayerKind] = {}
    for layer in spec.searchable_layers():
        if layer.kind in ACTIVATION_KINDS:
            saving_ms = 1e3 * (
                table.seconds(layer.name, LayerKind.RELU)
                - table.seconds(layer.name, LayerKind.X2ACT)
            )
            cost_pp = sensitivity.get(layer.name, 0.0)
            assignment[layer.name] = (
                LayerKind.X2ACT if lam * saving_ms > cost_pp else LayerKind.RELU
            )
        elif layer.kind in POOLING_KINDS:
            saving_ms = 1e3 * (
                table.seconds(layer.name, LayerKind.MAXPOOL)
                - table.seconds(layer.name, LayerKind.AVGPOOL)
            )
            assignment[layer.name] = (
                LayerKind.AVGPOOL
                if lam * saving_ms > POOLING_SENSITIVITY_PP
                else LayerKind.MAXPOOL
            )
    return spec.replace_kinds(assignment).rename(f"{spec.name}-lambda{lam:g}")


def evaluate_point(
    lam: float,
    spec: ModelSpec,
    table: LatencyTable,
    surrogate: AccuracySurrogate,
) -> SweepPoint:
    """Package accuracy / latency / communication metrics of one architecture."""
    cost = table.total_cost(spec)
    return SweepPoint(
        lam=lam,
        spec=spec,
        accuracy=surrogate.predict(spec),
        latency_ms=1e3 * cost.total_s,
        communication_mb=cost.communication_bytes / 1e6,
        relu_elements=spec.relu_count(),
        polynomial_fraction=spec.polynomial_fraction(),
    )


def lambda_sweep(
    backbone: ModelSpec,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    table: Optional[LatencyTable] = None,
    surrogate: Optional[AccuracySurrogate] = None,
    include_endpoints: bool = True,
) -> SweepResult:
    """Sweep λ and return the searched architecture trade-off points.

    When ``include_endpoints`` is set, the all-ReLU baseline (λ=0) and the
    all-polynomial architecture (λ=inf) are appended, matching the endpoints
    plotted in Fig. 5.
    """
    table = table or build_latency_table(backbone)
    surrogate = surrogate or AccuracySurrogate()
    result = SweepResult(backbone=backbone.name)
    if include_endpoints:
        result.points.append(evaluate_point(0.0, backbone.with_all_relu(), table, surrogate))
    for lam in lambdas:
        derived = select_architecture(backbone, lam, table, surrogate)
        result.points.append(evaluate_point(lam, derived, table, surrogate))
    if include_endpoints:
        result.points.append(
            evaluate_point(float("inf"), backbone.with_all_polynomial(), table, surrogate)
        )
    return result


def relu_reduction_sweep(
    backbone: ModelSpec,
    table: Optional[LatencyTable] = None,
    surrogate: Optional[AccuracySurrogate] = None,
    num_points: int = 12,
) -> List[SweepPoint]:
    """Progressive ReLU-reduction trace for the Fig. 6 / Fig. 7 Pareto plots.

    Activations are converted to X^2act one by one in decreasing order of
    absolute latency saving (largest comparison-protocol layers first, the
    replacements the search makes first as λ grows), producing ``num_points``
    architectures from all-ReLU to all-polynomial.
    """
    table = table or build_latency_table(backbone)
    surrogate = surrogate or AccuracySurrogate()
    activations = [l for l in backbone.layers if l.kind in ACTIVATION_KINDS]

    def priority(layer) -> float:
        return table.seconds(layer.name, LayerKind.RELU) - table.seconds(
            layer.name, LayerKind.X2ACT
        )

    ordered = sorted(activations, key=priority, reverse=True)
    total = len(ordered)
    points: List[SweepPoint] = []
    steps = sorted({int(round(i * total / max(num_points - 1, 1))) for i in range(num_points)})
    for count in steps:
        assignment = {layer.name: LayerKind.X2ACT for layer in ordered[:count]}
        assignment.update(
            {layer.name: LayerKind.RELU for layer in ordered[count:]}
        )
        derived = backbone.replace_kinds(assignment).rename(f"{backbone.name}-poly{count}")
        points.append(evaluate_point(float(count), derived, table, surrogate))
    return points
