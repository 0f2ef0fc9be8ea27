"""Communication-volume model for 2PC private inference.

Reports the online communication in bytes of a derived architecture — the
"Comm. (MB/GB)" columns of Table I.  Two accountings are available:

- the analytical per-operator volumes the latency equations use
  (``source="model"``, the paper's 32-bit setting), and
- the compiled plan of the executable runtime
  (``source="plan"`` or an explicit ``plan=``), whose per-op byte counts
  match the :class:`repro.crypto.channel.CommunicationLog` of an actual
  2PC execution exactly — the shared source of truth introduced with the
  plan runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hardware.latency import DEFAULT_LATENCY_MODEL, LatencyModel
from repro.hardware.lut import layer_cost
from repro.models.specs import ModelSpec


@dataclass
class CommunicationReport:
    """Total and per-layer online communication of one private inference."""

    model_name: str
    total_bytes: float
    per_layer_bytes: Dict[str, float]
    #: accounting source: "model" (analytical) or "plan" (executable plan)
    source: str = "model"

    @property
    def total_megabytes(self) -> float:
        return self.total_bytes / 1e6

    @property
    def total_gigabytes(self) -> float:
        return self.total_bytes / 1e9


def communication_report(
    spec: ModelSpec,
    latency_model: Optional[LatencyModel] = None,
    source: str = "model",
    plan=None,
    batch_size: int = 1,
) -> CommunicationReport:
    """Aggregate the per-operator online communication volumes.

    With ``source="model"`` (default) the analytical latency-model volumes
    are summed.  With ``source="plan"`` the spec is compiled into an
    executable plan (or ``plan`` is used directly when given) and its exact
    per-op byte counts are reported.
    """
    if plan is not None or source == "plan":
        if plan is None:
            from repro.crypto.plan import compile_plan

            plan = compile_plan(spec, batch_size=batch_size)
        per_layer_exact = plan.per_op_bytes()
        return CommunicationReport(
            model_name=plan.model_name,
            total_bytes=float(sum(per_layer_exact.values())),
            per_layer_bytes={k: float(v) for k, v in per_layer_exact.items()},
            source="plan",
        )
    if source != "model":
        raise ValueError(f"unknown communication source {source!r} (use 'model' or 'plan')")
    latency_model = latency_model or DEFAULT_LATENCY_MODEL
    per_layer: Dict[str, float] = {}
    for layer in spec.layers:
        per_layer[layer.name] = layer_cost(latency_model, layer).communication_bytes
    return CommunicationReport(
        model_name=spec.name,
        total_bytes=sum(per_layer.values()),
        per_layer_bytes=per_layer,
        source="model",
    )
