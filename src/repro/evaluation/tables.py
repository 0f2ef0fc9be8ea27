"""Regenerate Table I: PASNet variants vs CryptGPU / CryptFLOW.

The latency, communication and energy-efficiency columns are *measured* from
this repository's hardware model over the variant architectures; the accuracy
columns are the paper's reported values (training ImageNet offline is out of
scope) and are labelled as such.  The comparator rows use the
published CryptGPU / CryptFLOW numbers, so the headline ratios (latency,
communication and efficiency improvements) are regenerated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.published import SYSTEM_COMPARATORS
from repro.hardware.comm import communication_report
from repro.hardware.energy import EnergyModel
from repro.hardware.latency import DEFAULT_LATENCY_MODEL, LatencyModel
from repro.hardware.scheduler import CryptoScheduler
from repro.models.pasnet_variants import (
    PAPER_REPORTED_ACCURACY,
    PAPER_REPORTED_IMAGENET_COST,
    build_variant,
)

VARIANT_NAMES = ("PASNet-A", "PASNet-B", "PASNet-C", "PASNet-D")


@dataclass
class Table1Row:
    """One row of the regenerated Table I."""

    model: str
    cifar10_top1: float
    cifar10_latency_ms: float
    cifar10_comm_mb: float
    cifar10_efficiency: float
    imagenet_top1: float
    imagenet_top5: float
    imagenet_latency_s: float
    imagenet_comm_gb: float
    imagenet_efficiency: float
    accuracy_source: str = "paper-reported"
    cost_source: str = "measured (hardware model)"

    def as_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "CIFAR top1 (%)": self.cifar10_top1,
            "CIFAR lat (ms)": self.cifar10_latency_ms,
            "CIFAR comm (MB)": self.cifar10_comm_mb,
            "CIFAR effi (1/ms*kW)": self.cifar10_efficiency,
            "IN top1 (%)": self.imagenet_top1,
            "IN top5 (%)": self.imagenet_top5,
            "IN lat (s)": self.imagenet_latency_s,
            "IN comm (GB)": self.imagenet_comm_gb,
            "IN effi (1/s*kW)": self.imagenet_efficiency,
        }


def table1_rows(latency_model: Optional[LatencyModel] = None) -> List[Table1Row]:
    """Regenerate the PASNet rows of Table I."""
    latency_model = latency_model or DEFAULT_LATENCY_MODEL
    scheduler = CryptoScheduler(latency_model)
    energy = EnergyModel()
    rows: List[Table1Row] = []
    for name in VARIANT_NAMES:
        accuracy = PAPER_REPORTED_ACCURACY[name]
        cifar_spec = build_variant(name, "cifar10")
        imagenet_spec = build_variant(name, "imagenet")
        cifar_latency_s = scheduler.latency_seconds(cifar_spec)
        imagenet_latency_s = scheduler.latency_seconds(imagenet_spec)
        cifar_comm = communication_report(cifar_spec, latency_model)
        imagenet_comm = communication_report(imagenet_spec, latency_model)
        rows.append(
            Table1Row(
                model=name,
                cifar10_top1=accuracy["cifar10_top1"],
                cifar10_latency_ms=1e3 * cifar_latency_s,
                cifar10_comm_mb=cifar_comm.total_megabytes,
                cifar10_efficiency=energy.efficiency_per_ms_kw(cifar_latency_s),
                imagenet_top1=accuracy["imagenet_top1"],
                imagenet_top5=accuracy["imagenet_top5"],
                imagenet_latency_s=imagenet_latency_s,
                imagenet_comm_gb=imagenet_comm.total_gigabytes,
                imagenet_efficiency=energy.efficiency_per_s_kw(imagenet_latency_s),
            )
        )
    return rows


def comparator_rows() -> List[Dict[str, object]]:
    """The CryptGPU / CryptFLOW rows (published values)."""
    rows = []
    for comparator in SYSTEM_COMPARATORS:
        rows.append(
            {
                "model": f"{comparator.name} {comparator.model}",
                "CIFAR top1 (%)": "-",
                "CIFAR lat (ms)": "-",
                "CIFAR comm (MB)": "-",
                "CIFAR effi (1/ms*kW)": "-",
                "IN top1 (%)": comparator.top1,
                "IN top5 (%)": comparator.top5,
                "IN lat (s)": comparator.latency_s,
                "IN comm (GB)": comparator.communication_gb,
                "IN effi (1/s*kW)": comparator.efficiency_per_s_kw,
            }
        )
    return rows


@dataclass
class CrossWorkSpeedup:
    """Headline improvement factors of one PASNet variant vs one comparator."""

    variant: str
    comparator: str
    latency_speedup: float
    communication_reduction: float
    efficiency_gain: float


def crosswork_speedups(rows: Optional[List[Table1Row]] = None) -> List[CrossWorkSpeedup]:
    """The 147x / 40x latency and 88x / 19x communication claims of the abstract."""
    rows = rows or table1_rows()
    by_name = {row.model: row for row in rows}
    out: List[CrossWorkSpeedup] = []
    for comparator in SYSTEM_COMPARATORS:
        for variant in VARIANT_NAMES:
            row = by_name[variant]
            out.append(
                CrossWorkSpeedup(
                    variant=variant,
                    comparator=comparator.name,
                    latency_speedup=comparator.latency_s / row.imagenet_latency_s,
                    communication_reduction=comparator.communication_gb / row.imagenet_comm_gb,
                    efficiency_gain=row.imagenet_efficiency / comparator.efficiency_per_s_kw,
                )
            )
    return out


def paper_vs_measured_costs(rows: Optional[List[Table1Row]] = None) -> List[Dict[str, float]]:
    """Side-by-side ImageNet latency/communication: paper vs this model."""
    rows = rows or table1_rows()
    out = []
    for row in rows:
        reported = PAPER_REPORTED_IMAGENET_COST[row.model]
        out.append(
            {
                "model": row.model,
                "paper lat (s)": reported["latency_s"],
                "measured lat (s)": row.imagenet_latency_s,
                "paper comm (GB)": reported["comm_gb"],
                "measured comm (GB)": row.imagenet_comm_gb,
            }
        )
    return out
