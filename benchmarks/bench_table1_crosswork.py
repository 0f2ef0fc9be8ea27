"""Table I — PASNet variants vs CryptGPU / CryptFLOW on CIFAR-10 and ImageNet.

Regenerates every PASNet row (latency, communication and energy efficiency
measured with this repository's hardware model; accuracies are the paper's
reported values) plus the published comparator rows, and
checks the abstract's headline claims: ~100x-class latency reduction for
PASNet-A, tens-of-x for PASNet-B, and a >1000x energy-efficiency gap.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.evaluation.report import render_table
from repro.evaluation.tables import (
    comparator_rows,
    crosswork_speedups,
    paper_vs_measured_costs,
    table1_rows,
)


def test_table1_crosswork_comparison(benchmark):
    rows = benchmark(table1_rows)

    emit(
        "Table I (PASNet rows measured, comparator rows published)",
        render_table([r.as_dict() for r in rows] + comparator_rows()),
    )
    emit("Table I ImageNet cost: paper vs measured", render_table(paper_vs_measured_costs(rows)))

    speedups = {(s.variant, s.comparator): s for s in crosswork_speedups(rows)}
    emit(
        "Cross-work improvement factors",
        render_table(
            [
                {
                    "variant": key[0],
                    "vs": key[1],
                    "latency x": s.latency_speedup,
                    "comm x": s.communication_reduction,
                    "efficiency x": s.efficiency_gain,
                }
                for key, s in speedups.items()
            ]
        ),
    )

    by_name = {row.model: row for row in rows}
    # Latency/communication ordering across variants matches the paper.
    assert by_name["PASNet-A"].imagenet_latency_s < by_name["PASNet-B"].imagenet_latency_s
    assert by_name["PASNet-B"].imagenet_latency_s < by_name["PASNet-C"].imagenet_latency_s
    # Measured ImageNet costs land within a factor ~2 of the reported values.
    for row in paper_vs_measured_costs(rows):
        assert 0.4 < row["measured lat (s)"] / row["paper lat (s)"] < 2.1
        assert 0.5 < row["measured comm (GB)"] / row["paper comm (GB)"] < 1.5
    # Headline claims (order of magnitude): 147x -> >50x, 40x -> >20x, >1000x efficiency.
    assert speedups[("PASNet-A", "CryptGPU")].latency_speedup > 50
    assert speedups[("PASNet-B", "CryptGPU")].latency_speedup > 20
    assert speedups[("PASNet-A", "CryptGPU")].efficiency_gain > 1000
    assert speedups[("PASNet-B", "CryptGPU")].efficiency_gain > 1000
    assert speedups[("PASNet-A", "CryptFLOW")].latency_speedup > 100
