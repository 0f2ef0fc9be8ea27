"""Ablation — search strategy: analytic/differentiable equilibrium vs
gradient-free searchers (Section III-D motivation).

The paper argues that RL/sampling-based NAS "requires a significant amount
of search overhead" compared to the differentiable formulation.  This
benchmark runs random search and an evolutionary hill climber over the same
search space and objective (accuracy surrogate + λ·latency) on ResNet-18 /
CIFAR-10 and compares the objective they reach per candidate evaluation with
the analytic per-gate equilibrium the differentiable search converges to.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.core.random_search import EvolutionarySearch, RandomSearch
from repro.core.surrogate import AccuracySurrogate
from repro.core.sweep import evaluate_point, select_architecture
from repro.evaluation.report import render_table
from repro.hardware.lut import build_latency_table
from repro.models.resnet import resnet18_cifar

LAMBDA = 1e-3


def _run_comparison():
    backbone = resnet18_cifar()
    surrogate = AccuracySurrogate(jitter_std=0.0)
    table = build_latency_table(backbone)

    analytic_spec = select_architecture(backbone, LAMBDA, table=table, surrogate=surrogate)
    analytic_point = evaluate_point(LAMBDA, analytic_spec, table, surrogate)
    analytic_objective = -analytic_point.accuracy + LAMBDA * analytic_point.latency_ms

    random_result = RandomSearch(backbone, LAMBDA, surrogate=surrogate, seed=0).run(num_samples=40)
    evolution_result = EvolutionarySearch(
        backbone, LAMBDA, surrogate=surrogate, population=8, seed=0
    ).run(generations=5)

    rows = [
        {
            "strategy": "differentiable (analytic equilibrium)",
            "evaluations": 1,
            "objective": analytic_objective,
            "accuracy": analytic_point.accuracy,
            "latency (ms)": analytic_point.latency_ms,
        },
        {
            "strategy": "random search",
            "evaluations": random_result.evaluations,
            "objective": random_result.best.objective,
            "accuracy": random_result.best.accuracy,
            "latency (ms)": random_result.best.latency_ms,
        },
        {
            "strategy": "evolutionary search",
            "evaluations": evolution_result.evaluations,
            "objective": evolution_result.best.objective,
            "accuracy": evolution_result.best.accuracy,
            "latency (ms)": evolution_result.best.latency_ms,
        },
    ]
    return rows


def test_ablation_search_strategy(benchmark):
    rows = benchmark(_run_comparison)
    emit("Search-strategy ablation (ResNet-18 / CIFAR-10, lambda=1e-3)", render_table(rows))
    analytic, random_row, evolution_row = rows
    # The differentiable equilibrium matches or beats both gradient-free
    # searchers despite using a single "evaluation".
    assert analytic["objective"] <= random_row["objective"] + 1e-9
    assert analytic["objective"] <= evolution_row["objective"] + 1e-9
    # The gradient-free searchers needed one to two orders of magnitude more
    # candidate evaluations.
    assert random_row["evaluations"] >= 40
    assert evolution_row["evaluations"] >= 40
