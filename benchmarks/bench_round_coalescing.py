"""Round-coalescing benchmark: the scheduled plan vs the sequential oracle.

Three phases, mirroring the acceptance criteria of the graph-plan IR work:

1. **static rounds** — for every zoo model, the legacy (sequential) online
   round count vs the scheduled (coalesced) count of the optimized plan,
   plus the reduction;
2. **zoo-wide bit-identity** — the scheduled in-process execution must match
   the sequential oracle (:func:`repro.crypto.events.run_reference`) bit for
   bit for every zoo model (exits non-zero on divergence);
3. **qps under link latency** — the serving pool (persistent party-server
   pairs) at N shards under several simulated one-way link latencies.  The
   online phase is round-trip bound; what coalescing buys in wall-clock is
   guarded end to end by the ``pasnetc_lan5ms`` workload of
   ``benchmarks/e2e`` (there is no uncoalesced runtime left to time here).

Run with:  PYTHONPATH=src python benchmarks/bench_round_coalescing.py
Optionally ``--json out.json`` writes the measurements (schema
``serving-bench/v1``, documented in docs/serving.md) for CI artifacts; CI
compares them against the committed baseline in
``benchmarks/baselines/round_coalescing_2shards.json`` via
``tools/check_bench_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List

import numpy as np

from repro.crypto import make_context, optimize_plan
from repro.crypto.events import run_reference
from repro.crypto.plan import compile_plan
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models import build_model, export_layer_weights, get_backbone
from repro.nn.tensor import Tensor
from repro.serve import ServableModel, ShardedServingPool
from repro.utils import seed_everything

#: zoo models covered by the static-rounds and bit-identity phases
ZOO_MODELS = ("vgg-tiny", "resnet-tiny", "mobilenetv2-tiny")

SCHEMA = "serving-bench/v1"


def _trained_servable(name: str, input_size: int, polynomial: bool) -> ServableModel:
    spec = get_backbone(name, input_size=input_size)
    if polynomial:
        spec = spec.with_all_polynomial()
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):  # move BN running stats off their init values
        net(Tensor(rng.normal(size=(4, spec.in_channels, input_size, input_size))))
    net.eval()
    return ServableModel(spec, export_layer_weights(net))


def static_rounds_report(input_size: int) -> Dict[str, Dict[str, object]]:
    """Legacy vs scheduled online rounds for every zoo model (batch 1)."""
    report: Dict[str, Dict[str, object]] = {}
    for name in ZOO_MODELS:
        for polynomial in (False, True):
            spec = get_backbone(name, input_size=input_size)
            if polynomial:
                spec = spec.with_all_polynomial()
            plan = compile_plan(spec)
            splan = optimize_plan(plan)
            legacy = splan.legacy_online_rounds
            scheduled = splan.online_rounds
            variant = f"{spec.name}-poly" if polynomial else spec.name
            report[variant] = {
                "legacy_online_rounds": legacy,
                "scheduled_online_rounds": scheduled,
                "round_reduction": 1.0 - scheduled / legacy if legacy else 0.0,
                "online_bytes": splan.online_bytes,
                "num_ops": len(splan.ops),
                "schedule_rounds": splan.schedule.num_rounds,
            }
    return report


def verify_zoo_bit_identity(input_size: int, seed: int) -> List[Dict[str, object]]:
    """Scheduled execution == sequential oracle, bit for bit, zoo-wide."""
    checked: List[Dict[str, object]] = []
    for name in ZOO_MODELS:
        for polynomial in (False, True):
            servable = _trained_servable(name, input_size, polynomial=polynomial)
            spec = servable.spec
            x = np.random.default_rng(100).normal(
                size=(2, spec.in_channels, input_size, input_size)
            )
            scheduled = SecureInferenceEngine(make_context(seed=seed))
            splan = scheduled.compile(spec, batch_size=2)
            result = scheduled.execute(
                splan, servable.weights, x, pool=scheduled.preprocess(splan)
            )
            oracle = make_context(seed=seed)
            reference_logits, _, _ = run_reference(oracle, splan, servable.weights, x)
            identical = bool(np.array_equal(result.logits, reference_logits))
            checked.append(
                {
                    "model": spec.name,
                    "bit_identical": identical,
                    "legacy_rounds": oracle.communication_rounds,
                    "scheduled_rounds": result.communication_rounds,
                }
            )
            if not identical:
                raise SystemExit(
                    f"scheduled execution of {spec.name} diverged from the "
                    "sequential oracle"
                )
            if result.communication_bytes != oracle.communication_bytes:
                raise SystemExit(
                    f"scheduled execution of {spec.name} changed the byte "
                    "volume — coalescing must only change round structure"
                )
    return checked


def measure_pool_qps(
    servable: ServableModel,
    model: str,
    queries: np.ndarray,
    batch: int,
    shards: int,
    link_latency_ms: float,
    seed: int,
) -> Dict[str, object]:
    """qps of the serving pool at one link latency."""
    models = {model: servable}
    num_queries = queries.shape[0]
    job_latencies: List[float] = []
    with ShardedServingPool(
        models,
        num_shards=shards,
        max_batch=batch,
        provision_pools=max(num_queries // batch // shards + 1, 1),
        warm_batch_sizes=(batch,),
        link_latency=link_latency_ms / 1e3,
        seed=seed,
    ) as pool:
        start = time.perf_counter()
        payload_bytes = 0
        rounds_logged = None
        for lo in range(0, num_queries, batch):
            t0 = time.perf_counter()
            result = pool.run_batch(model, queries[lo : lo + batch])
            job_latencies.append(time.perf_counter() - t0)
            payload_bytes += result.payload_bytes_on_wire
        total = time.perf_counter() - start
        snapshot = pool.stats_snapshot()
        rounds_logged = snapshot["jobs_executed"]
    return {
        "queries_per_second": num_queries / total,
        "p50_latency_ms": 1e3 * float(np.percentile(job_latencies, 50)),
        "p95_latency_ms": 1e3 * float(np.percentile(job_latencies, 95)),
        "total_seconds": total,
        "jobs_executed": rounds_logged,
        "payload_bytes_on_wire": payload_bytes,
        "num_shards": shards,
        "link_latency_ms": link_latency_ms,
    }


def run_benchmark(
    model: str = "vgg-tiny",
    input_size: int = 8,
    num_queries: int = 8,
    batch: int = 4,
    shards: int = 2,
    latencies_ms: List[float] = (0.0, 5.0, 20.0),
    seed: int = 0,
    skip_zoo_check: bool = False,
) -> dict:
    seed_everything(1)
    rounds = static_rounds_report(input_size)
    zoo_check = None if skip_zoo_check else verify_zoo_bit_identity(input_size, seed)

    servable = _trained_servable(model, input_size, polynomial=False)
    spec = servable.spec
    queries = np.random.default_rng(3).normal(
        size=(num_queries, spec.in_channels, input_size, input_size)
    )

    paths = {
        f"latency-{latency:g}ms-coalesced": measure_pool_qps(
            servable,
            model,
            queries,
            batch=batch,
            shards=shards,
            link_latency_ms=latency,
            seed=seed,
        )
        for latency in latencies_ms
    }

    best_reduction = max(entry["round_reduction"] for entry in rounds.values())
    return {
        "schema": SCHEMA,
        "kind": "round_coalescing",
        "model": spec.name,
        "batch_size": batch,
        "config": {
            "num_queries": num_queries,
            "batch": batch,
            "shards": shards,
            "latencies_ms": list(latencies_ms),
            "input_size": input_size,
            "seed": seed,
        },
        "rounds": rounds,
        "best_round_reduction": best_reduction,
        "zoo_bit_identity": zoo_check,
        "paths": paths,
        "workers": [],
    }


def print_report(report: dict) -> None:
    print("== static online rounds (batch 1) ==")
    print(f"{'model':<28} {'legacy':>8} {'scheduled':>10} {'reduction':>10}")
    for name, entry in report["rounds"].items():
        print(
            f"{name:<28} {entry['legacy_online_rounds']:>8} "
            f"{entry['scheduled_online_rounds']:>10} "
            f"{100 * entry['round_reduction']:>9.1f}%"
        )
    if report["zoo_bit_identity"] is not None:
        identical = sum(1 for c in report["zoo_bit_identity"] if c["bit_identical"])
        print(
            f"\nzoo bit-identity: {identical}/{len(report['zoo_bit_identity'])} "
            "scheduled executions identical to the sequential oracle"
        )
    print(f"\n== pool qps ({report['config']['shards']} shards, "
          f"model {report['model']}) ==")
    print(f"{'path':<30} {'qps':>8} {'p50 ms':>9} {'p95 ms':>9} {'total s':>9}")
    for name, path in report["paths"].items():
        print(
            f"{name:<30} {path['queries_per_second']:>8.2f} "
            f"{path['p50_latency_ms']:>9.1f} {path['p95_latency_ms']:>9.1f} "
            f"{path['total_seconds']:>9.2f}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vgg-tiny", help="zoo backbone for the qps phase")
    parser.add_argument("--input-size", type=int, default=8)
    parser.add_argument("--queries", type=int, default=8)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--latencies", default="0,5,20",
        help="comma-separated one-way link latencies in ms",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-zoo-check", action="store_true")
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args()

    report = run_benchmark(
        model=args.model,
        input_size=args.input_size,
        num_queries=args.queries,
        batch=args.batch,
        shards=args.shards,
        latencies_ms=[float(v) for v in args.latencies.split(",") if v],
        seed=args.seed,
        skip_zoo_check=args.skip_zoo_check,
    )
    print_report(report)

    # write the artifact before the acceptance gate: a failing run is
    # exactly the one whose per-model rounds data must survive for triage
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"\nwrote measurements to {args.json_path}")

    # The log-depth comparison tree collapsed the *sequential* round count
    # ~4x (every tree level is already one stacked event), so cross-event
    # coalescing has less intra-op redundancy left to exploit than at the
    # original 25% floor; the absolute round budget is gated separately by
    # benchmarks/bench_wire_compression.py (vgg-tiny <= 294 scheduled).
    if report["best_round_reduction"] < 0.10:
        raise SystemExit(
            f"best round reduction {report['best_round_reduction']:.1%} is "
            "below the 10% acceptance floor"
        )


if __name__ == "__main__":
    main()
