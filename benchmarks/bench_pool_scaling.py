"""Throughput scaling of the sharded serving pool vs. shard count.

Two serving tiers are measured on the same query stream:

1. **sequential** — the PR-2 baseline: one batch-1 in-process plan
   execution per query (pools pre-provisioned);
2. **pool-N** — the sharded pool: N persistent two-process worker pairs
   behind the coalescing frontend, jobs routed to idle shards.

The pool runs with a simulated inter-party ``--link-latency-ms`` (default
5 ms one-way, a same-region LAN/WAN figure) because deployed 2PC serving is
round-trip-bound: that is the regime where horizontal sharding pays, and
the regime the paper's latency model targets.  Localhost-only numbers
(``--link-latency-ms 0``) degenerate to a CPU benchmark of the host.

Before measuring, a correctness phase executes every zoo model on a
persistent pool and asserts **bit-identity** with the in-process compiled
engine at the job's derived seed, and that the pool spawned **zero
processes after boot** (persistent servers, no per-request spawn).

Run with:  PYTHONPATH=src python benchmarks/bench_pool_scaling.py
Optionally ``--json out.json`` writes the measurements (schema
``serving-bench/v1``, documented in docs/serving.md) for CI artifacts.

``--overload`` switches to the **control-plane overload regime** instead:
the asyncio :class:`~repro.serve.daemon.ServingDaemon` is driven at many
times its service rate by concurrent framed clients, and the report
(``kind: control_plane``) captures the admission-control contract — every
submission resolves to logits or an explicit backpressure verdict
(``client_failures`` must be zero), the shed ratio stays bounded, accepted
throughput plateaus at the calibrated service rate instead of collapsing,
and sampled accepted jobs replay bit-identically at their job seeds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import threading
import time
from typing import Dict, List

import numpy as np

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.crypto.transport import FaultPlan
from repro.models import build_model, export_layer_weights, get_backbone
from repro.nn.tensor import Tensor
from repro.serve import (
    BackpressureError,
    DaemonClient,
    ServableModel,
    ServingDaemon,
    ShardedServingPool,
)
from repro.utils import seed_everything

#: zoo models exercised by the bit-identity phase (numpy-trainable tinies)
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


def verify_zoo_bit_identity(input_size: int, seed: int) -> Dict[str, object]:
    """Every zoo model, twice, on one persistent pool: bit-identical + warm."""
    models = {
        name: _trained_servable(name, input_size, polynomial=True)
        for name in ZOO_MODELS
    }
    checked: List[Dict[str, object]] = []
    serving_pids: set = set()
    with ShardedServingPool(
        models, num_shards=1, max_batch=2, provision_pools=2,
        warm_batch_sizes=(2,), seed=seed,
    ) as pool:
        pids_after_boot = {p.pid for p in mp.active_children()}
        for name, servable in models.items():
            spec = servable.spec
            for repeat in range(2):  # two jobs per model over ONE connection
                x = np.random.default_rng(100 + repeat).normal(
                    size=(2, spec.in_channels, input_size, input_size)
                )
                result = pool.run_batch(name, x)
                serving_pids.update(result.worker_pids)
                engine = SecureInferenceEngine(make_context(seed=result.seed))
                plan = engine.compile(spec, batch_size=2)
                reference = engine.execute(
                    plan, servable.weights, x, pool=engine.preprocess(plan)
                )
                identical = bool(np.array_equal(result.logits, reference.logits))
                checked.append(
                    {"model": spec.name, "repeat": repeat, "bit_identical": identical}
                )
                if not identical:
                    raise SystemExit(
                        f"pool execution of {name} diverged from the "
                        f"in-process compiled path at seed {result.seed}"
                    )
        pids_after_jobs = {p.pid for p in mp.active_children()}
        snapshot = pool.stats_snapshot()
    jobs = snapshot["jobs_executed"]
    # Falsifiable zero-spawn check: every job must have been served by the
    # same two OS processes that existed right after boot, and the set of
    # live children must not have grown while jobs ran.
    if len(serving_pids) != 2:
        raise SystemExit(
            f"{jobs} jobs were served by {len(serving_pids)} distinct "
            f"processes — persistent servers must serve from exactly 2"
        )
    new_children = pids_after_jobs - pids_after_boot
    if new_children:
        raise SystemExit(
            f"{len(new_children)} process(es) were spawned while serving "
            f"{jobs} jobs — the serving path must not spawn"
        )
    return {
        "checked": checked,
        "jobs_executed": jobs,
        "processes_spawned": snapshot["processes_spawned"],
        "distinct_serving_pids": len(serving_pids),
        "per_request_process_spawns": len(new_children) / max(jobs, 1),
    }


def _worker_records(pool: ShardedServingPool) -> List[Dict[str, object]]:
    """Per-worker timing records of the shared ``serving-bench/v1`` schema."""
    records: List[Dict[str, object]] = []
    for shard in pool._shards:
        if shard is None:
            continue
        for party, stats in sorted(shard.final_server_stats.items()):
            records.append(
                {
                    "shard": shard.index,
                    "party": party,
                    "role": "party-server",
                    "jobs_executed": stats.jobs_executed,
                    # genuine per-party online time summed over the jobs —
                    # the same meaning the field has in the two-process
                    # example's workers[] records
                    "online_seconds": stats.online_seconds,
                    "offline_seconds": None,  # provisioning runs in background
                    "payload_bytes_sent": stats.payload_bytes_sent,
                    "control_bytes_sent": stats.control_bytes_sent,
                    "pool_hits": stats.pool_hits,
                    "pool_misses": stats.pool_misses,
                    "pools_provisioned": stats.pools_provisioned,
                }
            )
    return records


def run_benchmark(
    model: str = "vgg-tiny",
    input_size: int = 8,
    num_queries: int = 48,
    max_batch: int = 4,
    max_wait: float = 0.03,
    shard_counts: List[int] = (1, 2, 4),
    link_latency_ms: float = 5.0,
    seed: int = 0,
    skip_zoo_check: bool = False,
    shaped_shard_counts: List[int] = (1, 2),
    shaped_latency_ms: float = 20.0,
    shaped_jitter_ms: float = 5.0,
    shaped_bandwidth_mbps: float = 200.0,
    shaped_queries: int = 24,
    skip_shaped: bool = False,
) -> dict:
    seed_everything(1)
    servable = _trained_servable(model, input_size, polynomial=True)
    spec = servable.spec
    models = {model: servable}
    queries = np.random.default_rng(3).normal(
        size=(num_queries, spec.in_channels, input_size, input_size)
    )

    zoo_check = None
    if not skip_zoo_check:
        zoo_check = verify_zoo_bit_identity(input_size, seed)

    # -- PR-2 baseline: sequential batch-1 in-process executions ----------- #
    engine = SecureInferenceEngine(make_context(seed=seed))
    plan1 = engine.compile(spec, batch_size=1)
    pools = [engine.preprocess(plan1) for _ in range(num_queries)]  # offline
    latencies = []
    seq_start = time.perf_counter()
    for i in range(num_queries):
        t0 = time.perf_counter()
        engine.execute(plan1, servable.weights, queries[i : i + 1], pool=pools[i])
        latencies.append(time.perf_counter() - t0)
    seq_seconds = time.perf_counter() - seq_start
    paths: Dict[str, Dict[str, object]] = {
        "sequential": {
            "queries_per_second": num_queries / seq_seconds,
            "p50_latency_ms": 1e3 * float(np.percentile(latencies, 50)),
            "p95_latency_ms": 1e3 * float(np.percentile(latencies, 95)),
            "total_seconds": seq_seconds,
        }
    }

    # -- the sharded pool at each shard count --------------------------------- #
    workers: List[Dict[str, object]] = []
    for shards in shard_counts:
        pool = ShardedServingPool(
            models,
            num_shards=shards,
            max_batch=max_batch,
            max_wait=max_wait,
            provision_pools=max_batch,
            high_water=max_batch,
            link_latency=link_latency_ms / 1e3,
            seed=seed,
        )
        t0 = time.perf_counter()
        futures = pool.submit_many(model, queries)
        for future in futures:
            future.result(timeout=600)
        total = time.perf_counter() - t0
        snapshot = pool.stats_snapshot()
        pool.close()
        key = f"pool-{shards}shard"
        paths[key] = {
            "queries_per_second": num_queries / total,
            "p50_latency_ms": snapshot["frontend"]["p50_latency_ms"],
            "p95_latency_ms": snapshot["frontend"]["p95_latency_ms"],
            "total_seconds": total,
            "mean_batch_size": snapshot["frontend"]["mean_batch_size"],
            "num_shards": shards,
            "pool_hit_rate": snapshot["pool_hit_rate"],
            "jobs_executed": snapshot["jobs_executed"],
            "processes_spawned": snapshot["processes_spawned"],
            "per_request_process_spawns": max(
                snapshot["processes_spawned"] - 2 * snapshot["shards_booted"], 0
            )
            / max(snapshot["jobs_executed"], 1),
        }
        workers.extend(
            dict(record, path=key) for record in _worker_records(pool)
        )

    # -- shaped-link (WAN-like) regime ---------------------------------------- #
    # Latency + seeded jitter + a bandwidth cap on every frame, both
    # directions, via the fault-injection transport's shaping layer.  This is
    # the round-trip-bound regime where sharding pays hardest, and the one the
    # committed baseline gates: wall-clock here is dominated by injected
    # sleeps, so the 1-shard -> N-shard qps ratio is machine-independent.
    shaped_scaling = None
    if not skip_shaped:
        shape = FaultPlan(
            seed=seed,
            latency_ms=shaped_latency_ms,
            jitter_ms=shaped_jitter_ms,
            bandwidth_bytes_per_s=shaped_bandwidth_mbps * 1e6 / 8.0,
        )
        shaped_stream = queries[:shaped_queries]
        for shards in shaped_shard_counts:
            pool = ShardedServingPool(
                models,
                num_shards=shards,
                max_batch=max_batch,
                max_wait=max_wait,
                provision_pools=max_batch,
                high_water=max_batch,
                link_shape=shape,
                seed=seed,
            )
            t0 = time.perf_counter()
            futures = pool.submit_many(model, shaped_stream)
            for future in futures:
                future.result(timeout=600)
            total = time.perf_counter() - t0
            snapshot = pool.stats_snapshot()
            pool.close()
            key = f"pool-{shards}shard-shaped"
            paths[key] = {
                "queries_per_second": len(shaped_stream) / total,
                "p50_latency_ms": snapshot["frontend"]["p50_latency_ms"],
                "p95_latency_ms": snapshot["frontend"]["p95_latency_ms"],
                "total_seconds": total,
                "mean_batch_size": snapshot["frontend"]["mean_batch_size"],
                "num_shards": shards,
                "jobs_executed": snapshot["jobs_executed"],
                "jobs_retried": snapshot["jobs_retried"],
            }
            workers.extend(
                dict(record, path=key) for record in _worker_records(pool)
            )
        shaped_first = f"pool-{shaped_shard_counts[0]}shard-shaped"
        shaped_last = f"pool-{shaped_shard_counts[-1]}shard-shaped"
        shaped_scaling = {
            "from": shaped_first,
            "to": shaped_last,
            "qps_speedup": (
                paths[shaped_last]["queries_per_second"]
                / paths[shaped_first]["queries_per_second"]
                if paths[shaped_first]["queries_per_second"]
                else 0.0
            ),
            "link": {
                "latency_ms": shaped_latency_ms,
                "jitter_ms": shaped_jitter_ms,
                "bandwidth_mbps": shaped_bandwidth_mbps,
            },
        }

    first = f"pool-{shard_counts[0]}shard"
    last = f"pool-{shard_counts[-1]}shard"
    scaling = (
        paths[last]["queries_per_second"] / paths[first]["queries_per_second"]
        if paths[first]["queries_per_second"]
        else 0.0
    )
    return {
        "schema": SCHEMA,
        "kind": "pool_scaling",
        "model": spec.name,
        "config": {
            "num_queries": num_queries,
            "max_batch": max_batch,
            "max_wait_s": max_wait,
            "shard_counts": list(shard_counts),
            "link_latency_ms": link_latency_ms,
            "seed": seed,
            "shaped_shard_counts": list(shaped_shard_counts),
            "shaped_queries": shaped_queries,
        },
        "paths": paths,
        "workers": workers,
        "scaling": {
            "from": first,
            "to": last,
            "qps_speedup": scaling,
        },
        "shaped_scaling": shaped_scaling,
        "zoo_bit_identity": zoo_check,
    }


# --------------------------------------------------------------------------- #
# Control-plane overload regime
# --------------------------------------------------------------------------- #
def run_overload_benchmark(
    model: str = "vgg-tiny",
    input_size: int = 8,
    shards: int = 2,
    calibration_queries: int = 12,
    overload_threads: int = 8,
    submits_per_thread: int = 6,
    queue_budget: int = 4,
    seed: int = 0,
    replay_samples: int = 2,
) -> dict:
    """Drive the serving daemon far past its service rate and report the
    admission-control contract.

    Phase 1 calibrates the sustainable service rate with one sequential
    client.  Phase 2 offers ``overload_threads * submits_per_thread``
    batch-1 submissions from concurrent framed clients against a
    ``queue_budget``-deep admission queue; shed submissions back off by the
    daemon's ``retry_after_ms`` hint and count as *verdicts*, not failures.
    The gates downstream (``tools/check_bench_regression.py``, kind
    ``control_plane``) are machine-independent: zero client-visible
    failures, a bounded shed ratio, and an accepted-throughput plateau
    ratio (overload qps / calibrated qps) that must not collapse.
    """
    seed_everything(1)
    servable = _trained_servable(model, input_size, polynomial=True)
    spec = servable.spec

    with ServingDaemon(
        {model: servable},
        num_shards=shards,
        max_batch=1,  # one query == one job: accepted rows replay exactly
        max_wait=0.0,
        provision_pools=2,
        seed=seed,
        queue_budget=queue_budget,
    ) as daemon:
        # -- phase 1: calibrate the sustainable service rate ------------------ #
        calibration_latencies: List[float] = []
        rng = np.random.default_rng(7)
        with DaemonClient(*daemon.address) as client:
            t0 = time.perf_counter()
            for _ in range(calibration_queries):
                x = rng.normal(size=(1, spec.in_channels, input_size, input_size))
                start = time.perf_counter()
                client.infer(model, x)
                calibration_latencies.append(time.perf_counter() - start)
            calibration_seconds = time.perf_counter() - t0
        calibration_qps = calibration_queries / calibration_seconds

        # -- phase 2: sustained overload -------------------------------------- #
        accepted: List[dict] = []
        shed: List[float] = []  # retry_after_ms per verdict
        failures: List[str] = []
        lock = threading.Lock()

        def client_loop(worker: int) -> None:
            thread_rng = np.random.default_rng(100 + worker)
            try:
                with DaemonClient(*daemon.address) as load_client:
                    for _ in range(submits_per_thread):
                        x = thread_rng.normal(
                            size=(1, spec.in_channels, input_size, input_size)
                        )
                        start = time.perf_counter()
                        try:
                            result = load_client.infer(model, x)
                        except BackpressureError as verdict:
                            with lock:
                                shed.append(verdict.retry_after_ms)
                            # honor the hint (capped: this is a benchmark,
                            # not a production client)
                            time.sleep(min(verdict.retry_after_ms, 100.0) / 1e3)
                            continue
                        elapsed = time.perf_counter() - start
                        with lock:
                            accepted.append(
                                {
                                    "queries": x,
                                    "job_seed": result.job_seeds[0],
                                    "logits": result.logits,
                                    "latency_s": elapsed,
                                }
                            )
            except Exception as exc:  # noqa: BLE001 — the gated contract
                with lock:
                    failures.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=client_loop, args=(i,))
            for i in range(overload_threads)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        overload_seconds = time.perf_counter() - t0
        stats = daemon.stats_payload()

    # -- bit-identity spot checks on accepted jobs ----------------------------- #
    bit_identity = []
    for record in accepted[:replay_samples]:
        engine = SecureInferenceEngine(make_context(seed=record["job_seed"]))
        plan = engine.compile(spec, batch_size=1)
        reference = engine.execute(
            plan, servable.weights, record["queries"], pool=engine.preprocess(plan)
        )
        bit_identity.append(
            {
                "job_seed": record["job_seed"],
                "bit_identical": bool(
                    np.array_equal(record["logits"], reference.logits)
                ),
            }
        )

    offered = overload_threads * submits_per_thread
    accepted_latencies = [r["latency_s"] for r in accepted]
    accepted_qps = len(accepted) / overload_seconds if overload_seconds else 0.0
    return {
        "schema": SCHEMA,
        "kind": "control_plane",
        "model": spec.name,
        "config": {
            "shards": shards,
            "max_batch": 1,
            "queue_budget": queue_budget,
            "calibration_queries": calibration_queries,
            "overload_threads": overload_threads,
            "submits_per_thread": submits_per_thread,
            "seed": seed,
        },
        "calibration": {
            "queries": calibration_queries,
            "queries_per_second": calibration_qps,
            "p50_latency_ms": 1e3 * float(np.percentile(calibration_latencies, 50)),
            "p95_latency_ms": 1e3 * float(np.percentile(calibration_latencies, 95)),
        },
        "overload": {
            "offered": offered,
            "accepted": len(accepted),
            "shed": len(shed),
            "client_failures": len(failures),
            "failure_messages": failures,
            "elapsed_seconds": overload_seconds,
            "accepted_qps": accepted_qps,
            "accepted_p50_ms": 1e3 * float(np.percentile(accepted_latencies, 50))
            if accepted_latencies
            else None,
            "accepted_p95_ms": 1e3 * float(np.percentile(accepted_latencies, 95))
            if accepted_latencies
            else None,
            "shed_ratio": len(shed) / offered if offered else 0.0,
            "qps_plateau_ratio": (
                accepted_qps / calibration_qps if calibration_qps else 0.0
            ),
            "mean_retry_after_ms": float(np.mean(shed)) if shed else None,
        },
        "counters": {
            "daemon": stats["daemon"],
            "admission": stats["admission"],
            "supervisor": {
                key: value
                for key, value in stats["supervisor"].items()
                if isinstance(value, (int, float))
            },
            "pool": {
                key: stats["pool"][key]
                for key in (
                    "jobs_executed",
                    "jobs_retried",
                    "jobs_recovered",
                    "shards_respawned",
                    "shards_retired",
                )
                if key in stats["pool"]
            },
        },
        "bit_identity": bit_identity,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vgg-tiny")
    parser.add_argument("--input-size", type=int, default=8)
    parser.add_argument("--queries", type=int, default=48)
    parser.add_argument("--max-batch", type=int, default=4)
    parser.add_argument("--max-wait", type=float, default=0.03)
    parser.add_argument(
        "--shards", default="1,2,4",
        help="comma-separated shard counts to sweep (e.g. 1,2,4)",
    )
    parser.add_argument(
        "--link-latency-ms", type=float, default=5.0,
        help="one-way inter-party latency injected per frame (0 = raw loopback)",
    )
    parser.add_argument(
        "--skip-zoo-check", action="store_true",
        help="skip the zoo-wide bit-identity phase (faster CI smoke)",
    )
    parser.add_argument(
        "--shaped-shards", default="1,2",
        help="shard counts swept under the shaped link (e.g. 1,2)",
    )
    parser.add_argument(
        "--shaped-latency-ms", type=float, default=20.0,
        help="one-way latency of the shaped-link regime",
    )
    parser.add_argument(
        "--shaped-jitter-ms", type=float, default=5.0,
        help="seeded uniform latency jitter of the shaped link",
    )
    parser.add_argument(
        "--shaped-bandwidth-mbps", type=float, default=200.0,
        help="bandwidth cap of the shaped link in megabits per second",
    )
    parser.add_argument(
        "--shaped-queries", type=int, default=24,
        help="queries run through the shaped-link regime",
    )
    parser.add_argument(
        "--skip-shaped", action="store_true",
        help="skip the shaped-link (WAN-like) regime",
    )
    parser.add_argument(
        "--overload", action="store_true",
        help="run the control-plane overload regime (serving daemon, "
        "admission control, backpressure) instead of the scaling sweep",
    )
    parser.add_argument(
        "--overload-shards", type=int, default=2,
        help="shard count of the daemon under overload (default 2)",
    )
    parser.add_argument(
        "--overload-threads", type=int, default=8,
        help="concurrent framed clients driving the overload phase",
    )
    parser.add_argument(
        "--overload-submits", type=int, default=6,
        help="submissions per overload client",
    )
    parser.add_argument(
        "--queue-budget", type=int, default=4,
        help="admission queue budget per (model, batch) under overload",
    )
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args()

    if args.overload:
        report = run_overload_benchmark(
            model=args.model,
            input_size=args.input_size,
            shards=args.overload_shards,
            overload_threads=args.overload_threads,
            submits_per_thread=args.overload_submits,
            queue_budget=args.queue_budget,
        )
        calibration = report["calibration"]
        overload = report["overload"]
        print(f"== control-plane overload: {report['model']}, "
              f"{report['config']['shards']} shards, queue budget "
              f"{report['config']['queue_budget']} ==")
        print(f"calibration: {calibration['queries_per_second']:.1f} qps "
              f"(p95 {calibration['p95_latency_ms']:.1f} ms)")
        print(f"overload:    offered {overload['offered']}, accepted "
              f"{overload['accepted']}, shed {overload['shed']} "
              f"(ratio {overload['shed_ratio']:.0%}), failures "
              f"{overload['client_failures']}")
        print(f"accepted qps {overload['accepted_qps']:.1f} "
              f"(plateau ratio {overload['qps_plateau_ratio']:.2f}x vs "
              f"calibration)")
        identical = [c["bit_identical"] for c in report["bit_identity"]]
        print(f"bit-identity: {sum(identical)}/{len(identical)} sampled "
              f"accepted jobs replay exactly")
        if overload["client_failures"]:
            for message in overload["failure_messages"]:
                print(f"  CLIENT FAILURE: {message}")
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
            print(f"wrote benchmark JSON to {args.json_path}")
        if overload["client_failures"] or not all(identical):
            raise SystemExit(
                "overload regime violated the control-plane contract"
            )
        return

    shard_counts = [int(part) for part in args.shards.split(",") if part]
    shaped_shard_counts = [
        int(part) for part in args.shaped_shards.split(",") if part
    ]

    report = run_benchmark(
        model=args.model,
        input_size=args.input_size,
        num_queries=args.queries,
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        shard_counts=shard_counts,
        link_latency_ms=args.link_latency_ms,
        skip_zoo_check=args.skip_zoo_check,
        shaped_shard_counts=shaped_shard_counts,
        shaped_latency_ms=args.shaped_latency_ms,
        shaped_jitter_ms=args.shaped_jitter_ms,
        shaped_bandwidth_mbps=args.shaped_bandwidth_mbps,
        shaped_queries=args.shaped_queries,
        skip_shaped=args.skip_shaped,
    )

    print(f"== pool scaling: {report['model']}, {report['config']['num_queries']} "
          f"queries, max_batch {report['config']['max_batch']}, "
          f"link latency {report['config']['link_latency_ms']} ms ==")
    if report["zoo_bit_identity"] is not None:
        zoo = report["zoo_bit_identity"]
        print(f"zoo bit-identity: {len(zoo['checked'])} jobs across "
              f"{len(ZOO_MODELS)} models, all identical; "
              f"{zoo['processes_spawned']} processes spawned, "
              f"{zoo['per_request_process_spawns']:.0f} per request")
    print(f"{'path':<18} {'qps':>9} {'p50 ms':>9} {'p95 ms':>9} {'total s':>9}")
    for name, path in report["paths"].items():
        print(f"{name:<18} {path['queries_per_second']:>9.1f} "
              f"{path['p50_latency_ms']:>9.2f} {path['p95_latency_ms']:>9.2f} "
              f"{path['total_seconds']:>9.3f}")
    scaling = report["scaling"]
    print(f"aggregate qps scaling {scaling['from']} -> {scaling['to']}: "
          f"{scaling['qps_speedup']:.2f}x")
    shaped = report["shaped_scaling"]
    if shaped is not None:
        link = shaped["link"]
        print(f"shaped link ({link['latency_ms']:.0f} ms +/- "
              f"{link['jitter_ms']:.0f} ms, {link['bandwidth_mbps']:.0f} Mbps) "
              f"qps scaling {shaped['from']} -> {shaped['to']}: "
              f"{shaped['qps_speedup']:.2f}x")

    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote benchmark JSON to {args.json_path}")


if __name__ == "__main__":
    main()
