"""Offline randomness-factory benchmark: vectorized generation throughput,
streamed provisioning and online-serving isolation.

Four phases, mirroring the acceptance criteria of the correlated-randomness
factory work:

1. **per-kind generation throughput** — for every pool kind, items/second
   of the per-item fill (one generator call per item, the historical dealer
   loop) vs the vectorized fill (one stacked call per group).  Both draw
   from the same substream, so the material is bit-identical and only the
   call granularity differs.  Acceptance: >= 3x on the *linear* kinds
   (``triple``/``square``, the ring-arithmetic groups the zoo consumes in
   bulk);
2. **jobs servable per second of preprocessing** — per zoo model (ReLU and
   all-polynomial variants), the wall-clock of one full vectorized
   manifest preprocess vs the per-item fill, and its inverse: how many
   job pools one dealer core provisions per second.  The manifest hash and
   material bytes are recorded (deterministic, gated exactly in CI);
3. **online-qps isolation under concurrent factory generation** — a
   persistent two-process serving pool is measured alone, then with a
   nice(19) factory producer saturating the remaining CPU with bundle
   generation.  Acceptance: the online qps dip stays under 10% and the
   producer actually spools bundles;
4. **zoo-wide bit-identity with factory-provisioned pools** — for every
   zoo model/variant the logits must be bit-identical to the in-process
   engine's when the correlated randomness is (a) generated
   locally, (b) fetched from the factory for an in-process run,
   (c) fetched party-restricted by two loopback party threads, and
   (d) streamed to a two-process TCP serving pool configured with
   ``factory_address``.  Exits non-zero on any divergence.

Run with:  PYTHONPATH=src python benchmarks/bench_offline_throughput.py
Optionally ``--json out.json`` writes the measurements (schema
``serving-bench/v1``, kind ``offline_throughput``) for CI artifacts; CI
compares them against ``benchmarks/baselines/offline_throughput.json`` via
``tools/check_bench_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crypto import PartyChannel, TwoPartyContext, make_context, optimize_plan
from repro.crypto.dealer import TrustedDealer
from repro.crypto.plan import compile_plan
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.secure_model import SecureInferenceEngine
from repro.crypto.sharing import share
from repro.crypto.transport import LoopbackTransport
from repro.models import build_model, export_layer_weights, get_backbone
from repro.nn.tensor import Tensor
from repro.offline.factory import FactoryClient, FactoryServer, RandomnessFactory
from repro.offline.generation import draw_group, substream
from repro.offline.inventory import InventoryStore, PoolBundle
from repro.runtime.party import execute_plan_as_party
from repro.serve import ServableModel, ShardedServingPool
from repro.utils import seed_everything

#: zoo models covered by the preprocessing and bit-identity phases
ZOO_MODELS = ("vgg-tiny", "resnet-tiny", "mobilenetv2-tiny")

SCHEMA = "serving-bench/v1"

#: ring-arithmetic group kinds generated in bulk — the gated class
LINEAR_KINDS = ("triple", "square")

#: per-kind item shape of the throughput phase (small on purpose: the
#: per-item path's cost is interpreter overhead, which small items expose)
KIND_SHAPES = {
    "triple": (8, 8),
    "square": (8, 8),
    "bit": (64,),
    "dabit": (64,),
}


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


# --------------------------------------------------------------------------- #
# Phase 1: per-kind generation throughput
# --------------------------------------------------------------------------- #
def measure_kind_throughput(
    kind: str, shape: Tuple[int, ...], items: int, repeats: int, seed: int
) -> Dict[str, object]:
    """Best-of-N per-item vs vectorized wall clock of one group."""
    ring = DEFAULT_RING
    best_per_item = float("inf")
    best_vectorized = float("inf")
    for _ in range(repeats):
        stream = substream(seed, ring, kind, shape)

        rng = np.random.default_rng(stream)
        start = time.perf_counter()
        singles = [draw_group(ring, rng, kind, shape, 1) for _ in range(items)]
        best_per_item = min(best_per_item, time.perf_counter() - start)

        rng = np.random.default_rng(stream)
        start = time.perf_counter()
        stacked = draw_group(ring, rng, kind, shape, items)
        best_vectorized = min(best_vectorized, time.perf_counter() - start)

        # both paths must produce the same bits — the layout invariant
        for name, stack in stacked.items():
            merged = np.concatenate([one[name] for one in singles])
            if not np.array_equal(stack, merged):
                raise SystemExit(
                    f"vectorized {kind} generation diverged from the "
                    f"per-item fill on field {name!r}"
                )
    return {
        "shape": list(shape),
        "items": items,
        "per_item_s": best_per_item,
        "vectorized_s": best_vectorized,
        "per_item_items_per_s": items / best_per_item if best_per_item else 0.0,
        "vectorized_items_per_s": items / best_vectorized if best_vectorized else 0.0,
        "speedup": best_per_item / best_vectorized if best_vectorized else 0.0,
    }


# --------------------------------------------------------------------------- #
# Phase 2: jobs servable per second of preprocessing, per zoo model
# --------------------------------------------------------------------------- #
def measure_model_preprocess(
    servable: ServableModel, batch: int, repeats: int, seed: int
) -> Dict[str, object]:
    manifest = compile_plan(servable.spec, batch_size=batch).manifest
    best = {"per_item": float("inf"), "vectorized": float("inf")}
    for _ in range(repeats):
        for mode, vectorized in (("per_item", False), ("vectorized", True)):
            dealer = TrustedDealer(manifest.ring, seed=seed)
            start = time.perf_counter()
            dealer.preprocess(manifest, vectorized=vectorized)
            best[mode] = min(best[mode], time.perf_counter() - start)
    vectorized = best["vectorized"]
    return {
        "manifest_hash": manifest.content_hash,
        "material_bytes": manifest.material_bytes,
        "requests": len(manifest.requests),
        "per_item_s": best["per_item"],
        "vectorized_s": vectorized,
        "jobs_per_preprocess_second": 1.0 / vectorized if vectorized else 0.0,
        "speedup": best["per_item"] / vectorized if vectorized else 0.0,
    }


# --------------------------------------------------------------------------- #
# Phase 3: online qps isolation under concurrent factory generation
# --------------------------------------------------------------------------- #
def _producer_main(
    root: str,
    ring_bits: int,
    frac_bits: int,
    manifest_hash: str,
    groups: List,
    stop: "mp.Event",
    produced: "mp.Value",
    nice_level: int,
) -> None:
    """Saturating factory producer, run in a low-priority subprocess."""
    try:
        os.nice(nice_level)
    except OSError:  # pragma: no cover - permission-restricted hosts
        pass
    ring = FixedPointRing(ring_bits=ring_bits, frac_bits=frac_bits)
    store = InventoryStore(root)
    wire_groups = [(kind, tuple(shape), int(count)) for kind, shape, count in groups]
    seed = 1_000_000
    while not stop.is_set():
        bundle = PoolBundle.from_groups(ring, manifest_hash, wire_groups, seed)
        store.put(bundle)
        with produced.get_lock():
            produced.value += 1
        seed += 1


def _measure_qps(
    pool: ShardedServingPool, model: str, inputs: np.ndarray, jobs: int
) -> float:
    batch = int(inputs.shape[0])
    start = time.perf_counter()
    for _ in range(jobs):
        pool.run_batch(model, inputs)
    return jobs * batch / (time.perf_counter() - start)


def measure_concurrency_dip(
    servable: ServableModel,
    batch: int,
    jobs: int,
    seed: int,
    nice_level: int = 19,
) -> Dict[str, object]:
    spec = servable.spec
    inputs = np.random.default_rng(50).normal(
        size=(batch, spec.in_channels, spec.input_size, spec.input_size)
    )
    manifest = compile_plan(spec, batch_size=batch).manifest
    with tempfile.TemporaryDirectory() as root:
        with ShardedServingPool(
            {"bench": servable},
            num_shards=1,
            max_batch=batch,
            provision_pools=1,
            warm_batch_sizes=(batch,),
            seed=seed,
        ) as pool:
            _measure_qps(pool, "bench", inputs, max(jobs // 2, 2))  # warm-up
            baseline_qps = max(
                _measure_qps(pool, "bench", inputs, jobs) for _ in range(2)
            )

            stop = mp.Event()
            produced = mp.Value("i", 0)
            producer = mp.Process(
                target=_producer_main,
                args=(
                    root,
                    manifest.ring.ring_bits,
                    manifest.ring.frac_bits,
                    manifest.content_hash,
                    manifest.grouped_requests(),
                    stop,
                    produced,
                    nice_level,
                ),
                daemon=True,
            )
            producer.start()
            try:
                time.sleep(0.2)  # let the producer reach steady state
                concurrent_qps = max(
                    _measure_qps(pool, "bench", inputs, jobs) for _ in range(2)
                )
            finally:
                stop.set()
                producer.join(timeout=30.0)
                if producer.is_alive():  # pragma: no cover - stuck producer
                    producer.terminate()
        bundles_generated = int(produced.value)
    dip = 1.0 - concurrent_qps / baseline_qps if baseline_qps else 1.0
    return {
        "model": spec.name,
        "producer_nice": nice_level,
        "jobs": jobs,
        "baseline_qps": baseline_qps,
        "concurrent_qps": concurrent_qps,
        "qps_dip": dip,
        "bundles_generated": bundles_generated,
    }


# --------------------------------------------------------------------------- #
# Phase 4: zoo-wide bit-identity with factory-provisioned pools
# --------------------------------------------------------------------------- #
def _loopback_factory_logits(
    servable: ServableModel,
    inputs: np.ndarray,
    seed: int,
    client: FactoryClient,
) -> np.ndarray:
    """Scheduled plan over loopback, pools fetched party-restricted."""
    ring = DEFAULT_RING
    batch = int(inputs.shape[0])
    client_rng = np.random.default_rng(seed + 1)
    shared = share(np.asarray(inputs, dtype=np.float64), ring, client_rng)
    plan = optimize_plan(compile_plan(servable.spec, batch_size=batch, ring=ring))
    transports = LoopbackTransport.pair(timeout=60.0)
    executions: Dict[int, object] = {}
    errors: Dict[int, BaseException] = {}

    def run(party: int, input_share: np.ndarray) -> None:
        try:
            channel = PartyChannel(transports[party], party, ring=ring)
            ctx = TwoPartyContext(ring=ring, seed=seed, channel=channel)
            pool = client.fetch_pool(plan.manifest, seed, party=party)
            executions[party] = execute_plan_as_party(
                ctx, party, plan, servable.weights, input_share, pool=pool
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors[party] = exc
        finally:
            transports[party].close()

    threads = [
        threading.Thread(target=run, args=(party, input_share))
        for party, input_share in ((0, shared.share0), (1, shared.share1))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    if errors:
        raise RuntimeError(f"loopback party failed: {errors}")
    return ring.decode(
        ring.add(executions[0].logit_share, executions[1].logit_share)
    )


def verify_zoo_bit_identity(
    models: Tuple[str, ...],
    input_size: int,
    batch: int,
    seed: int,
    include_tcp: bool = True,
) -> List[Dict[str, object]]:
    """Factory-provisioned executions == the locally provisioned engine."""
    checked: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory() as root:
        factory = RandomnessFactory(InventoryStore(root))
        with FactoryServer(factory, "127.0.0.1", 0) as server:
            client = FactoryClient(server.address)
            for name in models:
                for polynomial in (False, True):
                    servable = _trained_servable(name, input_size, polynomial)
                    spec = servable.spec
                    label = f"{spec.name}-poly" if polynomial else spec.name
                    x = np.random.default_rng(100).normal(
                        size=(batch, spec.in_channels, input_size, input_size)
                    )

                    # mode 1 — in-process engine, local dealer: the logits
                    # every factory-provisioned mode must reproduce
                    local = SecureInferenceEngine(make_context(seed=seed))
                    plan = local.compile(spec, batch_size=batch)
                    reference = local.execute(
                        plan, servable.weights, x, pool=local.preprocess(plan)
                    )

                    # mode 2 — in-process, pool streamed from the factory at
                    # the engine's dealer seed
                    engine = SecureInferenceEngine(make_context(seed=seed))
                    splan = engine.compile(spec, batch_size=batch)
                    factory_pool = client.fetch_pool(splan.manifest, seed)
                    scheduled = engine.execute(
                        splan, servable.weights, x, pool=factory_pool
                    )

                    # mode 3 — loopback party threads, party-restricted fetch
                    loopback_logits = _loopback_factory_logits(
                        servable, x, seed, client
                    )

                    # mode 4 — two OS processes + TCP, factory-provisioned
                    if include_tcp:
                        with ShardedServingPool(
                            {"bench": servable},
                            num_shards=1,
                            max_batch=batch,
                            provision_pools=1,
                            warm_batch_sizes=(batch,),
                            seed=seed,
                            factory_address=server.address,
                        ) as pool:
                            result = pool.run_batch("bench", x)
                            tcp_stats = pool.stats_snapshot()
                        # replay the job's pinned seed on the in-process
                        # engine: the served logits must match bit for bit
                        replay = SecureInferenceEngine(make_context(seed=result.seed))
                        rplan = replay.compile(spec, batch_size=batch)
                        replayed = replay.execute(
                            rplan, servable.weights, x,
                            pool=replay.preprocess(rplan),
                        )
                        tcp_identical = bool(
                            np.array_equal(result.logits, replayed.logits)
                        )
                        tcp_from_factory = int(tcp_stats["pools_from_factory"])
                    else:
                        tcp_identical, tcp_from_factory = True, None

                    modes = {
                        "scheduled_factory": bool(
                            np.array_equal(scheduled.logits, reference.logits)
                        ),
                        "loopback_factory": bool(
                            np.array_equal(loopback_logits, reference.logits)
                        ),
                        "tcp_factory": tcp_identical,
                    }
                    checked.append(
                        {
                            "model": label,
                            "bit_identical": all(modes.values()),
                            "modes": modes,
                            "tcp_pools_from_factory": tcp_from_factory,
                        }
                    )
                    if not all(modes.values()):
                        diverged = [m for m, ok in modes.items() if not ok]
                        raise SystemExit(
                            f"factory-provisioned execution of {label} diverged "
                            f"from the locally provisioned engine in mode(s): {diverged}"
                        )
            client.close()
    return checked


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
def run_benchmark(
    models: Tuple[str, ...] = ZOO_MODELS,
    input_size: int = 8,
    batch: int = 2,
    items: int = 256,
    repeats: int = 3,
    jobs: int = 8,
    seed: int = 11,
    skip_concurrency: bool = False,
    skip_zoo_check: bool = False,
    skip_tcp: bool = False,
) -> dict:
    seed_everything(1)
    kinds = {
        kind: measure_kind_throughput(kind, shape, items, repeats, seed)
        for kind, shape in KIND_SHAPES.items()
    }
    min_linear = min(kinds[kind]["speedup"] for kind in LINEAR_KINDS)

    model_entries: Dict[str, Dict[str, object]] = {}
    for name in models:
        for polynomial in (False, True):
            servable = _trained_servable(name, input_size, polynomial)
            label = (
                f"{servable.spec.name}-poly" if polynomial else servable.spec.name
            )
            model_entries[label] = measure_model_preprocess(
                servable, batch, repeats, seed
            )

    concurrency: Optional[Dict[str, object]] = None
    if not skip_concurrency:
        servable = _trained_servable(models[0], input_size, polynomial=False)
        concurrency = measure_concurrency_dip(servable, batch, jobs, seed)

    zoo_check = (
        None
        if skip_zoo_check
        else verify_zoo_bit_identity(
            models, input_size, batch, seed, include_tcp=not skip_tcp
        )
    )
    return {
        "schema": SCHEMA,
        "kind": "offline_throughput",
        "config": {
            "models": list(models),
            "input_size": input_size,
            "batch": batch,
            "items": items,
            "repeats": repeats,
            "jobs": jobs,
            "seed": seed,
        },
        "kinds": kinds,
        "min_linear_speedup": min_linear,
        "models": model_entries,
        "concurrency": concurrency,
        "zoo_bit_identity": zoo_check,
        "workers": [],
    }


def print_report(report: dict) -> None:
    print("== offline generation throughput (best-of-N, same substream) ==")
    print(
        f"{'kind':<10} {'shape':<10} {'per-item it/s':>14} {'vectorized it/s':>16} "
        f"{'speedup':>8}"
    )
    for kind, entry in report["kinds"].items():
        print(
            f"{kind:<10} {str(tuple(entry['shape'])):<10} "
            f"{entry['per_item_items_per_s']:>14.0f} "
            f"{entry['vectorized_items_per_s']:>16.0f} {entry['speedup']:>7.2f}x"
        )
    print(
        f"\nminimum linear-kind speedup: {report['min_linear_speedup']:.2f}x"
    )

    print("\n== jobs servable per second of preprocessing ==")
    print(
        f"{'model':<24} {'per-item ms':>12} {'vectorized ms':>14} {'jobs/s':>8} "
        f"{'speedup':>8}"
    )
    for model, entry in report["models"].items():
        print(
            f"{model:<24} {entry['per_item_s'] * 1e3:>12.2f} "
            f"{entry['vectorized_s'] * 1e3:>14.2f} "
            f"{entry['jobs_per_preprocess_second']:>8.1f} {entry['speedup']:>7.2f}x"
        )

    concurrency = report.get("concurrency")
    if concurrency is not None:
        print(
            f"\nonline qps with concurrent nice({concurrency['producer_nice']}) "
            f"factory generation: {concurrency['baseline_qps']:.2f} -> "
            f"{concurrency['concurrent_qps']:.2f} "
            f"(dip {concurrency['qps_dip']:.1%}, "
            f"{concurrency['bundles_generated']} bundles spooled)"
        )
    if report["zoo_bit_identity"] is not None:
        identical = sum(1 for c in report["zoo_bit_identity"] if c["bit_identical"])
        print(
            f"zoo bit-identity: {identical}/{len(report['zoo_bit_identity'])} "
            "factory-provisioned executions identical to the sequential path "
            "in every mode"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--models", default=",".join(ZOO_MODELS),
        help="comma-separated zoo model names",
    )
    parser.add_argument("--input-size", type=int, default=8)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument(
        "--items", type=int, default=256,
        help="items per group of the per-kind throughput phase",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--jobs", type=int, default=8,
        help="jobs per qps sample of the concurrency phase",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--skip-concurrency", action="store_true")
    parser.add_argument("--skip-zoo-check", action="store_true")
    parser.add_argument(
        "--skip-tcp", action="store_true",
        help="skip the two-OS-process TCP mode of the bit-identity phase",
    )
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args()

    report = run_benchmark(
        models=tuple(name for name in args.models.split(",") if name),
        input_size=args.input_size,
        batch=args.batch,
        items=args.items,
        repeats=args.repeats,
        jobs=args.jobs,
        seed=args.seed,
        skip_concurrency=args.skip_concurrency,
        skip_zoo_check=args.skip_zoo_check,
        skip_tcp=args.skip_tcp,
    )
    print_report(report)

    # write the artifact before the acceptance gates: a failing run is
    # exactly the one whose measurements must survive for triage
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"\nwrote measurements to {args.json_path}")

    # The vectorized fill's advantage is interpreter-overhead elimination on
    # the bulk ring-arithmetic kinds; the committed-baseline ratio is gated
    # separately by tools/check_bench_regression.py.
    if report["min_linear_speedup"] < 3.0:
        raise SystemExit(
            f"minimum linear-kind generation speedup "
            f"{report['min_linear_speedup']:.2f}x is below the 3x acceptance "
            "floor"
        )
    concurrency = report.get("concurrency")
    if concurrency is not None:
        if concurrency["qps_dip"] >= 0.10:
            raise SystemExit(
                f"online qps dipped {concurrency['qps_dip']:.1%} under "
                "concurrent factory generation — the producer must stay "
                "under the 10% isolation budget"
            )
        if concurrency["bundles_generated"] <= 0:
            raise SystemExit(
                "the factory producer spooled zero bundles during the "
                "concurrency phase — the isolation result is vacuous"
            )


if __name__ == "__main__":
    main()
