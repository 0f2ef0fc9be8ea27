"""Boot the asyncio serving daemon and exercise its control plane.

The serving story of the paper made executable end to end: one
:class:`~repro.serve.daemon.ServingDaemon` event loop multiplexes framed
TCP clients over a heartbeat-supervised pool of two-process worker pairs,
admitting a query stack only while its model's queued plus running queries
fit the queue budget.  The script

1. boots the daemon on an ephemeral port and prints the curl-able
   ``/healthz`` and ``/stats`` endpoints,
2. submits a few query batches through the framed client and verifies one
   of them **bit-identically** against the in-process engine at its job
   seed,
3. fills a second daemon's budget with queries waiting in its pool's
   queue, then submits one more stack to show an explicit backpressure
   verdict (shed with ``retry_after_ms``, never a silent drop).

Run with:  PYTHONPATH=src python examples/serve_daemon.py
Optionally ``--json out.json`` writes the measurements (schema
``serving-bench/v1``) for CI artifacts.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models import build_model, export_layer_weights, get_backbone
from repro.nn.tensor import Tensor
from repro.serve import BackpressureError, DaemonClient, ServableModel, ServingDaemon
from repro.serve.daemon import http_get
from repro.utils import seed_everything


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vgg-tiny", help="zoo backbone name")
    parser.add_argument("--input-size", type=int, default=8)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--requests", type=int, default=3,
                        help="query batches submitted through the client")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--queue-budget", type=int, default=64,
                        help="queued plus running queries allowed per model")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the measurements to this JSON file")
    args = parser.parse_args()

    seed_everything(1)
    spec = get_backbone(args.model, input_size=args.input_size)
    spec = spec.with_all_polynomial()
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):  # move BN running stats off their init values
        net(Tensor(rng.normal(
            size=(4, spec.in_channels, spec.input_size, spec.input_size)
        )))
    net.eval()
    servable = ServableModel(spec, export_layer_weights(net))

    with ServingDaemon(
        {args.model: servable},
        num_shards=args.shards,
        max_batch=args.batch,
        seed=args.seed,
        queue_budget=args.queue_budget,
    ) as daemon:
        host, port = daemon.address
        print(f"== serving daemon: {spec.name}, {args.shards} shard(s) ==")
        print(f"health endpoint:  curl http://{host}:{port}/healthz")
        print(f"stats endpoint:   curl http://{host}:{port}/stats")
        health = http_get(host, port, "/healthz")
        print(f"/healthz: status={health['status']} "
              f"live_shards={health['live_shards']} "
              f"queue_depth={health['queue_depth']}/{health['queue_budget']}")

        # -- framed submissions + one replay check ---------------------------- #
        latencies = []
        replay = None
        with DaemonClient(host, port) as client:
            assert client.ping(), "daemon heartbeat did not round-trip"
            for index in range(args.requests):
                queries = np.random.default_rng(7 + index).normal(
                    size=(args.batch, spec.in_channels,
                          spec.input_size, spec.input_size)
                )
                result = client.infer(args.model, queries)
                latencies.append(result.latency_ms)
                print(f"request {index}: predicted {result.predicted_classes} "
                      f"(job seeds {sorted(set(result.job_seeds))}, "
                      f"{result.latency_ms:.1f} ms)")
                if replay is None:
                    replay = (queries, result)

        queries, result = replay
        by_job: dict = {}
        for row, job_seed in enumerate(result.job_seeds):
            by_job.setdefault(job_seed, []).append(row)
        bit_identical = True
        for job_seed, rows in by_job.items():
            engine = SecureInferenceEngine(make_context(seed=job_seed))
            plan = engine.compile(spec, batch_size=len(rows))
            reference = engine.execute(
                plan, servable.weights, queries[rows],
                pool=engine.preprocess(plan),
            )
            bit_identical &= bool(
                np.array_equal(result.logits[rows], reference.logits)
            )
        print(f"bit-identity vs in-process engine at the job seed(s): "
              f"{'OK' if bit_identical else 'DIVERGED'}")

        # -- one deliberate shed: the explicit backpressure verdict ------------ #
        # a stack waiting out max_wait in the pool's queue fills the budget
        shed_verdict = None
        stack = np.zeros(
            (args.batch, spec.in_channels, spec.input_size, spec.input_size)
        )
        with ServingDaemon(
            {args.model: servable},
            num_shards=1,
            max_batch=2 * args.batch,
            max_wait=0.5,
            seed=args.seed + 1,
            queue_budget=args.batch,
        ) as tiny, DaemonClient(*tiny.address) as client:
            queued = tiny.pool.submit_many(args.model, stack)
            try:
                client.infer(args.model, stack)
            except BackpressureError as verdict:
                shed_verdict = {
                    "queue_depth": verdict.queue_depth,
                    "queue_budget": verdict.queue_budget,
                    "retry_after_ms": verdict.retry_after_ms,
                }
                print(f"backpressure verdict at a full budget: depth "
                      f"{verdict.queue_depth}/{verdict.queue_budget}, retry "
                      f"after {verdict.retry_after_ms:.0f} ms")
            for future in queued:  # the queued stack itself is served
                future.result(timeout=120)

        stats = daemon.stats_payload()

    if not bit_identical:
        raise SystemExit("daemon logits diverged from the in-process engine")
    if shed_verdict is None:
        raise SystemExit("a full budget did not shed — admission is broken")

    if args.json_path:
        payload = {
            "schema": "serving-bench/v1",
            "kind": "serve_daemon_example",
            "model": spec.name,
            "config": {
                "shards": args.shards,
                "batch": args.batch,
                "requests": args.requests,
                "seed": args.seed,
                "queue_budget": args.queue_budget,
            },
            "latency_ms": latencies,
            "bit_identical": bit_identical,
            "shed_verdict": shed_verdict,
            "healthz": health,
            "stats": stats,
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote measurements to {args.json_path}")


if __name__ == "__main__":
    main()
