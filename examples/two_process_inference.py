"""Two-process private inference over localhost TCP.

The deployment story of the paper made executable: two OS processes, each
holding one share-world, jointly run a compiled inference plan over a real
socket.  The script verifies the two guarantees the networked runtime makes:

1. the socket path is **bit-identical** to the single-process compiled path
   (same seeds => same logits, to the last bit);
2. the **measured on-wire payload bytes** equal the plan manifest's static
   prediction, in each direction, at both parties.

Run with:  PYTHONPATH=src python examples/two_process_inference.py
Optionally ``--json out.json`` writes the measurements for CI artifacts.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.crypto import make_context
from repro.crypto.protocols.comparison import drelu_trace
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models import build_model, export_layer_weights, get_backbone
from repro.nn.tensor import Tensor
from repro.runtime import run_two_process_inference
from repro.runtime.party import predicted_direction_bytes
from repro.utils import seed_everything


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vgg-tiny", help="zoo backbone name")
    parser.add_argument("--input-size", type=int, default=8)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--polynomial", action="store_true",
        help="replace ReLU/MaxPool with X^2act/AvgPool before running",
    )
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the measurements to this JSON file")
    args = parser.parse_args()

    seed_everything(1)
    spec = get_backbone(args.model, input_size=args.input_size)
    if args.polynomial:
        spec = spec.with_all_polynomial()
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):  # move BN running stats off their init values
        net(Tensor(rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))))
    net.eval()
    weights = export_layer_weights(net)
    queries = np.random.default_rng(7).normal(
        size=(args.batch, spec.in_channels, spec.input_size, spec.input_size)
    )

    print(f"== single-process reference (compiled path, seed {args.seed}) ==")
    engine = SecureInferenceEngine(make_context(seed=args.seed))
    plan = engine.compile(spec, batch_size=args.batch)
    pool = engine.preprocess(plan)
    reference = engine.execute(plan, weights, queries, pool=pool)
    print(f"model: {spec.name}, batch {args.batch}, "
          f"{len(plan)} plan ops, predicted online bytes {plan.online_bytes}")

    print("\n== two-process socket execution (localhost TCP) ==")
    result = run_two_process_inference(spec, weights, queries, seed=args.seed)
    bit_identical = bool(np.array_equal(result.logits, reference.logits))
    print(f"wall time: {result.wall_seconds:.2f}s "
          f"(includes process spawn + offline phase in both parties)")
    print(f"bit-identical to single-process path: {bit_identical}")
    print(f"on-wire payload bytes: {result.payload_bytes_on_wire} "
          f"(manifest predicted {plan.online_bytes}) "
          f"-> exact: {result.matches_manifest}")
    for party in (0, 1):
        report = result.reports[party]
        predicted = predicted_direction_bytes(plan, party)
        print(f"  party {party}: sent {report.payload_bytes_sent} payload bytes "
              f"(predicted {predicted}), "
              f"online {1e3 * report.online_seconds:.1f} ms, "
              f"local compute {report.cpu_time_ns / 1e6:.1f} ms cpu")
    print(f"fused local compute: {result.fused_kernel_calls} kernel calls, "
          f"{result.cpu_time_ns / 1e6:.1f} ms cpu (max over parties)")
    print(f"rounds: {result.online_rounds} (predicted {plan.online_rounds}, "
          f"sequential would be {plan.oracle_rounds})")
    rounds_per_drelu = drelu_trace((1,), engine.ctx.ring).scheduled_rounds
    print(f"packed wire format: {result.bytes_saved_pct:.1f}% payload saved "
          f"(unpacked equivalent {result.unpacked_payload_bytes} bytes); "
          f"{rounds_per_drelu} rounds per DReLU (log-depth comparison tree)")

    if not bit_identical or not result.matches_manifest:
        raise SystemExit("two-process execution diverged from the reference")

    if args.json_path:
        # ``serving-bench/v1``: the report schema documented in docs/serving.md
        payload = {
            "schema": "serving-bench/v1",
            "kind": "two_process_inference",
            "model": spec.name,
            "batch_size": args.batch,
            "config": {
                "num_queries": args.batch,
                "seed": args.seed,
                "polynomial": bool(args.polynomial),
            },
            "bit_identical": bit_identical,
            "matches_manifest": result.matches_manifest,
            "predicted_online_bytes": plan.online_bytes,
            "payload_bytes_on_wire": result.payload_bytes_on_wire,
            "unpacked_payload_bytes": result.unpacked_payload_bytes,
            "bytes_saved_pct": result.bytes_saved_pct,
            "online_rounds": result.online_rounds,
            "rounds_per_drelu": rounds_per_drelu,
            "cpu_time_ns": result.cpu_time_ns,
            "fused_kernel_calls": result.fused_kernel_calls,
            "paths": {
                "socket_session": {
                    "queries_per_second": args.batch / result.wall_seconds,
                    "p50_latency_ms": None,
                    "p95_latency_ms": None,
                    "total_seconds": result.wall_seconds,
                },
            },
            "workers": [
                {
                    "shard": 0,  # the one shard booted for this session
                    "party": party,
                    "role": "party-worker",
                    "jobs_executed": 1,
                    "online_seconds": result.reports[party].online_seconds,
                    "payload_bytes_sent": result.reports[party].payload_bytes_sent,
                    "cpu_time_ns": result.reports[party].cpu_time_ns,
                }
                for party in (0, 1)
            ],
            "wall_seconds": result.wall_seconds,
            "per_party": {
                str(party): {
                    "payload_bytes_sent": result.reports[party].payload_bytes_sent,
                    "online_seconds": result.reports[party].online_seconds,
                    "cpu_time_ns": result.reports[party].cpu_time_ns,
                    "fused_kernel_calls": result.reports[party].fused_kernel_calls,
                }
                for party in (0, 1)
            },
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote measurements to {args.json_path}")


if __name__ == "__main__":
    main()
