"""Wire-compression benchmark: log-depth comparison tree + packed payloads.

Measures and *verifies* the two halves of the nonlinear-protocol rework:

1. **static table** — for every zoo model (ReLU and all-polynomial form):
   scheduled online rounds of the optimized plan, packed online payload
   bytes, the frame-format-v1 (unpacked) equivalent, and the compression
   ratio of the comparison-based (nonlinear) layers alone;
2. **verification** — zoo-wide, the scheduled execution must be
   bit-identical to the sequential oracle AND both must log exactly
   the manifest's packed byte prediction (exits non-zero on divergence);
   the acceptance gates — nonlinear-layer payload >= 4x smaller than
   unpacked and vgg-tiny scheduled rounds <= a third of the pre-tree
   baseline of 884 — are asserted here;
3. **socket phase** (skippable) — one two-OS-process execution over
   localhost TCP asserting payload == manifest at packed widths on a real
   wire, and reporting the measured ``bytes_saved_pct``.

Run with:  PYTHONPATH=src python benchmarks/bench_wire_compression.py
Optionally ``--json out.json`` writes the measurements (schema
``wire-bench/v1``) for CI artifacts; CI compares them against the committed
baseline in ``benchmarks/baselines/wire_compression.json`` via
``tools/check_bench_regression.py`` (payload bytes and scheduled rounds are
compile-time deterministic, so any increase fails the job exactly).
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List

import numpy as np

from repro.crypto import make_context, optimize_plan
from repro.crypto.events import run_reference
from repro.crypto.plan import compile_plan
from repro.crypto.protocols.comparison import drelu_trace
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models import build_model, export_layer_weights, get_backbone
from repro.models.specs import LayerKind
from repro.nn.tensor import Tensor
from repro.utils import seed_everything

ZOO_MODELS = ("vgg-tiny", "resnet-tiny", "mobilenetv2-tiny")

#: layer kinds whose protocols ride the comparison flow (the "nonlinear"
#: payload of the acceptance criterion)
NONLINEAR_KINDS = (LayerKind.RELU, LayerKind.MAXPOOL)

SCHEMA = "wire-bench/v1"

#: the PR-4 scheduled-rounds baseline the tree must beat 3x (vgg-tiny, b1)
PRE_TREE_VGG_ROUNDS = 884


def _trained_weights(spec):
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):  # move BN running stats off their init values
        net(Tensor(rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))))
    net.eval()
    return export_layer_weights(net)


def _per_layer_packed_and_unpacked(spec, weights, seed: int):
    """The oracle's per-op byte log, packed and at frame format v1.

    Every protocol tags its messages ``<layer name>/...``, so the unpacked
    equivalent per layer falls out of the oracle's communication log.
    """
    ctx = make_context(seed=seed)
    plan = compile_plan(spec, batch_size=1, ring=ctx.ring)
    x = np.random.default_rng(7).normal(
        size=(1, spec.in_channels, spec.input_size, spec.input_size)
    )
    _, packed, _ = run_reference(ctx, plan, weights, x)
    unpacked = dict.fromkeys(packed, 0)
    for message in ctx.channel.log.messages:
        unpacked[message.tag.split("/")[0]] += max(
            message.num_bytes, message.unpacked_bytes
        )
    return plan, packed, unpacked


def static_table(input_size: int, seed: int) -> Dict[str, Dict[str, object]]:
    """Rounds and packed/unpacked payload per zoo model (batch 1)."""
    table: Dict[str, Dict[str, object]] = {}
    for name in ZOO_MODELS:
        for polynomial in (False, True):
            spec = get_backbone(name, input_size=input_size)
            if polynomial:
                spec = spec.with_all_polynomial()
            weights = _trained_weights(spec)
            plan, packed, unpacked = _per_layer_packed_and_unpacked(spec, weights, seed)
            splan = optimize_plan(plan)
            nonlinear = {
                op.name for op in plan.ops if op.kind in NONLINEAR_KINDS
            }
            nl_packed = sum(packed[n] for n in nonlinear)
            nl_unpacked = sum(unpacked[n] for n in nonlinear)
            total_packed = sum(packed.values())
            total_unpacked = sum(unpacked.values())
            variant = f"{spec.name}-poly" if polynomial else spec.name
            table[variant] = {
                "scheduled_online_rounds": splan.online_rounds,
                "legacy_online_rounds": splan.legacy_online_rounds,
                "online_bytes": splan.online_bytes,
                "unpacked_online_bytes": total_unpacked,
                "bytes_saved_pct": 100.0 * (1.0 - total_packed / total_unpacked)
                if total_unpacked
                else 0.0,
                "nonlinear_payload_bytes": nl_packed,
                "nonlinear_unpacked_bytes": nl_unpacked,
                "nonlinear_compression": nl_unpacked / nl_packed if nl_packed else 0.0,
                "num_ops": len(splan.ops),
            }
            # the per-op sequential log must equal the plan prediction exactly
            if total_packed != plan.online_bytes:
                raise SystemExit(
                    f"{variant}: executed packed bytes {total_packed} != "
                    f"manifest prediction {plan.online_bytes}"
                )
    return table


def verify_zoo(input_size: int, seed: int) -> List[Dict[str, object]]:
    """Bit-identity + payload==manifest, zoo-wide, at packed widths."""
    checked: List[Dict[str, object]] = []
    for name in ZOO_MODELS:
        for polynomial in (False, True):
            spec = get_backbone(name, input_size=input_size)
            if polynomial:
                spec = spec.with_all_polynomial()
            weights = _trained_weights(spec)
            x = np.random.default_rng(100).normal(
                size=(2, spec.in_channels, input_size, input_size)
            )
            scheduled = SecureInferenceEngine(make_context(seed=seed))
            splan = scheduled.compile(spec, batch_size=2)
            result = scheduled.execute(
                splan, weights, x, pool=scheduled.preprocess(splan)
            )
            oracle = make_context(seed=seed)
            reference_logits, _, _ = run_reference(oracle, splan, weights, x)
            identical = bool(np.array_equal(result.logits, reference_logits))
            exact = (
                oracle.communication_bytes
                == result.communication_bytes
                == splan.online_bytes
            )
            checked.append(
                {
                    "model": spec.name,
                    "bit_identical": identical,
                    "payload_matches_manifest": exact,
                    "bytes_saved_pct": result.bytes_saved_pct,
                }
            )
            if not identical:
                raise SystemExit(
                    f"scheduled execution of {spec.name} diverged from the "
                    "sequential oracle"
                )
            if not exact:
                raise SystemExit(
                    f"{spec.name}: logged payload does not equal the packed "
                    "manifest prediction"
                )
    return checked


def socket_phase(input_size: int, seed: int) -> Dict[str, object]:
    """One real two-process TCP session: packed payload == manifest on-wire."""
    from repro.runtime import run_two_process_inference

    spec = get_backbone("vgg-tiny", input_size=input_size)
    weights = _trained_weights(spec)
    queries = np.random.default_rng(7).normal(
        size=(2, spec.in_channels, input_size, input_size)
    )
    result = run_two_process_inference(spec, weights, queries, seed=seed)
    if not result.matches_manifest:
        raise SystemExit(
            "socket phase: on-wire payload does not equal the packed manifest"
        )
    return {
        "model": spec.name,
        "payload_bytes_on_wire": result.payload_bytes_on_wire,
        "unpacked_payload_bytes": result.unpacked_payload_bytes,
        "bytes_saved_pct": result.bytes_saved_pct,
        "online_rounds": result.online_rounds,
        "matches_manifest": result.matches_manifest,
    }


def run_benchmark(
    input_size: int = 8, seed: int = 0, skip_socket: bool = False
) -> dict:
    seed_everything(1)
    table = static_table(input_size, seed)
    zoo_check = verify_zoo(input_size, seed)
    socket = None if skip_socket else socket_phase(input_size, seed)

    ring = make_context().ring
    rounds_per_drelu = drelu_trace((1,), ring).scheduled_rounds
    vgg_rounds = table[f"vgg_tiny-{input_size}"]["scheduled_online_rounds"]
    worst_nonlinear = min(
        entry["nonlinear_compression"]
        for name, entry in table.items()
        if not name.endswith("-poly")
    )
    return {
        "schema": SCHEMA,
        "kind": "wire_compression",
        "config": {"input_size": input_size, "seed": seed},
        "models": table,
        "zoo_verification": zoo_check,
        "socket": socket,
        "rounds_per_drelu": rounds_per_drelu,
        "vgg_scheduled_rounds": vgg_rounds,
        "pre_tree_vgg_rounds": PRE_TREE_VGG_ROUNDS,
        "worst_nonlinear_compression": worst_nonlinear,
    }


def print_report(report: dict) -> None:
    print("== packed wire format: payload and rounds (batch 1) ==")
    print(
        f"{'model':<24} {'rounds':>7} {'payload':>10} {'unpacked':>10} "
        f"{'saved':>7} {'nl-ratio':>9}"
    )
    for name, entry in report["models"].items():
        print(
            f"{name:<24} {entry['scheduled_online_rounds']:>7} "
            f"{entry['online_bytes']:>10} {entry['unpacked_online_bytes']:>10} "
            f"{entry['bytes_saved_pct']:>6.1f}% "
            f"{entry['nonlinear_compression']:>8.2f}x"
        )
    identical = sum(1 for c in report["zoo_verification"] if c["bit_identical"])
    print(
        f"\nzoo verification: {identical}/{len(report['zoo_verification'])} "
        "bit-identical, payload == packed manifest everywhere"
    )
    print(
        f"rounds per DReLU: {report['rounds_per_drelu']} "
        f"(log-depth tree); vgg-tiny scheduled rounds "
        f"{report['vgg_scheduled_rounds']} vs pre-tree {report['pre_tree_vgg_rounds']}"
    )
    if report["socket"] is not None:
        sock = report["socket"]
        print(
            f"socket phase ({sock['model']}): {sock['payload_bytes_on_wire']} "
            f"payload bytes on the wire, {sock['bytes_saved_pct']:.1f}% saved, "
            f"manifest exact: {sock['matches_manifest']}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-socket", action="store_true")
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args()

    report = run_benchmark(
        input_size=args.input_size, seed=args.seed, skip_socket=args.skip_socket
    )
    print_report(report)

    # write the artifact before the acceptance gates: a failing run is
    # exactly the one whose measurements must survive for triage
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"\nwrote measurements to {args.json_path}")

    if report["vgg_scheduled_rounds"] > PRE_TREE_VGG_ROUNDS // 3:
        raise SystemExit(
            f"vgg-tiny scheduled rounds {report['vgg_scheduled_rounds']} "
            f"exceed a third of the pre-tree baseline "
            f"({PRE_TREE_VGG_ROUNDS} -> floor {PRE_TREE_VGG_ROUNDS // 3})"
        )
    if report["worst_nonlinear_compression"] < 4.0:
        raise SystemExit(
            f"nonlinear-layer payload compression "
            f"{report['worst_nonlinear_compression']:.2f}x is below the 4x "
            "acceptance floor"
        )


if __name__ == "__main__":
    main()
