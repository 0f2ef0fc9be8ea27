"""Local-compute benchmark: the fused-kernel runtime vs the reference oracle.

Three phases, mirroring the acceptance criteria of the fused local-compute
kernel work:

1. **cpu time per layer class** — for every zoo model, the per-op
   local-compute time of the sequential oracle
   (:func:`repro.crypto.events.run_reference`: reference numpy chains, no
   kernel context) vs the runtime (``per_op_cpu_ns``, wire waits excluded),
   aggregated into the *linear* class (CONV + LINEAR ops, where im2col
   workspaces and stacked-share kernels apply; these ops never communicate,
   so both sides time pure compute) and the *nonlinear* class (comparisons,
   activations, pooling).  Best-of-N per class;
2. **zoo-wide bit-identity on every deployment surface** — for every zoo
   model (ReLU and polynomial variants) the runtime must reproduce the
   oracle bit for bit (a) in process, (b) over a loopback transport with
   two party threads, and (c) over two OS processes and a real TCP socket.
   Exits non-zero on any divergence;
3. **fused-kernel accounting** — the runtime must actually take the fused
   path (``fused_kernel_calls > 0``).

Run with:  PYTHONPATH=src python benchmarks/bench_local_compute.py
Optionally ``--json out.json`` writes the measurements (schema
``serving-bench/v1``, documented in docs/serving.md) for CI artifacts; CI
compares them against the committed baseline in
``benchmarks/baselines/local_compute.json`` via
``tools/check_bench_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crypto import PartyChannel, TwoPartyContext, make_context, optimize_plan
from repro.crypto.dealer import TrustedDealer
from repro.crypto.events import run_reference
from repro.crypto.plan import compile_plan
from repro.crypto.ring import DEFAULT_RING
from repro.crypto.secure_model import SecureInferenceEngine
from repro.crypto.sharing import share
from repro.crypto.transport import LoopbackTransport
from repro.models import build_model, export_layer_weights, get_backbone
from repro.nn.tensor import Tensor
from repro.runtime import run_two_process_inference
from repro.runtime.party import execute_plan_as_party
from repro.serve import ServableModel
from repro.utils import seed_everything

#: zoo models covered by the cpu-time and bit-identity phases
ZOO_MODELS = ("vgg-tiny", "resnet-tiny", "mobilenetv2-tiny")

SCHEMA = "serving-bench/v1"

#: plan-op kinds whose local compute is dominated by matmul/im2col — the
#: layer class the fused lowering targets hardest (and the one CI gates)
LINEAR_KINDS = frozenset({"CONV", "LINEAR"})


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


def _layer_class_of(plan) -> Dict[str, str]:
    """Map op name -> layer class for the cpu-time aggregation."""
    return {
        op.name: ("linear" if op.kind.name in LINEAR_KINDS else "nonlinear")
        for op in plan.ops
    }


def _classed_cpu_ns(per_op_cpu_ns: Dict[str, int], classes: Dict[str, str]) -> Dict[str, int]:
    totals = {"linear": 0, "nonlinear": 0}
    for name, nanos in per_op_cpu_ns.items():
        totals[classes.get(name, "nonlinear")] += int(nanos)
    return totals


def measure_cpu_time(
    servable: ServableModel,
    input_size: int,
    batch: int,
    repeats: int,
    seed: int,
) -> Dict[str, object]:
    """Best-of-N per-layer-class cpu time, reference vs fused, one model."""
    spec = servable.spec
    x = np.random.default_rng(100).normal(
        size=(batch, spec.in_channels, input_size, input_size)
    )
    plan = SecureInferenceEngine().compile(spec, batch_size=batch)
    classes = _layer_class_of(plan)
    # the oracle never installs a kernel context: zero fused calls by construction
    entry: Dict[str, object] = {"reference_fused_kernel_calls": 0}
    per_mode: Dict[str, Dict[str, int]] = {}
    for mode in ("reference", "fused"):
        best: Optional[Dict[str, int]] = None
        for _ in range(repeats):
            ctx = make_context(seed=seed)
            pool = ctx.dealer.preprocess(plan)
            if mode == "reference":
                _, _, per_op_cpu_ns = run_reference(ctx, plan, servable.weights, x, pool)
            else:
                result = SecureInferenceEngine(ctx).execute(
                    plan, servable.weights, x, pool=pool
                )
                per_op_cpu_ns = result.per_op_cpu_ns
                entry["fused_fused_kernel_calls"] = result.fused_kernel_calls
            totals = _classed_cpu_ns(per_op_cpu_ns, classes)
            totals["total"] = totals["linear"] + totals["nonlinear"]
            if best is None:
                best = totals
            else:
                # element-wise best-of: each class at its least-noisy sample
                best = {cls: min(best[cls], totals[cls]) for cls in totals}
        per_mode[mode] = best
    for cls in ("linear", "nonlinear", "total"):
        ref = per_mode["reference"][cls]
        fused = per_mode["fused"][cls]
        entry[cls] = {
            "reference_ns": ref,
            "fused_ns": fused,
            "speedup": ref / fused if fused else 0.0,
        }
    return entry


def _loopback_logits(
    servable: ServableModel, inputs: np.ndarray, seed: int
) -> Tuple[np.ndarray, int]:
    """The plan over a loopback transport, two party threads."""
    ring = DEFAULT_RING
    spec = servable.spec
    batch = int(inputs.shape[0])
    client_rng = np.random.default_rng(seed + 1)
    shared = share(np.asarray(inputs, dtype=np.float64), ring, client_rng)
    plan = optimize_plan(compile_plan(spec, batch_size=batch, ring=ring))
    transports = LoopbackTransport.pair(timeout=60.0)
    executions: Dict[int, object] = {}
    errors: Dict[int, BaseException] = {}

    def run(party: int, input_share: np.ndarray) -> None:
        try:
            channel = PartyChannel(transports[party], party, ring=ring)
            ctx = TwoPartyContext(ring=ring, seed=seed, channel=channel)
            dealer = TrustedDealer(ring=ring, seed=seed)
            pool = dealer.preprocess(plan).restrict_to_party(party)
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
    logits = ring.decode(
        ring.add(executions[0].logit_share, executions[1].logit_share)
    )
    return logits, executions[0].fused_kernel_calls


def verify_zoo_bit_identity(
    input_size: int, batch: int, seed: int, include_tcp: bool = True
) -> List[Dict[str, object]]:
    """Runtime == sequential oracle on every deployment surface."""
    checked: List[Dict[str, object]] = []
    for name in ZOO_MODELS:
        for polynomial in (False, True):
            servable = _trained_servable(name, input_size, polynomial=polynomial)
            spec = servable.spec
            x = np.random.default_rng(100).normal(
                size=(batch, spec.in_channels, input_size, input_size)
            )

            # the runtime, in process
            engine = SecureInferenceEngine(make_context(seed=seed))
            plan = engine.compile(spec, batch_size=batch)
            in_process = engine.execute(
                plan, servable.weights, x, pool=engine.preprocess(plan)
            )

            # the sequential oracle: the reference semantics
            reference_logits, _, _ = run_reference(
                make_context(seed=seed), plan, servable.weights, x
            )

            # over a loopback transport (two party threads)
            loopback_logits, loopback_fused = _loopback_logits(servable, x, seed)

            # over two OS processes and a TCP socket
            if include_tcp:
                tcp = run_two_process_inference(spec, servable.weights, x, seed=seed)
                tcp_logits = tcp.logits
                tcp_fused = tcp.fused_kernel_calls
            else:
                tcp_logits, tcp_fused = reference_logits, None

            modes = {
                "scheduled_lowered": in_process.logits,
                "loopback_lowered": loopback_logits,
                "tcp_lowered": tcp_logits,
            }
            identical = {
                mode: bool(np.array_equal(logits, reference_logits))
                for mode, logits in modes.items()
            }
            checked.append(
                {
                    "model": spec.name,
                    "bit_identical": all(identical.values()),
                    "modes": identical,
                    "fused_kernel_calls": in_process.fused_kernel_calls,
                    "loopback_fused_kernel_calls": loopback_fused,
                    "tcp_fused_kernel_calls": tcp_fused,
                }
            )
            if not all(identical.values()):
                diverged = [m for m, ok in identical.items() if not ok]
                raise SystemExit(
                    f"execution of {spec.name} diverged from the "
                    f"sequential oracle in mode(s): {diverged}"
                )
            if in_process.fused_kernel_calls <= 0:
                raise SystemExit(
                    f"execution of {spec.name} never took a fused "
                    "kernel path — the kernel context is not engaged"
                )
    return checked


def run_benchmark(
    input_size: int = 8,
    batch: int = 2,
    repeats: int = 5,
    seed: int = 11,
    skip_zoo_check: bool = False,
    skip_tcp: bool = False,
) -> dict:
    seed_everything(1)
    cpu: Dict[str, Dict[str, object]] = {}
    for name in ZOO_MODELS:
        servable = _trained_servable(name, input_size, polynomial=False)
        cpu[servable.spec.name] = measure_cpu_time(
            servable, input_size, batch, repeats=repeats, seed=seed
        )
    zoo_check = (
        None
        if skip_zoo_check
        else verify_zoo_bit_identity(
            input_size, batch, seed, include_tcp=not skip_tcp
        )
    )
    min_linear = min(entry["linear"]["speedup"] for entry in cpu.values())
    return {
        "schema": SCHEMA,
        "kind": "local_compute",
        "config": {
            "input_size": input_size,
            "batch": batch,
            "repeats": repeats,
            "seed": seed,
            "models": list(ZOO_MODELS),
        },
        "cpu": cpu,
        "min_linear_speedup": min_linear,
        "zoo_bit_identity": zoo_check,
        "workers": [],
    }


def print_report(report: dict) -> None:
    print("== online-phase local compute (best-of-N, wire waits excluded) ==")
    print(
        f"{'model':<18} {'class':<10} {'reference ms':>13} {'fused ms':>10} "
        f"{'speedup':>8}"
    )
    for model, entry in report["cpu"].items():
        for cls in ("linear", "nonlinear", "total"):
            stats = entry[cls]
            print(
                f"{model:<18} {cls:<10} {stats['reference_ns'] / 1e6:>13.2f} "
                f"{stats['fused_ns'] / 1e6:>10.2f} {stats['speedup']:>7.2f}x"
            )
        print(
            f"{'':<18} fused kernel calls: "
            f"{entry['fused_fused_kernel_calls']} (reference path: "
            f"{entry['reference_fused_kernel_calls']})"
        )
    print(f"\nminimum linear-class speedup: {report['min_linear_speedup']:.2f}x")
    if report["zoo_bit_identity"] is not None:
        identical = sum(1 for c in report["zoo_bit_identity"] if c["bit_identical"])
        print(
            f"zoo bit-identity: {identical}/{len(report['zoo_bit_identity'])} "
            "executions identical to the sequential oracle on every surface"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input-size", type=int, default=8)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--skip-zoo-check", action="store_true")
    parser.add_argument(
        "--skip-tcp", action="store_true",
        help="skip the two-OS-process TCP mode of the bit-identity phase",
    )
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args()

    report = run_benchmark(
        input_size=args.input_size,
        batch=args.batch,
        repeats=args.repeats,
        seed=args.seed,
        skip_zoo_check=args.skip_zoo_check,
        skip_tcp=args.skip_tcp,
    )
    print_report(report)

    # write the artifact before the acceptance gate: a failing run is
    # exactly the one whose per-class cpu data must survive for triage
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"\nwrote measurements to {args.json_path}")

    # The lowering targets the matmul/im2col-dominated ops; the nonlinear
    # protocols are bounded by OT table construction, so the class gated
    # here is the linear one (acceptance: >= 1.5x on every conv-heavy zoo
    # model).  The committed-baseline ratio is gated separately by
    # tools/check_bench_regression.py.
    if report["min_linear_speedup"] < 1.5:
        raise SystemExit(
            f"minimum linear-class cpu speedup {report['min_linear_speedup']:.2f}x "
            "is below the 1.5x acceptance floor"
        )


if __name__ == "__main__":
    main()
