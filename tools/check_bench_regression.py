"""Compare a benchmark JSON report against a committed baseline.

CI runs the serving benchmarks on every push; this script fails the job when
a run regresses against ``benchmarks/baselines/*.json``.  Two report kinds
are understood (dispatched on the report's ``kind`` field):

``round_coalescing`` (schema ``serving-bench/v1``):

- per zoo model, the **round reduction** must not fall below the baseline's,
  and the **scheduled online rounds** and **payload bytes** must not exceed
  it — all three are deterministic compile-time quantities, so any drift is
  a real scheduling or codec regression, checked exactly;
- the zoo-wide **bit-identity** phase (scheduled execution vs the sequential
  oracle) must have passed.

The wall-clock value of coalescing is not gated here — there is no
uncoalesced runtime left to compare against; it is guarded end to end by
``latency_p50_ms`` of the ``pasnetc_lan5ms`` workload in ``benchmarks/e2e``.

``wire_compression`` (schema ``wire-bench/v1``):

- per zoo model, **scheduled online rounds** and **packed payload bytes**
  must not exceed the baseline and the **nonlinear-layer compression ratio**
  must not fall below it (deterministic, exact);
- every zoo verification entry must be bit-identical with payload ==
  manifest.

``local_compute`` (schema ``serving-bench/v1``):

- per zoo model, the **linear-class cpu speedup** (reference / fused
  local-compute time of the matmul/im2col-dominated ops) must not fall more
  than ``--max-cpu-regression`` below the baseline's ratio, and never below
  the 1.5x acceptance floor.  Ratios are compared — not absolute
  nanoseconds — because CI machines differ wildly in speed while the fused
  lowering's speedup is a property of the kernel structure;
- the runtime must actually take the fused path
  (``fused_kernel_calls > 0``);
- the zoo **bit-identity** phase (in-process, loopback and two-process TCP
  against the sequential oracle) must have passed.

``pool_scaling`` (schema ``serving-bench/v1``):

- the **shaped-link qps scaling ratio** (1-shard -> N-shard throughput under
  the injected-latency WAN-like link) must not fall more than
  ``--max-qps-regression`` below the baseline's ratio, and likewise the
  clean-link ``scaling`` ratio when both reports carry one.  Ratios under
  the shaped link are dominated by injected sleeps, not host speed, so they
  transfer across CI machines;
- no job may exhaust its retry budget (``jobs_retried`` is allowed —
  recovery is the feature — but a shaped, drop-free link must not retry);
- the zoo-wide **bit-identity** phase must have passed when it ran.

``control_plane`` (schema ``serving-bench/v1``):

- under sustained overload of the serving daemon there must be **zero
  client-visible failures** — every submission resolves to logits or an
  explicit backpressure verdict (shed is a verdict, not a failure);
- the overload must actually engage the contract (**accepted > 0 and
  shed > 0** — a run that sheds nothing or serves nothing gates nothing);
- the **shed ratio** must stay bounded: at most the baseline's ratio plus
  an absolute slack (machine speed moves the ratio a little, a leak or an
  admission bug moves it a lot);
- the **qps plateau ratio** (accepted overload throughput / calibrated
  single-client throughput) must not fall more than
  ``--max-qps-regression`` below the baseline's ratio, and never below the
  0.5x collapse floor — overload must degrade into shedding, not into a
  throughput collapse;
- every sampled accepted job must replay **bit-identically** at its job
  seed.

``offline_throughput`` (schema ``serving-bench/v1``):

- the **minimum linear-kind generation speedup** (vectorized vs per-item
  fill of the ``triple``/``square`` groups) must not fall more than
  ``--max-offline-regression`` below the baseline's ratio, and never below
  the 3x acceptance floor.  Ratios are compared — not items/second —
  because CI machines differ wildly in speed while the vectorization win
  is a property of eliminating per-item interpreter overhead;
- per zoo model, the **manifest hash** and **material bytes** must equal
  the baseline exactly (deterministic compile-time identities — drift
  means the offline contract changed), and the vectorized **preprocess
  speedup** must not fall more than the tolerance below the baseline's;
- when the concurrency phase ran, the **online qps dip** under a
  concurrent factory producer must stay under 10% and the producer must
  have spooled at least one bundle;
- the factory-provisioned zoo **bit-identity** phase must have passed in
  every mode.

Run with:
  python tools/check_bench_regression.py current.json \\
      benchmarks/baselines/round_coalescing_2shards.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _check_deterministic_rounds_and_bytes(
    current_models: dict, baseline_models: dict, failures: list
) -> None:
    """Shared exact gate: rounds and payload bytes must not increase."""
    for model, entry in baseline_models.items():
        current_entry = current_models.get(model)
        if current_entry is None:
            failures.append(f"model {model!r} missing from current report")
            continue
        for metric in ("scheduled_online_rounds", "online_bytes"):
            if metric not in entry:
                continue
            if current_entry.get(metric, float("inf")) > entry[metric]:
                failures.append(
                    f"{model}: {metric} regressed "
                    f"{current_entry.get(metric)} > baseline {entry[metric]}"
                )


def check_round_coalescing(current: dict, baseline: dict) -> list:
    failures = []

    shards = baseline.get("config", {}).get("shards")
    if current.get("config", {}).get("shards") != shards:
        failures.append(
            f"shard count mismatch: baseline ran at {shards} shards, "
            f"current at {current.get('config', {}).get('shards')}"
        )

    # -- deterministic round reductions, rounds and payload bytes ------------- #
    for model, entry in baseline.get("rounds", {}).items():
        current_entry = current.get("rounds", {}).get(model)
        if current_entry is None:
            failures.append(f"model {model!r} missing from current rounds report")
            continue
        if current_entry["round_reduction"] < entry["round_reduction"] - 1e-9:
            failures.append(
                f"{model}: round reduction regressed "
                f"{current_entry['round_reduction']:.3f} < baseline "
                f"{entry['round_reduction']:.3f}"
            )
    _check_deterministic_rounds_and_bytes(
        current.get("rounds", {}), baseline.get("rounds", {}), failures
    )

    # -- bit identity ---------------------------------------------------------- #
    checks = current.get("zoo_bit_identity")
    if checks is not None:
        broken = [c["model"] for c in checks if not c.get("bit_identical")]
        if broken:
            failures.append(f"bit-identity broken for: {', '.join(broken)}")
    return failures


def check_wire_compression(current: dict, baseline: dict) -> list:
    failures = []
    _check_deterministic_rounds_and_bytes(
        current.get("models", {}), baseline.get("models", {}), failures
    )
    for model, entry in baseline.get("models", {}).items():
        current_entry = current.get("models", {}).get(model)
        if current_entry is None:
            continue  # already reported by the shared gate
        floor = entry.get("nonlinear_compression", 0.0)
        current_ratio = current_entry.get("nonlinear_compression", 0.0)
        if current_ratio < floor - 1e-9:
            failures.append(
                f"{model}: nonlinear compression regressed "
                f"{current_ratio:.2f}x < baseline {floor:.2f}x"
            )
    for entry in current.get("zoo_verification", []):
        if not entry.get("bit_identical"):
            failures.append(f"{entry.get('model')}: bit-identity broken")
        if not entry.get("payload_matches_manifest"):
            failures.append(
                f"{entry.get('model')}: payload does not equal the packed manifest"
            )
    return failures


#: hard floor on the per-model linear-class cpu speedup of the fused
#: lowering — the PR-6 acceptance criterion, never relaxed by tolerance
LINEAR_SPEEDUP_FLOOR = 1.5


def check_local_compute(
    current: dict, baseline: dict, max_cpu_regression: float
) -> list:
    failures = []
    for model, entry in baseline.get("cpu", {}).items():
        current_entry = current.get("cpu", {}).get(model)
        if current_entry is None:
            failures.append(f"model {model!r} missing from current cpu report")
            continue
        baseline_ratio = entry.get("linear", {}).get("speedup", 0.0)
        current_ratio = current_entry.get("linear", {}).get("speedup", 0.0)
        floor = max(
            baseline_ratio * (1.0 - max_cpu_regression), LINEAR_SPEEDUP_FLOOR
        )
        if current_ratio < floor:
            failures.append(
                f"{model}: linear-class cpu speedup regressed "
                f"{current_ratio:.2f}x vs baseline {baseline_ratio:.2f}x "
                f"(floor {floor:.2f}x at {max_cpu_regression:.0%} tolerance, "
                f"hard floor {LINEAR_SPEEDUP_FLOOR}x)"
            )
        if current_entry.get("fused_fused_kernel_calls", 0) <= 0:
            failures.append(
                f"{model}: the runtime executed zero fused kernels — the "
                "kernel context is not engaged"
            )
    checks = current.get("zoo_bit_identity")
    if checks is not None:
        broken = [c["model"] for c in checks if not c.get("bit_identical")]
        if broken:
            failures.append(f"bit-identity broken for: {', '.join(broken)}")
    return failures


#: hard floor on the linear-kind (triple/square) vectorized generation
#: speedup — the randomness-factory acceptance criterion, never relaxed
#: by tolerance
OFFLINE_LINEAR_SPEEDUP_FLOOR = 3.0

#: ceiling on the online qps dip while a nice(19) factory producer runs
ONLINE_QPS_DIP_CEILING = 0.10


def check_offline_throughput(
    current: dict, baseline: dict, max_offline_regression: float
) -> list:
    failures = []

    # -- linear-kind generation speedup (machine-independent ratio) ----------- #
    baseline_ratio = baseline.get("min_linear_speedup", 0.0)
    current_ratio = current.get("min_linear_speedup", 0.0)
    floor = max(
        baseline_ratio * (1.0 - max_offline_regression),
        OFFLINE_LINEAR_SPEEDUP_FLOOR,
    )
    if current_ratio < floor:
        failures.append(
            f"min linear-kind generation speedup regressed "
            f"{current_ratio:.2f}x vs baseline {baseline_ratio:.2f}x "
            f"(floor {floor:.2f}x at {max_offline_regression:.0%} tolerance, "
            f"hard floor {OFFLINE_LINEAR_SPEEDUP_FLOOR}x)"
        )

    # -- per-model offline identities and preprocess speedups ------------------ #
    for model, entry in baseline.get("models", {}).items():
        current_entry = current.get("models", {}).get(model)
        if current_entry is None:
            failures.append(f"model {model!r} missing from current report")
            continue
        for metric in ("manifest_hash", "material_bytes"):
            if current_entry.get(metric) != entry.get(metric):
                failures.append(
                    f"{model}: {metric} drifted — "
                    f"{current_entry.get(metric)!r} vs baseline "
                    f"{entry.get(metric)!r} (the offline manifest contract "
                    "is deterministic; any change must re-baseline)"
                )
        baseline_speedup = entry.get("speedup", 0.0)
        current_speedup = current_entry.get("speedup", 0.0)
        speedup_floor = baseline_speedup * (1.0 - max_offline_regression)
        if current_speedup < speedup_floor:
            failures.append(
                f"{model}: vectorized preprocess speedup regressed "
                f"{current_speedup:.2f}x vs baseline {baseline_speedup:.2f}x "
                f"(floor {speedup_floor:.2f}x)"
            )

    # -- online isolation under concurrent factory generation ------------------ #
    concurrency = current.get("concurrency")
    if concurrency is not None:
        if concurrency.get("qps_dip", 1.0) >= ONLINE_QPS_DIP_CEILING:
            failures.append(
                f"online qps dipped {concurrency['qps_dip']:.1%} under "
                f"concurrent factory generation (ceiling "
                f"{ONLINE_QPS_DIP_CEILING:.0%})"
            )
        if concurrency.get("bundles_generated", 0) <= 0:
            failures.append(
                "factory producer spooled zero bundles during the "
                "concurrency phase — the isolation measurement is vacuous"
            )
    elif baseline.get("concurrency") is not None:
        failures.append(
            "baseline measured the concurrency phase but the current "
            "report skipped it"
        )

    # -- bit identity ---------------------------------------------------------- #
    checks = current.get("zoo_bit_identity")
    if checks is not None:
        for entry in checks:
            if not entry.get("bit_identical"):
                modes = entry.get("modes", {})
                diverged = [m for m, ok in modes.items() if not ok] or ["?"]
                failures.append(
                    f"{entry.get('model')}: factory-provisioned execution "
                    f"diverged in mode(s): {', '.join(diverged)}"
                )
    elif baseline.get("zoo_bit_identity") is not None:
        failures.append(
            "baseline verified zoo bit-identity but the current report "
            "skipped the phase"
        )
    return failures


def check_pool_scaling(
    current: dict, baseline: dict, max_qps_regression: float
) -> list:
    failures = []
    # -- qps scaling ratios (machine-independent) ----------------------------- #
    for block in ("shaped_scaling", "scaling"):
        baseline_block = baseline.get(block) or {}
        baseline_ratio = baseline_block.get("qps_speedup")
        if baseline_ratio is None:
            continue  # baseline did not run this regime; nothing to gate
        current_block = current.get(block) or {}
        current_ratio = current_block.get("qps_speedup")
        if current_ratio is None:
            failures.append(
                f"missing {block}.qps_speedup in current report "
                f"(baseline has {baseline_ratio:.3f}x)"
            )
            continue
        span = f"{baseline_block.get('from')} -> {baseline_block.get('to')}"
        if current_block.get("from") != baseline_block.get("from") or (
            current_block.get("to") != baseline_block.get("to")
        ):
            failures.append(
                f"{block} span mismatch: baseline measured {span}, current "
                f"{current_block.get('from')} -> {current_block.get('to')}"
            )
            continue
        floor = baseline_ratio * (1.0 - max_qps_regression)
        if current_ratio < floor:
            failures.append(
                f"{block} ({span}) regressed: {current_ratio:.3f}x vs "
                f"baseline {baseline_ratio:.3f}x (floor {floor:.3f}x at "
                f"{max_qps_regression:.0%} tolerance)"
            )

    # -- a shaped, drop-free link must serve without retries ------------------- #
    for key, path in (current.get("paths") or {}).items():
        if key.endswith("-shaped") and path.get("jobs_retried", 0) > 0:
            failures.append(
                f"{key}: {path['jobs_retried']} job(s) retried under a "
                "drop-free shaped link — shaping must never cost a retry"
            )

    # -- bit identity ---------------------------------------------------------- #
    zoo = current.get("zoo_bit_identity")
    if zoo is not None:
        broken = [
            f"{c['model']}#{c.get('repeat')}"
            for c in zoo.get("checked", [])
            if not c.get("bit_identical")
        ]
        if broken:
            failures.append(f"bit-identity broken for: {', '.join(broken)}")
        if zoo.get("per_request_process_spawns", 0) > 0:
            failures.append(
                "serving path spawned processes per request "
                f"({zoo['per_request_process_spawns']:.2f}/job) — persistent "
                "servers must serve without spawning"
            )
    return failures


#: absolute slack on the overload shed ratio over the baseline's — machine
#: speed shifts the ratio a little; an admission bug shifts it a lot
SHED_RATIO_SLACK = 0.25

#: hard floor on the overload qps plateau ratio — below this, overload is
#: collapsing throughput instead of shedding load
PLATEAU_RATIO_FLOOR = 0.5


def check_control_plane(
    current: dict, baseline: dict, max_qps_regression: float
) -> list:
    failures = []
    overload = current.get("overload") or {}
    baseline_overload = baseline.get("overload") or {}

    # -- zero client-visible failures (the robustness acceptance criterion) ---- #
    if overload.get("client_failures", 1) != 0:
        messages = "; ".join(overload.get("failure_messages", [])) or "?"
        failures.append(
            f"{overload.get('client_failures')} client future(s) failed "
            f"without an explicit verdict under overload: {messages}"
        )

    # -- the contract must actually engage ------------------------------------- #
    if overload.get("accepted", 0) <= 0:
        failures.append("overload run accepted zero submissions — vacuous")
    if overload.get("shed", 0) <= 0:
        failures.append(
            "overload run shed zero submissions — the admission queue was "
            "never saturated, the backpressure gate is vacuous"
        )

    # -- bounded shed ratio ----------------------------------------------------- #
    baseline_shed = baseline_overload.get("shed_ratio", 0.0)
    current_shed = overload.get("shed_ratio", 1.0)
    ceiling = baseline_shed + SHED_RATIO_SLACK
    if current_shed > ceiling:
        failures.append(
            f"shed ratio {current_shed:.0%} exceeds baseline "
            f"{baseline_shed:.0%} + {SHED_RATIO_SLACK:.0%} slack"
        )

    # -- accepted throughput plateaus instead of collapsing --------------------- #
    baseline_plateau = baseline_overload.get("qps_plateau_ratio")
    current_plateau = overload.get("qps_plateau_ratio")
    if baseline_plateau is None or current_plateau is None:
        failures.append(
            f"missing overload.qps_plateau_ratio: current={current_plateau}, "
            f"baseline={baseline_plateau}"
        )
    else:
        floor = max(
            baseline_plateau * (1.0 - max_qps_regression), PLATEAU_RATIO_FLOOR
        )
        if current_plateau < floor:
            failures.append(
                f"qps plateau ratio regressed: {current_plateau:.2f}x vs "
                f"baseline {baseline_plateau:.2f}x (floor {floor:.2f}x at "
                f"{max_qps_regression:.0%} tolerance, collapse floor "
                f"{PLATEAU_RATIO_FLOOR}x)"
            )

    # -- bit identity of sampled accepted jobs ---------------------------------- #
    checks = current.get("bit_identity") or []
    if not checks:
        failures.append("no accepted jobs were replay-verified — vacuous")
    broken = [
        str(entry.get("job_seed"))
        for entry in checks
        if not entry.get("bit_identical")
    ]
    if broken:
        failures.append(
            f"accepted jobs diverged from the in-process engine at seed(s): "
            f"{', '.join(broken)}"
        )
    return failures


def check(
    current: dict,
    baseline: dict,
    max_qps_regression: float,
    max_cpu_regression: float = 0.35,
    max_offline_regression: float = 0.35,
) -> list:
    failures = []
    if current.get("schema") != baseline.get("schema"):
        failures.append(
            f"schema mismatch: current {current.get('schema')!r} vs "
            f"baseline {baseline.get('schema')!r}"
        )
        return failures
    kind = baseline.get("kind", "round_coalescing")
    if kind == "wire_compression":
        failures.extend(check_wire_compression(current, baseline))
    elif kind == "local_compute":
        failures.extend(
            check_local_compute(current, baseline, max_cpu_regression)
        )
    elif kind == "pool_scaling":
        failures.extend(
            check_pool_scaling(current, baseline, max_qps_regression)
        )
    elif kind == "offline_throughput":
        failures.extend(
            check_offline_throughput(current, baseline, max_offline_regression)
        )
    elif kind == "control_plane":
        failures.extend(
            check_control_plane(current, baseline, max_qps_regression)
        )
    else:
        failures.extend(check_round_coalescing(current, baseline))
    return failures


def _summary(current: dict, baseline: dict) -> str:
    if baseline.get("kind") == "local_compute":
        return (
            f"min linear-class cpu speedup "
            f"{current.get('min_linear_speedup', 0.0):.2f}x "
            f"(baseline {baseline.get('min_linear_speedup', 0.0):.2f}x)"
        )
    if baseline.get("kind") == "pool_scaling":
        shaped = current.get("shaped_scaling") or {}
        baseline_shaped = baseline.get("shaped_scaling") or {}
        return (
            f"shaped-link qps scaling {shaped.get('qps_speedup', 0.0):.2f}x "
            f"(baseline {baseline_shaped.get('qps_speedup', 0.0):.2f}x), "
            f"clean scaling {current.get('scaling', {}).get('qps_speedup', 0.0):.2f}x"
        )
    if baseline.get("kind") == "control_plane":
        overload = current.get("overload") or {}
        baseline_overload = baseline.get("overload") or {}
        return (
            f"overload accepted {overload.get('accepted')}/"
            f"{overload.get('offered')} (shed {overload.get('shed_ratio', 0.0):.0%}, "
            f"baseline {baseline_overload.get('shed_ratio', 0.0):.0%}), "
            f"qps plateau {overload.get('qps_plateau_ratio', 0.0):.2f}x, "
            f"0 client failures"
        )
    if baseline.get("kind") == "offline_throughput":
        concurrency = current.get("concurrency") or {}
        dip = concurrency.get("qps_dip")
        dip_text = f"{dip:.1%}" if dip is not None else "skipped"
        return (
            f"min linear-kind generation speedup "
            f"{current.get('min_linear_speedup', 0.0):.2f}x "
            f"(baseline {baseline.get('min_linear_speedup', 0.0):.2f}x), "
            f"online qps dip {dip_text}"
        )
    if baseline.get("kind") == "wire_compression":
        return (
            f"vgg scheduled rounds {current.get('vgg_scheduled_rounds')} "
            f"(baseline {baseline.get('vgg_scheduled_rounds')}), worst "
            f"nonlinear compression "
            f"{current.get('worst_nonlinear_compression', 0.0):.2f}x"
        )
    return (
        f"best round reduction {current['best_round_reduction']:.1%} "
        f"(baseline {baseline['best_round_reduction']:.1%})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="JSON report of the current run")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--max-qps-regression", type=float, default=0.20,
        help="allowed relative drop of the qps scaling / plateau ratio of "
        "pool_scaling and control_plane reports (default 20%%)",
    )
    parser.add_argument(
        "--max-cpu-regression", type=float, default=0.35,
        help="allowed relative drop of the linear-class cpu-speedup ratio "
        "for local_compute reports (default 35%%; the 1.5x acceptance "
        "floor always applies)",
    )
    parser.add_argument(
        "--max-offline-regression", type=float, default=0.35,
        help="allowed relative drop of the offline generation/preprocess "
        "speedup ratios for offline_throughput reports (default 35%%; the "
        "3x linear-kind acceptance floor always applies)",
    )
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)
    failures = check(
        current,
        baseline,
        args.max_qps_regression,
        args.max_cpu_regression,
        args.max_offline_regression,
    )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print(
        f"bench regression check passed against {Path(args.baseline).name}: "
        + _summary(current, baseline)
    )


if __name__ == "__main__":
    main()
