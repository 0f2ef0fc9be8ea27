"""Metric names, the percentile rule and the telescoping latency ledger.

Pure arithmetic, nothing imported from the system under test: ``test_harness.py``
checks it (and that ``BENCHMARK.json`` lists exactly these names) in
milliseconds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: (name, unit, better, regression bound as a share of the parent's median)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("payload_bytes_per_query", "B", "lower", 0.01),
    ("cpu_s_per_query", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better); names are module names, see README.md for what
#: each one should move
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("loadgen.client_infer_ms", "ms", "lower"),
    ("loadgen.requests_sent", "count", "higher"),
    ("loadgen.cpu_share", "%", "lower"),
    ("serve.daemon.overhead_ms", "ms", "lower"),
    ("serve.daemon.requests_served", "count", "higher"),
    ("serve.admission.shed_count", "count", "lower"),
    ("serve.frontend.batch_wait_ms", "ms", "lower"),
    ("serve.frontend.mean_batch_size", "count", "higher"),
    ("serve.pool.dispatch_ms", "ms", "lower"),
    ("serve.pool.shard_busy_share", "%", "lower"),
    ("serve.pool.job_p50_ms", "ms", "lower"),
    ("serve.pool.jobs_retried", "count", "lower"),
    ("runtime.server.online_ms_per_job", "ms", "lower"),
    ("runtime.server.pool_hit_rate", "%", "higher"),
    ("runtime.server.cold_provision_jobs", "count", "lower"),
    ("runtime.party.loopback_ms_per_job", "ms", "lower"),
    ("crypto.transport.wire_ms_per_job", "ms", "lower"),
    ("crypto.transport.frames_per_job", "count", "lower"),
    ("crypto.transport.encode_ns_per_elem.bits1", "ns", "lower"),
    ("crypto.transport.encode_ns_per_elem.bits2", "ns", "lower"),
    ("crypto.transport.encode_ns_per_elem.ring", "ns", "lower"),
    ("crypto.transport.decode_ns_per_elem.bits1", "ns", "lower"),
    ("crypto.transport.decode_ns_per_elem.bits2", "ns", "lower"),
    ("crypto.transport.decode_ns_per_elem.ring", "ns", "lower"),
    ("crypto.transport.bytes_saved_pct", "%", "higher"),
    ("crypto.passes.online_rounds_per_job", "count", "lower"),
    ("crypto.passes.compile_ms", "ms", "lower"),
    ("crypto.plan.ops_per_job", "count", "lower"),
    ("crypto.scheduler.inprocess_ms_per_job", "ms", "lower"),
    ("crypto.scheduler.overhead_ms_per_job", "ms", "lower"),
    ("crypto.protocols.linear_cpu_ms", "ms", "lower"),
    ("crypto.protocols.comparison_cpu_ms", "ms", "lower"),
    ("crypto.protocols.x2act_cpu_ms", "ms", "lower"),
    ("crypto.protocols.other_cpu_ms", "ms", "lower"),
    ("crypto.kernels.fused_calls_per_job", "count", "higher"),
    ("crypto.kernels.cpu_ms_per_query", "ms", "lower"),
    ("crypto.dealer.preprocess_ms_per_job", "ms", "lower"),
    ("crypto.dealer.partition_ms_per_job", "ms", "lower"),
    ("crypto.dealer.material_bytes_per_job", "B", "lower"),
    ("hardware.latency.modelled_ms_per_query", "ms", "lower"),
    ("hardware.latency.measured_over_modelled", "ratio", "lower"),
)

#: the traced entry points, outermost first.  A, B, C and E are public calls
#: timed from outside; P is the party servers' own clock around
#: ``execute_plan_as_party`` as ``run_batch`` returns it, nested inside C.
NESTED_SPANS = (
    "A:DaemonClient.infer",
    "B:ShardedServingPool.submit",
    "C:ShardedServingPool.run_batch",
    "P:PoolBatchResult.online_seconds",
    "E:SecureInferenceEngine.execute",
)
#: the same job as two threads of one process over a loopback transport:
#: the process-free variant of P.  Reported, but not a ledger row — both
#: party programs then share one GIL and pay their local compute serially.
LOOPBACK_SPAN = "D:execute_plan_as_party/loopback"

#: the ledger rows: self time of each layer, telescoped from the nested
#: spans; their sum is span A
LEDGER_LAYERS = (
    "serve.daemon.overhead_ms",  # A - B: framing, admission, event loop
    "serve.frontend.batch_wait_ms",  # B - C: coalescing wait + dispatch hop
    "serve.pool.dispatch_ms",  # C - P: shard pick, share, pipe hop, reconstruct
    "crypto.transport.wire_ms_per_job",  # P - E: codec, channel, link wait
    "crypto.scheduler.overhead_ms_per_job",  # E - sum(ops)
    "crypto.protocols.ops_cpu_ms",  # sum of per-op local compute
)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in 0..100."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mix_median(samples_by_model: Dict[str, Sequence[float]]) -> float:
    """Mean over models of each model's median.

    The traced requests alternate between models of different cost; the
    plain median of such a two-humped sample jumps from one hump to the
    other with the sample count.  The mix is balanced by construction, so
    the equal-weight mean of per-model medians is the steady statistic.
    """
    return sum(median(values) for values in samples_by_model.values()) / len(samples_by_model)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond percentile ``q``."""
    return count - math.ceil(count * q / 100.0)


def highest_supported_percentile(
    count: int, candidates: Sequence[float] = (50.0, 90.0, 95.0, 99.0), beyond: int = 10
) -> float:
    """The highest candidate percentile with at least ``beyond`` samples past it.

    The reporting rule of the metrics guide: a tail percentile resting on a
    handful of samples is noise, so the harness states which tail the sample
    actually supports next to the fixed p50/p90 it reports.
    """
    supported = [q for q in candidates if samples_beyond(count, q) >= beyond]
    if not supported:
        raise ValueError(f"{count} samples support no percentile with {beyond} beyond it")
    return max(supported)


def telescope(span_medians: Sequence[float], ops_total: float) -> Dict[str, float]:
    """Layer self times from nested span medians, outermost first.

    ``span_medians`` are the medians of :data:`NESTED_SPANS` for the same requests;
    each layer's self time is its span minus the next deeper one, and the
    innermost span splits into scheduler overhead and per-op compute.  The
    rows sum to span A by construction (see :func:`closure_error`).
    """
    if len(span_medians) != len(NESTED_SPANS):
        raise ValueError(f"expected {len(NESTED_SPANS)} span medians, got {len(span_medians)}")
    rows: List[float] = [
        outer - inner for outer, inner in zip(span_medians, span_medians[1:])
    ]
    rows.append(span_medians[-1] - ops_total)
    rows.append(ops_total)
    return dict(zip(LEDGER_LAYERS, rows))


def closure_error(ledger: Dict[str, float], span_a: float) -> float:
    """|sum of the ledger rows - span A| as a share of span A."""
    return abs(sum(ledger.values()) - span_a) / span_a


def split_by_share(total: float, shares: Dict[str, float]) -> Dict[str, float]:
    """Split ``total`` proportionally to ``shares`` (the parts sum to it)."""
    weight = sum(shares.values())
    if weight <= 0:
        return {name: 0.0 for name in shares}
    return {name: total * share / weight for name, share in shares.items()}
