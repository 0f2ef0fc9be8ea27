"""The traced run: where one request's time goes, layer by layer.

Nothing inside the program is instrumented.  The *same* seeded request is
timed at five successively deeper public entry points, each recorded as a
span (name, start, end, parent, request id):

    A  DaemonClient.infer                      (server subprocess, over TCP)
    B  ShardedServingPool.submit(...).result() (in-process pool, coalescing)
    C  ShardedServingPool.run_batch            (no coalescing)
    D  execute_plan_as_party, two threads over a loopback transport pair
       wrapped in the workload's link shaping  (no processes)
    E  SecureInferenceEngine.execute           (no transport)

A layer's self time is the median of its span minus the median of the next
deeper span, so the ledger closes on span A by construction.  Counts come
from ``/stats`` deltas around a short two-client load phase that precedes
the spans; codec, dealer and compile costs are timed directly through their
public functions on the workload's own shapes.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

import numpy as np

import ledger
from loadgen import closed_loop, connect_and_warm
from workloads import DAEMON_SEED, Workload, build_servables, request_stream

#: traced requests per run: at least MIN, at most MAX, stopping in between
#: once the span budget (a share of ``--seconds``) is spent
MIN_REQUESTS = 8
MAX_REQUESTS = 30
LOAD_PHASE_SHARE = 0.25
SPAN_BUDGET_SHARE = 0.6
#: pause before every span: the party servers refill the randomness a job
#: consumed in the background, and that refill must not bill the next span
SETTLE_SECONDS = 0.05
#: per-op compute classes of the ledger, by ``LayerKind`` value
OP_CLASSES = {
    "conv": "linear",
    "linear": "linear",
    "relu": "comparison",
    "maxpool": "comparison",
    "x2act": "x2act",
}
WIDTHS = ("bits1", "bits2", "ring")


def production_plan(engine, spec, batch: int):
    """The plan the party servers execute for ``(spec, batch)``."""
    from repro.crypto.passes import lower_plan, optimize_plan

    plan = engine.compile(spec, batch_size=batch)
    if not hasattr(plan, "schedule"):
        # compile() without flags still returns the sequential reference
        # plan; the servers run the default pass pipeline and bind kernels
        plan = lower_plan(optimize_plan(plan))
    return plan


def _frame_width(array: np.ndarray, element_bits: int) -> str:
    if array.dtype == np.uint64:
        return "ring"
    if array.dtype == np.uint8 and element_bits in (1, 2):
        return f"bits{element_bits}"
    return "other"


def loopback_job(plan, weights, queries, seed: int, latency_ms: float, frames: List):
    """Layer D: both parties as threads of this process, no pipes, no TCP.

    Returns ``(logits, start, end, frames sent by both parties)``; the
    offline material is generated before the clock starts, as on a warm
    server.  ``frames`` collects ``(width class, shape)`` of every array
    party 0 put on the wire, for the codec timing.
    """
    from repro.crypto.channel import PartyChannel
    from repro.crypto.context import TwoPartyContext
    from repro.crypto.dealer import TrustedDealer
    from repro.crypto.sharing import share
    from repro.crypto.transport import FaultPlan, LoopbackTransport, ShapedTransport
    from repro.runtime.party import execute_plan_as_party

    ring = plan.ring

    class Recording(ShapedTransport):
        def send_arrays(self, arrays, ring=ring):
            arrays = list(arrays)
            for item in arrays:
                array, bits = item if isinstance(item, tuple) else (item, 8)
                frames.append((_frame_width(np.asarray(array), bits), np.shape(array)))
            return super().send_arrays(arrays, ring)

    pools = [
        TrustedDealer(ring=ring, seed=seed).preprocess(plan).restrict_to_party(party)
        for party in (0, 1)
    ]
    shaping = FaultPlan(latency_ms=latency_ms)
    ends = LoopbackTransport.pair(timeout=60.0)
    transports = [Recording(ends[0], shaping), ShapedTransport(ends[1], shaping)]
    executions: Dict[int, object] = {}
    errors: List[BaseException] = []

    def party_main(party: int, input_share: np.ndarray) -> None:
        try:
            channel = PartyChannel(transports[party], party, ring=ring)
            ctx = TwoPartyContext(ring=ring, seed=seed, channel=channel)
            executions[party] = execute_plan_as_party(
                ctx, party, plan, weights, input_share, pool=pools[party]
            )
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)
            transports[party].close()  # unblock the peer

    start = time.perf_counter()
    shared = share(np.asarray(queries, dtype=np.float64), ring, np.random.default_rng(seed + 1))
    threads = [
        threading.Thread(target=party_main, args=(party, input_share), daemon=True)
        for party, input_share in ((0, shared.share0), (1, shared.share1))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    logits = ring.decode(ring.add(executions[0].logit_share, executions[1].logit_share))
    end = time.perf_counter()
    sent = sum(transport.stats.frames_sent for transport in transports)
    return logits, start, end, sent


def codec_ns_per_element(frames: List[Tuple[str, Tuple[int, ...]]], ring) -> Dict[str, float]:
    """encode_array / decode_array cost on the workload's own frame shapes.

    A width the workload never ships (an all-polynomial model sends no
    1- or 2-bit frames) is timed on the shapes of its ring frames instead,
    so the metric exists on every workload.
    """
    from repro.crypto.transport import decode_array, encode_array

    rng = np.random.default_rng(0)
    ring_shapes = [shape for width, shape in frames if width == "ring"]
    out = {}
    for width in WIDTHS:
        shapes = [shape for w, shape in frames if w == width] or ring_shapes
        bits = {"bits1": 1, "bits2": 2, "ring": 8}[width]
        if width == "ring":
            arrays = [rng.integers(0, 2**63, size=s, dtype=np.uint64) for s in shapes]
        else:
            arrays = [rng.integers(0, 2**bits, size=s, dtype=np.uint8) for s in shapes]
        elements = sum(a.size for a in arrays)
        encode_times, decode_times = [], []
        deadline = time.perf_counter() + 0.25
        while len(encode_times) < 5 or time.perf_counter() < deadline:
            t0 = time.perf_counter_ns()
            encoded = [encode_array(a, ring, bits) for a in arrays]
            t1 = time.perf_counter_ns()
            for blob in encoded:
                decode_array(blob)
            t2 = time.perf_counter_ns()
            encode_times.append(t1 - t0)
            decode_times.append(t2 - t1)
        out[f"crypto.transport.encode_ns_per_elem.{width}"] = ledger.median(encode_times) / elements
        out[f"crypto.transport.decode_ns_per_elem.{width}"] = ledger.median(decode_times) / elements
    return out


def offline_costs(plans: Dict[str, object], ring) -> Dict[str, float]:
    """Dealer generation and partitioning per job, averaged over the mix."""
    from repro.crypto.dealer import TrustedDealer

    preprocess, partition, material = [], [], []
    for plan in plans.values():
        pre, part = [], []
        for repeat in range(3):
            dealer = TrustedDealer(ring=ring, seed=repeat)
            t0 = time.perf_counter()
            pool = dealer.preprocess(plan)
            t1 = time.perf_counter()
            pool.partition([op.requests for op in plan.ops])
            t2 = time.perf_counter()
            pre.append(1e3 * (t1 - t0))
            part.append(1e3 * (t2 - t1))
        preprocess.append(ledger.median(pre))
        partition.append(ledger.median(part))
        material.append(plan.manifest.material_bytes)
    return {
        "crypto.dealer.preprocess_ms_per_job": float(np.mean(preprocess)),
        "crypto.dealer.partition_ms_per_job": float(np.mean(partition)),
        "crypto.dealer.material_bytes_per_job": float(np.mean(material)),
    }


def _delta(after: Dict, before: Dict, key: str):
    """``after[key] - before[key]``, or None (with a note) if the key is gone."""
    if key not in after or key not in before:
        print(f"note: /stats no longer reports {key!r}")
        return None
    return after[key] - before[key]


def load_phase_counts(before: Dict, after: Dict, wall: float) -> Dict[str, float]:
    """Per-layer counts from the ``/stats`` delta around the load phase.

    A metric whose ``/stats`` key has disappeared is left out (the caller
    prints which), so a later change of the stats schema degrades the
    ledger instead of crashing the benchmark.
    """
    pool_b, pool_a = before.get("pool", {}), after.get("pool", {})
    front_b, front_a = pool_b.get("frontend", {}), pool_a.get("frontend", {})
    out: Dict[str, float] = {}

    def put(name: str, value) -> None:
        if value is not None:
            out[name] = float(value)

    # /stats itself is answered over HTTP and is not a served request
    put("serve.daemon.requests_served",
        _delta(after.get("daemon", {}), before.get("daemon", {}), "requests_served"))
    put("serve.admission.shed_count",
        _delta(after.get("admission", {}), before.get("admission", {}), "jobs_shed"))
    put("serve.pool.jobs_retried", _delta(pool_a, pool_b, "jobs_retried"))
    queries = _delta(front_a, front_b, "queries_completed")
    batches = _delta(front_a, front_b, "batches_dispatched")
    if queries is not None and batches:
        put("serve.frontend.mean_batch_size", queries / batches)
    shards_b, shards_a = pool_b.get("per_shard", {}), pool_a.get("per_shard", {})
    busy = [
        _delta(shards_a[index], shards_b[index], "busy_seconds")
        for index in shards_a
        if index in shards_b
    ]
    if busy and None not in busy:
        put("serve.pool.shard_busy_share", 100.0 * sum(busy) / (wall * len(busy)))
    if shards_a and all("p50_job_ms" in shard for shard in shards_a.values()):
        put("serve.pool.job_p50_ms", np.mean([shard["p50_job_ms"] for shard in shards_a.values()]))
    hits, misses = _delta(pool_a, pool_b, "pool_hits"), _delta(pool_a, pool_b, "pool_misses")
    if hits is not None and misses is not None and hits + misses:
        put("runtime.server.pool_hit_rate", 100.0 * hits / (hits + misses))
        # hits and misses are counted per party; a job has two parties
        put("runtime.server.cold_provision_jobs", misses / 2.0)
    payload = _delta(pool_a, pool_b, "payload_bytes")
    unpacked = _delta(pool_a, pool_b, "unpacked_payload_bytes")
    if payload is not None and unpacked:
        put("crypto.transport.bytes_saved_pct", 100.0 * (1.0 - payload / unpacked))
    cpu_ns, served = _delta(pool_a, pool_b, "cpu_time_ns"), _delta(pool_a, pool_b, "queries_served")
    if cpu_ns is not None and served:
        put("crypto.kernels.cpu_ms_per_query", cpu_ns / served / 1e6)
    return out


def run_traced(harness, workload: Workload, seed: int, seconds: float) -> Dict[str, object]:
    from repro.crypto import make_context
    from repro.crypto.secure_model import SecureInferenceEngine
    from repro.hardware.latency import LatencyModel
    from repro.hardware.lut import build_latency_table
    from repro.serve import ShardedServingPool

    servables = build_servables(workload)
    batch = workload.queries_per_request
    # the in-process pool forks its party processes: boot it before this
    # process starts any thread
    pool = ShardedServingPool(servables, seed=DAEMON_SEED, **workload.daemon_kwargs)
    harness.pools.append(pool)
    ring = pool.ring
    server = harness.boot(workload)
    clients = connect_and_warm(workload, server.port)

    metrics: Dict[str, float] = {}
    failed = 0

    # -- load phase: the end-to-end traffic shape, for the /stats counts ---- #
    before = server.stats()
    cpu_before = time.process_time()
    records, wall = closed_loop(workload, clients, seed, LOAD_PHASE_SHARE * seconds)
    loadgen_cpu = time.process_time() - cpu_before
    metrics.update(load_phase_counts(before, server.stats(), wall))
    metrics["loadgen.requests_sent"] = float(len(records))
    metrics["loadgen.cpu_share"] = 100.0 * loadgen_cpu / wall
    failed += sum(1 for record in records if record.result is None)

    # -- compile: what every shard boot pays per (model, batch) -------------- #
    engine = SecureInferenceEngine(make_context(seed=DAEMON_SEED))
    plans, op_kinds, compile_ms = {}, {}, 0.0
    for name, servable in servables.items():
        start = time.perf_counter()
        plans[name] = production_plan(engine, servable.spec, batch)
        compile_ms += 1e3 * (time.perf_counter() - start)
        op_kinds[name] = {op.name: op.kind.value for op in plans[name].ops}
        pool.run_batch(name, np.zeros(plans[name].input_shape))  # warm layer C
    metrics["crypto.passes.compile_ms"] = compile_ms

    # -- the spans ------------------------------------------------------------ #
    A, B, C, P, E = ledger.NESTED_SPANS
    D = ledger.LOOPBACK_SPAN
    parents = {A: None, B: A, C: B, P: C, D: C, E: P}
    spans: List[Dict[str, object]] = []
    # every timing is kept per model: see ledger.mix_median
    durations: Dict[str, Dict[str, List[float]]] = {name: {} for name in parents}
    ops_totals: Dict[str, List[float]] = {}
    class_ms: Dict[str, List[float]] = {cls: [] for cls in ("linear", "comparison", "x2act", "other")}
    fused_calls, frames_per_job, rounds, op_counts = [], [], [], []
    frames: Dict[str, List] = {}
    stream = request_stream(workload, seed, 0)
    budget_end = time.perf_counter() + SPAN_BUDGET_SHARE * seconds

    def record(name: str, request: int, start: float, end: float) -> None:
        spans.append(
            {"name": name, "request": request, "parent": parents[name], "start": start, "end": end}
        )
        durations[name].setdefault(model, []).append(1e3 * (end - start))

    for request in range(MAX_REQUESTS):
        if request >= MIN_REQUESTS and time.perf_counter() > budget_end:
            break
        model, queries = next(stream)
        servable, plan = servables[model], plans[model]
        job_seed = seed * 1000 + request

        time.sleep(SETTLE_SECONDS)
        start = time.perf_counter()
        clients[0].infer(model, queries)
        record(A, request, start, time.perf_counter())

        time.sleep(SETTLE_SECONDS)
        start = time.perf_counter()
        for future in [pool.submit(model, query) for query in queries]:
            future.result()
        record(B, request, start, time.perf_counter())

        time.sleep(SETTLE_SECONDS)
        start = time.perf_counter()
        batch_result = pool.run_batch(model, queries)
        end = time.perf_counter()
        record(C, request, start, end)
        # the parties' own clock, inside C; anchored at C's end for display
        record(P, request, end - batch_result.online_seconds, end)

        time.sleep(SETTLE_SECONDS)
        # one job per model is enough to know the workload's frame shapes
        collected: List = [] if model in frames else frames.setdefault(model, [])
        logits_d, start, end, sent = loopback_job(
            plan, servable.weights, queries, job_seed, 1e3 * workload.link_latency, collected
        )
        record(D, request, start, end)
        frames_per_job.append(sent)

        inner = SecureInferenceEngine(make_context(seed=job_seed))
        offline = inner.preprocess(plan)
        start = time.perf_counter()
        result = inner.execute(plan, servable.weights, queries, pool=offline)
        record(E, request, start, time.perf_counter())
        failed += not np.array_equal(logits_d, result.logits)

        per_class = dict.fromkeys(class_ms, 0.0)
        for op_name, nanos in result.per_op_cpu_ns.items():
            per_class[OP_CLASSES.get(op_kinds[model].get(op_name), "other")] += nanos / 1e6
        for cls, value in per_class.items():
            class_ms[cls].append(value)
        ops_totals.setdefault(model, []).append(sum(per_class.values()))
        fused_calls.append(result.fused_kernel_calls)
        rounds.append(plan.online_rounds)
        op_counts.append(len(plan.ops))

    # -- the ledger ------------------------------------------------------------ #
    medians = {name: ledger.mix_median(values) for name, values in durations.items()}
    ops_total = ledger.mix_median(ops_totals)
    rows = ledger.telescope([medians[name] for name in ledger.NESTED_SPANS], ops_total)
    for name, value in rows.items():
        if name != "crypto.protocols.ops_cpu_ms":
            metrics[name] = value
    shares = {cls: float(np.mean(values)) for cls, values in class_ms.items()}
    for cls, value in ledger.split_by_share(ops_total, shares).items():
        metrics[f"crypto.protocols.{cls}_cpu_ms"] = value
    metrics["loadgen.client_infer_ms"] = medians[A]
    metrics["runtime.server.online_ms_per_job"] = medians[P]
    metrics["runtime.party.loopback_ms_per_job"] = medians[D]
    metrics["crypto.scheduler.inprocess_ms_per_job"] = medians[E]
    metrics["crypto.transport.frames_per_job"] = float(np.mean(frames_per_job))
    metrics["crypto.passes.online_rounds_per_job"] = float(np.mean(rounds))
    metrics["crypto.plan.ops_per_job"] = float(np.mean(op_counts))
    metrics["crypto.kernels.fused_calls_per_job"] = float(np.mean(fused_calls))

    all_frames = [frame for model_frames in frames.values() for frame in model_frames]
    metrics.update(codec_ns_per_element(all_frames, ring))
    metrics.update(offline_costs(plans, ring))
    modelled = float(
        np.mean(
            [
                1e3 * build_latency_table(s.spec, LatencyModel()).total_seconds(s.spec)
                for s in servables.values()
            ]
        )
    )
    metrics["hardware.latency.modelled_ms_per_query"] = modelled
    metrics["hardware.latency.measured_over_modelled"] = medians[E] / batch / modelled

    for client in clients:
        client.close()
    return {
        "attempted": len(records) + len(spans),
        "failed": failed,
        "metrics": metrics,
        "ledger": rows,
        "detail": {
            "traced_requests": len(spans) // len(parents),
            "span_medians_ms": medians,
            "ledger_closure_error": ledger.closure_error(rows, medians[A]),
            "wire_share_of_A": rows["crypto.transport.wire_ms_per_job"] / medians[A],
        },
        "spans": spans,
    }
