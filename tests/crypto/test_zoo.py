"""Zoo-wide equivalence: oracle == production == two-party loopback.

One parametrized test holds the behaviour the runtime must keep: for every
tiny-zoo backbone, in ReLU and all-polynomial form, at batch 1 and 2, the
sequential kernel-free oracle (:func:`repro.crypto.events.run_reference`),
the in-process engine and two party threads over a loopback transport
reconstruct the **same bits**; observed traffic equals the plan's static
prediction exactly; and the manifest provisions exactly the randomness
consumed.

The counts the paper's cost model consumes (rounds, bytes, correlated-
randomness volume, Eq. 8 / Eq. 14-16) are committed per case in
``zoo_plan_table.json`` and compared with ``==``: a change that moves one
edits its row in the same diff (a failure prints the observed row).
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.crypto import PartyChannel, TwoPartyContext, make_context
from repro.crypto.dealer import TrustedDealer
from repro.crypto.events import run_reference
from repro.crypto.plan import compile_plan, record_phases
from repro.crypto.protocols.registry import get_handler
from repro.crypto.ring import DEFAULT_RING, PAPER_RING
from repro.crypto.secure_model import SecureInferenceEngine
from repro.crypto.sharing import SharePair, share
from repro.crypto.transport import LoopbackTransport
from repro.models.builder import build_model, export_layer_weights
from repro.models.mobilenet import mobilenetv2_tiny
from repro.models.resnet import resnet_tiny
from repro.models.vgg import vgg_tiny
from repro.nn.tensor import Tensor
from repro.runtime.party import execute_plan_as_party, verify_against_plan

SEED = 11
RINGS = {"r64": DEFAULT_RING, "r32": PAPER_RING}

CASES = [
    pytest.param(build, polynomial, batch, id=f"{build.__name__}-{variant}-{batch}")
    for build in (vgg_tiny, resnet_tiny, mobilenetv2_tiny)
    for polynomial, variant in ((False, "relu"), (True, "poly"))
    for batch in (1, 2)
]
PLAN_TABLE = json.loads(Path(__file__).with_name("zoo_plan_table.json").read_text())


def _trained_weights(spec):
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):  # move BN running stats off their init values
        net(Tensor(rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))))
    net.eval()
    return export_layer_weights(net)


def _resident_bytes(pool):
    """Bytes of the distinct memory blocks a pool's group stacks pin (items
    are built at pop time, so the stacks are all it holds); dead-lane
    placeholders (read-only zero-strided zeros) pin none."""
    blocks = {}
    for arrays in pool._groups.values():
        for value in arrays.values():
            if value.flags.writeable or any(value.strides):
                while value.base is not None:
                    value = value.base
                blocks[id(value)] = value.nbytes
    return sum(blocks.values())


def _loopback_logits(plan, weights, x):
    """Both parties as threads, each holding one share-world; every party's
    traffic is verified against the plan before the logits are returned."""
    ring = plan.ring
    shared = share(x, ring, np.random.default_rng(SEED + 1))
    transports = LoopbackTransport.pair(timeout=60.0)
    shares, errors = {}, []

    def party_main(party, input_share):
        try:
            ctx = TwoPartyContext(
                ring=ring, seed=SEED, channel=PartyChannel(transports[party], party, ring=ring)
            )
            pool = TrustedDealer(ring=ring, seed=SEED).preprocess(plan).restrict_to_party(party)
            # one share-world held: exactly half of the manifest's material
            assert _resident_bytes(pool) == plan.manifest.material_bytes // 2
            execution = execute_plan_as_party(ctx, party, plan, weights, input_share, pool=pool)
            stats = transports[party].stats
            verify_against_plan(plan, execution, stats)
            # rounds are the only data frames on the link
            assert stats.frames_sent == stats.round_frames_sent > 0
            assert stats.frames_received == stats.round_frames_received > 0
            # a round frame is its payloads plus the length prefix and code byte
            assert stats.overhead_bytes_sent == 5 * stats.round_frames_sent
            assert stats.overhead_bytes_received == 5 * stats.round_frames_received
            assert pool.remaining == 0
            assert execution.fused_kernel_calls > 0
            shares[party] = execution.logit_share
        except BaseException as exc:  # re-raised on the test thread
            errors.append(exc)
            transports[party].close()  # unblock the peer

    threads = [
        threading.Thread(target=party_main, args=(party, input_share))
        for party, input_share in ((0, shared.share0), (1, shared.share1))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    if errors:
        raise errors[0]
    return ring.decode(ring.add(shares[0], shares[1]))


@pytest.mark.parametrize("build,polynomial,batch", CASES)
def test_oracle_production_and_loopback_agree_bit_for_bit(build, polynomial, batch, request):
    spec = build(input_size=8)
    if polynomial:
        spec = spec.with_all_polynomial()
    weights = _trained_weights(spec)
    x = np.random.default_rng(7).normal(size=(batch, spec.in_channels, 8, 8))

    engine = SecureInferenceEngine(make_context(seed=SEED))
    plan = engine.compile(spec, batch_size=batch)
    pool = engine.preprocess(plan)
    result = engine.execute(plan, weights, x, pool=pool)
    assert result.communication_bytes == plan.online_bytes
    assert result.communication_rounds == plan.online_rounds
    assert result.execution.per_op_bytes == plan.per_op_bytes()
    assert pool.remaining == 0
    assert result.fused_kernel_calls > 0

    oracle_ctx = make_context(seed=SEED)
    oracle_pool = oracle_ctx.dealer.preprocess(plan)
    oracle_logits, oracle_per_op, _ = run_reference(
        oracle_ctx, plan, weights, x, pool=oracle_pool
    )
    assert oracle_ctx.communication_bytes == plan.online_bytes
    assert oracle_ctx.communication_rounds == plan.oracle_rounds
    assert oracle_per_op == plan.per_op_bytes()
    assert oracle_pool.remaining == 0
    assert oracle_ctx.kernels is None
    assert plan.online_rounds <= plan.oracle_rounds

    manifest = plan.manifest
    observed = {
        "num_ops": len(plan.ops),
        "schedule_rounds": plan.num_rounds,
        "unpacked_online_bytes": plan.unpacked_online_bytes,
        "manifest_hash": manifest.content_hash,
        "requests": len(manifest.requests),
        **manifest.summary(),
        "online_bytes": plan.online_bytes,
        "online_rounds": plan.online_rounds,
        "oracle_rounds": plan.oracle_rounds,
    }
    case = request.node.callspec.id
    assert observed == PLAN_TABLE.get(case), f"observed row for {case}: {json.dumps(observed)}"

    assert np.array_equal(result.logits, oracle_logits)
    assert np.array_equal(_loopback_logits(plan, weights, x), oracle_logits)


@pytest.mark.parametrize("build,polynomial,batch", CASES)
def test_per_op_bytes_sum_to_the_logged_bytes(build, polynomial, batch):
    """The executor attributes each round's logged bytes to the op that ran
    it: on every zoo plan, in process and on each of two loopback parties,
    the per-op bytes sum to the channel log's total and equal the plan's
    per-op prediction."""
    spec = build(input_size=8)
    if polynomial:
        spec = spec.with_all_polynomial()
    weights = _trained_weights(spec)
    x = np.random.default_rng(7).normal(size=(batch, spec.in_channels, 8, 8))
    plan = compile_plan(spec, batch_size=batch)
    engine = SecureInferenceEngine(make_context(seed=SEED))
    executions = [engine.execute(plan, weights, x, pool=engine.preprocess(plan)).execution]

    ring = plan.ring
    shared = share(x, ring, np.random.default_rng(SEED + 1))
    transports = LoopbackTransport.pair(timeout=60.0)

    def party_run(party, input_share):
        channel = PartyChannel(transports[party], party, ring=ring)
        ctx = TwoPartyContext(ring=ring, seed=SEED, channel=channel)
        pool = TrustedDealer(ring=ring, seed=SEED).preprocess(plan, party=party)
        return execute_plan_as_party(ctx, party, plan, weights, input_share, pool=pool)

    with ThreadPoolExecutor(max_workers=2) as workers:
        runs = [
            workers.submit(party_run, party, input_share)
            for party, input_share in ((0, shared.share0), (1, shared.share1))
        ]
        executions += [run.result(timeout=120.0) for run in runs]
    for execution in executions:
        assert sum(execution.per_op_bytes.values()) == execution.communication_bytes
        assert execution.per_op_bytes == plan.per_op_bytes()


def test_plan_table_has_exactly_one_row_per_case():
    assert sorted(PLAN_TABLE) == sorted(case.id for case in CASES)


def test_relu_rows_hold_the_compression_and_coalescing_floors():
    for case, row in PLAN_TABLE.items():
        if "-relu-" in case:
            # sub-byte packing: comparison payload at least 4x below ring width
            assert row["unpacked_online_bytes"] >= 4 * row["online_bytes"], case
            # round coalescing: strictly fewer scheduled rounds than the oracle's
            assert row["online_rounds"] < row["oracle_rounds"], case


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@pytest.mark.parametrize("build,polynomial,batch", CASES)
def test_every_interactive_op_is_data_and_lane_oblivious(build, polynomial, batch, ring):
    """The premise of recording an op's trace once on zeros: its messages
    and randomness requests depend on neither the data nor the lane held.
    Each op recorded on a random input share, with both lanes, lane 0 alone
    and lane 1 alone, gives exactly the compiled op's requests and round
    groups — a protocol whose messages varied with either would leak."""
    spec = build(input_size=8)
    if polynomial:
        spec = spec.with_all_polynomial()
    plan = compile_plan(spec, batch_size=batch, ring=ring)
    rng = np.random.default_rng(SEED)
    recorded = 0
    for op in plan.ops:
        handler = get_handler(op.kind)
        if not handler.yields:
            assert not op.requests and not op.round_groups, op.name
            continue
        x = SharePair(ring.random(op.input_shape, rng), ring.random(op.input_shape, rng), ring)
        for live in (None, 0, 1):
            trace, out = record_phases(
                lambda ctx: handler.phases(ctx, op.layer, {}, x, {}), ring, live=live
            )
            assert trace.requests == op.requests, (op.name, live)
            assert trace.groups == op.round_groups, (op.name, live)
            assert out.shape == op.output_shape, (op.name, live)
        recorded += 1
    assert recorded and recorded == sum(op.interactive for op in plan.ops)
