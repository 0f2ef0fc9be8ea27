"""Scripted faults that land on a full-duplex (exchanged) round.

A ReLU model mixes one-way rounds (the stacked OT transfer) with two-way
rounds (every opening), so a per-direction round index differs from the
schedule index — the plan's round trace names the target here, not a
hand-picked number.  A drop on the receive side and a stall on the send side of an
exchanged round must fire exactly once, at that index, and the recovered
or stalled answer must be bit-identical to the clean run: first party to
party over real sockets (where the injecting endpoint's own counters and
error text are visible), then through the serving pool's replay path.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.crypto.channel import PartyChannel
from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import TrustedDealer
from repro.crypto.faults import FaultInjected, FaultyTransport
from repro.crypto.plan import compile_plan
from repro.crypto.sharing import share
from repro.crypto.transport import TcpListener, TcpTransport
from repro.runtime.party import execute_plan_as_party
from tests.chaos.conftest import make_chaos_pool

JOB_SEED = 77


def _exchanged_round_after_a_one_way(plan, party):
    """``(send index, recv index)`` of ``party``'s first two-way round that
    follows a one-way round, in per-direction frame counts."""
    sent = received = 0
    seen_one_way = False
    for from_me, to_me in plan.round_trace:
        if party == 1:
            from_me, to_me = to_me, from_me
        if from_me and to_me and seen_one_way:
            assert sent != received  # the directions count separately
            return sent, received
        seen_one_way = seen_one_way or not (from_me and to_me)
        sent += bool(from_me)
        received += bool(to_me)
    raise AssertionError("plan has no exchanged round after a one-way round")


def _run_parties(plan, weights, batch, fault_plans):
    """Both parties as threads over a real TCP link; party ``p``'s end is
    wrapped in ``FaultyTransport(fault_plans[p])`` when given.

    Returns ``(logits or None, errors by party, transports by party)``.
    """
    with TcpListener() as listener:
        one = TcpTransport.connect("127.0.0.1", listener.port, timeout=20.0)
        zero = listener.accept(timeout=20.0)
    transports = {
        party: FaultyTransport(raw, fault_plans[party]) if party in fault_plans else raw
        for party, raw in ((0, zero), (1, one))
    }
    ring = plan.ring
    shared = share(batch, ring, np.random.default_rng(JOB_SEED + 1))
    executions, errors = {}, {}

    def party_main(party, input_share):
        try:
            pool = TrustedDealer(ring=ring, seed=JOB_SEED).preprocess(plan)
            ctx = TwoPartyContext(
                ring=ring,
                seed=JOB_SEED,
                channel=PartyChannel(transports[party], party, ring=ring),
            )
            executions[party] = execute_plan_as_party(
                ctx, party, plan, weights, input_share,
                pool=pool.restrict_to_party(party),
            )
        except Exception as exc:
            errors[party] = exc
            transports[party].close()  # the peer sees a connection loss

    threads = [
        threading.Thread(target=party_main, args=(party, input_share), daemon=True)
        for party, input_share in ((0, shared.share0), (1, shared.share1))
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        for transport in transports.values():
            transport.close()
    logits = None
    if not errors:
        logits = ring.decode(
            ring.add(executions[0].logit_share, executions[1].logit_share)
        )
    return logits, errors, transports


@pytest.fixture(scope="module")
def relu_job(relu_servable):
    spec = relu_servable.spec
    batch = np.random.default_rng(42).normal(
        size=(2, spec.in_channels, spec.input_size, spec.input_size)
    )
    plan = compile_plan(spec, batch_size=2)
    clean, errors, _ = _run_parties(plan, relu_servable.weights, batch, {})
    assert not errors
    return plan, batch, clean


def test_recv_drop_on_an_exchanged_round_fires_once_at_that_index(
    relu_servable, relu_job, drop_plan, record_fault_schedule
):
    plan, batch, clean = relu_job
    _, recv_index = _exchanged_round_after_a_one_way(plan, party=1)
    fault = drop_plan(round_index=recv_index, direction="recv", seed=17)
    record_fault_schedule({0: {1: fault}}, model="vgg-tiny-relu", level="party")

    logits, errors, transports = _run_parties(
        plan, relu_servable.weights, batch, {1: fault}
    )
    assert logits is None
    assert isinstance(errors[1], FaultInjected)
    assert f"round {recv_index} (recv direction" in str(errors[1])
    assert transports[1].stats.faults_injected == 1
    assert transports[1].stats.round_frames_received == recv_index
    assert isinstance(errors[0], ConnectionError)  # a genuine loss for the peer

    # the replay (same seed, fresh link) is bit-identical to the clean run
    replayed, errors, _ = _run_parties(plan, relu_servable.weights, batch, {})
    assert not errors
    np.testing.assert_array_equal(clean, replayed)


def test_send_stall_on_an_exchanged_round_fires_once_at_that_index(
    relu_servable, relu_job, stall_plan, record_fault_schedule
):
    plan, batch, clean = relu_job
    send_index, _ = _exchanged_round_after_a_one_way(plan, party=0)
    fault = stall_plan(round_index=send_index, stall_ms=150.0, seed=19)
    record_fault_schedule({0: {0: fault}}, model="vgg-tiny-relu", level="party")

    logits, errors, transports = _run_parties(
        plan, relu_servable.weights, batch, {0: fault}
    )
    assert not errors
    assert transports[0].stats.stalls_injected == 1
    assert transports[0].stats.faults_injected == 0
    np.testing.assert_array_equal(clean, logits)


def test_pool_replays_a_recv_drop_on_an_exchanged_round(
    relu_servable, relu_job, query_batch, drop_plan, record_fault_schedule
):
    name = "vgg-tiny-relu"
    plan, _, _ = relu_job
    batch = query_batch(relu_servable)
    _, recv_index = _exchanged_round_after_a_one_way(plan, party=1)

    with make_chaos_pool(name, relu_servable) as pool:
        reference = [pool.run_batch(name, batch).logits for _ in range(2)]

    plans = {0: {1: drop_plan(round_index=recv_index, direction="recv", seed=23)}}
    record_fault_schedule(plans, model=name)
    with make_chaos_pool(
        name, relu_servable, fault_plans=plans, max_job_retries=2
    ) as pool:
        recovered = [pool.run_batch(name, batch).logits for _ in range(2)]
        snapshot = pool.stats_snapshot()

    for clean, chaos in zip(reference, recovered):
        np.testing.assert_array_equal(clean, chaos)
    assert snapshot["jobs_retried"] == 1  # fired once, never again
    assert snapshot["jobs_recovered"] == 1
    assert snapshot["shards_respawned"] == 1
    assert snapshot["retries_exhausted"] == 0
