"""Tests for the persistent party server (one process, many jobs).

The acceptance invariants: a warm worker pair executes a *stream* of jobs
over ONE connection with zero per-request process spawns, each job
bit-identical to the in-process compiled path at the job's derived seed,
with per-job payload deltas equal to the plan manifest despite the control
traffic multiplexed onto the same connection.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.dealer import PARTY_FIELDS, TrustedDealer
from repro.crypto.plan import compile_plan
from repro.crypto.ring import DEFAULT_RING, PAPER_RING
from repro.crypto.secure_model import SecureInferenceEngine
from repro.crypto.sharing import share
from repro.crypto.transport import LoopbackTransport
from repro.models.builder import build_model, export_layer_weights
from repro.models.specs import LayerKind
from repro.models.resnet import resnet_tiny
from repro.models.vgg import vgg_tiny
from repro.runtime import JobRequest, ServerConfig
from repro.runtime import server as party_server
from repro.runtime.messages import JobValidationError
from repro.runtime.server import PartyServer, derive_job_seed
from repro.serve import ServableModel, ShardedServingPool
from repro.serve import pool as serve_pool


@pytest.fixture(scope="module")
def servable():
    from repro.nn.tensor import Tensor

    spec = vgg_tiny(input_size=8).with_all_polynomial()
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, 3, 8, 8))))
    net.eval()
    return ServableModel(spec, export_layer_weights(net))


@pytest.fixture(scope="module")
def warm_pool(servable):
    """One persistent worker pair shared by the whole module.

    Boot buffers batch 1 of every model; ``vgg-boot`` is left for
    :meth:`TestPersistentPartyServer.test_warm_keys_hit_the_provisioned_pools`.
    """
    with ShardedServingPool(
        {"vgg": servable, "vgg-boot": servable},
        num_shards=1,
        max_batch=4,
        provision_pools=2,
        seed=5,
    ) as pool:
        yield pool


def _reference_logits(servable, inputs, seed):
    engine = SecureInferenceEngine(make_context(seed=seed))
    plan = engine.compile(servable.spec, batch_size=inputs.shape[0])
    return engine.execute(
        plan, servable.weights, inputs, pool=engine.preprocess(plan)
    ).logits


class TestDeterministicJobSeeds:
    def test_seed_is_a_pure_function_of_the_key(self):
        assert derive_job_seed(3, "m", 4, 7) == derive_job_seed(3, "m", 4, 7)

    def test_seed_separates_models_batches_counters_and_bases(self):
        seeds = {
            derive_job_seed(0, "m", 4, 0),
            derive_job_seed(0, "m2", 4, 0),
            derive_job_seed(0, "m", 2, 0),
            derive_job_seed(0, "m", 4, 1),
            derive_job_seed(1, "m", 4, 0),
        }
        assert len(seeds) == 5


def _job(counter, seed=None, batch=1):
    return JobRequest(
        job_id=counter, model="vgg", batch_size=batch, counter=counter,
        input_share=np.zeros((batch, 3, 8, 8)), seed=seed,
    )


def _server(servable, party=0):
    plans = {("vgg", b): compile_plan(servable.spec, batch_size=b) for b in (1, 2)}
    config = ServerConfig(base_seed=3, plans=plans, weights={"vgg": servable.weights})
    return PartyServer(party, None, config)  # the buffer needs no transport


def _assert_same_material(entry, ours, theirs):
    for kind, shape, _count in entry.plan.manifest.grouped_requests():
        for name, stack in ours.group(kind, shape).items():
            assert np.array_equal(stack, theirs.group(kind, shape)[name]), (kind, shape, name)


class TestPoolBuffer:
    def test_cold_miss_generates_the_pool_the_provisioner_buffers(self, servable):
        """A miss is not a different pool: cold generation at the job's
        derived seed equals what boot provisioning would have served."""
        warm, cold = _server(servable), _server(servable)
        warm.provision("vgg", 1, 2)
        warm_entry, cold_entry = warm._entry("vgg", 1), cold._entry("vgg", 1)
        for counter in (0, 1):
            buffered, hit, seed = warm._acquire_pool(warm_entry, _job(counter))
            generated, miss_hit, miss_seed = cold._acquire_pool(cold_entry, _job(counter))
            assert (hit, miss_hit) == (True, False)
            assert seed == miss_seed == derive_job_seed(3, "vgg", 1, counter)
            _assert_same_material(warm_entry, buffered, generated)
        assert cold.metrics.get("pool_misses") == 2

    @pytest.mark.parametrize("party", [0, 1])
    def test_buffered_pools_hold_only_this_partys_share_world(self, servable, party):
        server = _server(servable, party=party)
        server.provision("vgg", 1, 1)
        entry = server._entry("vgg", 1)
        ((counter, pool),) = entry.pools
        assert pool.restricted_to == party
        seed = derive_job_seed(3, "vgg", 1, counter)
        full = TrustedDealer(server.ring, seed=seed).preprocess(entry.plan)
        for kind, shape, _count in entry.plan.manifest.grouped_requests():
            ours = pool.group(kind, shape)
            for name in PARTY_FIELDS[kind][party]:
                assert np.array_equal(ours[name], full.group(kind, shape)[name])
            for name in PARTY_FIELDS[kind][1 - party]:
                assert not ours[name].any()

    def test_provisioning_resumes_after_the_last_served_counter(self, servable):
        """A job served cold moves the producer past it, so the buffer never
        fills with pools for counters that have already run."""
        server = _server(servable)
        entry = server._entry("vgg", 1)
        _, hit, _ = server._acquire_pool(entry, _job(4))
        assert not hit
        server.provision("vgg", 1, 2)
        buffered = list(entry.pools)
        assert [counter for counter, _ in buffered] == [5, 6]
        pool, hit, _ = server._acquire_pool(entry, _job(5))
        assert hit and pool is buffered[0][1]
        assert list(entry.pools) == buffered[1:]

    def test_pinned_seed_replay_neither_consumes_nor_reorders_buffered_pools(
        self, servable
    ):
        server = _server(servable)
        server.provision("vgg", 1, 3)
        entry = server._entry("vgg", 1)
        buffered = list(entry.pools)
        assert [counter for counter, _ in buffered] == [0, 1, 2]

        # a replay pinned to another shard generation's seed stream
        pinned = derive_job_seed(99, "vgg", 1, 1)
        _, hit, seed = server._acquire_pool(entry, _job(1, seed=pinned))
        assert (hit, seed) == (False, pinned)
        assert list(entry.pools) == buffered  # same pools, same order
        pool, hit, _ = server._acquire_pool(entry, _job(0))
        assert hit and pool is buffered[0][1]
        # the head older than the job (counter 1) is stale: dropped, not served
        pool, hit, _ = server._acquire_pool(entry, _job(2))
        assert hit and pool is buffered[2][1]
        assert not entry.pools
        assert (server.metrics.get("pool_hits"), server.metrics.get("pool_misses")) == (2, 1)
        assert server.metrics.get("pools_discarded") == 1

    def test_a_job_waits_for_the_pool_the_provisioner_is_generating(self, servable):
        """Job ``c`` arriving while the provisioner generates counter ``c``
        takes that pool when it lands: no cold copy, nothing discarded."""
        server = _server(servable)
        entry = server._entry("vgg", 1)
        generate = server._pool_at_seed
        seeds, started, release = [], threading.Event(), threading.Event()

        def held_generation(entry, seed):
            seeds.append(seed)
            started.set()
            assert release.wait(timeout=30)
            return generate(entry, seed)

        server._pool_at_seed = held_generation
        provisioner = threading.Thread(target=server.provision, args=("vgg", 1, 1))
        provisioner.start()
        assert started.wait(timeout=30) and entry.generating == 0
        acquired = []
        job = threading.Thread(
            target=lambda: acquired.append(server._acquire_pool(entry, _job(0)))
        )
        job.start()
        deadline = time.monotonic() + 30
        try:
            while not server._refill._waiters:  # the job is parked on the refill
                assert len(seeds) == 1, "the job generated its pool cold"
                assert time.monotonic() < deadline, "the job did not wait"
                time.sleep(0.001)
        finally:
            release.set()
        for thread in (provisioner, job):
            thread.join(timeout=30)
            assert not thread.is_alive()
        ((pool, hit, seed),) = acquired
        assert hit and seeds == [seed] == [derive_job_seed(3, "vgg", 1, 0)]
        assert server.metrics.get("pools_discarded") == 0
        assert (server.metrics.get("pool_hits"), server.metrics.get("pool_misses")) == (1, 0)
        assert entry.generating is None and not entry.pools


class TestPersistentPartyServer:
    def test_job_stream_is_bit_identical_per_job(self, servable, warm_pool):
        """Three consecutive jobs over one connection, each bit-identical to
        the in-process engine at its own derived seed."""
        for repeat in range(3):
            x = np.random.default_rng(20 + repeat).normal(size=(2, 3, 8, 8))
            result = warm_pool.run_batch("vgg", x)
            np.testing.assert_array_equal(
                result.logits, _reference_logits(servable, x, result.seed)
            )

    def test_no_processes_spawned_after_boot(self, warm_pool):
        before = warm_pool.stats_snapshot()["processes_spawned"]
        x = np.random.default_rng(1).normal(size=(1, 3, 8, 8))
        first = warm_pool.run_batch("vgg", x)
        second = warm_pool.run_batch("vgg", x)
        assert warm_pool.stats_snapshot()["processes_spawned"] == before == 2
        # falsifiable form: both jobs were served by the SAME two OS
        # processes — a per-request spawn would show up as fresh pids
        assert first.worker_pids == second.worker_pids
        assert len(set(first.worker_pids)) == 2

    def test_per_job_payload_matches_manifest(self, servable, warm_pool):
        from repro.crypto.plan import compile_plan

        x = np.random.default_rng(2).normal(size=(2, 3, 8, 8))
        result = warm_pool.run_batch("vgg", x)
        plan = compile_plan(servable.spec, batch_size=2)
        assert result.payload_bytes_on_wire == plan.online_bytes

    def test_warm_keys_hit_the_provisioned_pools(self, servable, warm_pool):
        """Boot buffers every model's batch 1 before the shard reports
        ready, so the first job on a key no other test touches is a hit."""
        x = np.random.default_rng(3).normal(size=(1, 3, 8, 8))
        result = warm_pool.run_batch("vgg-boot", x)
        assert result.pool_hits == 2  # both parties served from the buffer
        assert result.pool_misses == 0

    def test_cold_batch_size_still_correct_but_counts_as_miss(
        self, servable, warm_pool
    ):
        x = np.random.default_rng(4).normal(size=(3, 3, 8, 8))  # batch 3: cold
        result = warm_pool.run_batch("vgg", x)
        assert result.pool_misses >= 1
        np.testing.assert_array_equal(
            result.logits, _reference_logits(servable, x, result.seed)
        )

    def test_unknown_model_fails_the_job_not_the_shard(self, warm_pool):
        with pytest.raises(KeyError):
            warm_pool.run_batch("nope", np.zeros((1, 3, 8, 8)))

    def test_graceful_shutdown_reports_server_stats(self, servable):
        pool = ShardedServingPool(
            {"vgg": servable}, num_shards=1, provision_pools=0, seed=9
        )
        x = np.random.default_rng(5).normal(size=(1, 3, 8, 8))
        pool.run_batch("vgg", x)
        pool.close()
        shard = pool._shards[0]
        assert set(shard.party_stats) == {0, 1}
        for stats in shard.party_stats.values():
            assert stats["jobs_executed"] == 1
            # wire totals ride only the shutdown reply
            assert stats["wire.control_bytes_sent"] + stats["wire.control_bytes_received"] > 0
        # both workers exited on their own after the wire handshake
        assert shard.exitcodes == [0, 0]

    def test_plans_compile_once_per_key(self, servable, monkeypatch):
        """The pool is the only compiler: it compiles every key once, and a
        shard's parties receive a plan once — batch 1 at boot, any other key
        with the first job the shard serves on it, and once more after the
        slot is respawned."""
        compiled = []

        def compile_counted(spec, batch_size, ring):
            compiled.append(batch_size)
            return compile_plan(spec, batch_size=batch_size, ring=ring)

        monkeypatch.setattr(serve_pool, "compile_plan", compile_counted)

        def received():
            return {
                shard.index: [shard.party_stats[p]["plans_received"] for p in (0, 1)]
                for shard in pool._shards
            }

        with ShardedServingPool(
            {"vgg": servable}, num_shards=2, provision_pools=0, seed=9
        ) as pool:
            for batch in (1, 1, 1):
                pool.run_batch("vgg", np.zeros((batch, 3, 8, 8)))
            assert received() == {0: [1, 1], 1: [1, 1]}
            index = pool.run_batch("vgg", np.zeros((2, 3, 8, 8))).shard
            assert received() == {index: [2, 2], 1 - index: [1, 1]}

            dead = pool._shards[index]
            for process in dead.processes:
                process.terminate()
                process.join(timeout=10)
            for _ in range(20):  # the job that finds the dead pair is replayed
                if not dead.alive:
                    break
                pool.run_batch("vgg", np.zeros((2, 3, 8, 8)))
            deadline = time.monotonic() + 60
            while (pool.live_shards, pool.booting_shards()) != (2, 0):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            replacement = pool._shards[index]
            assert replacement is not dead and not dead.alive
            x = np.zeros((2, 3, 8, 8))
            replacement.run_job("vgg", pool._plan("vgg", 2), x)
            # booted with batch 1 only, so it received batch 2 once more
            assert received()[index] == [2, 2]
        assert sorted(compiled) == [1, 2]  # each key once, in the driver

    def test_background_provisioner_refills_after_jobs(self, servable):
        pool = ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            provision_pools=2,
            seed=13,
        )
        try:
            x = np.random.default_rng(6).normal(size=(1, 3, 8, 8))
            first = pool.run_batch("vgg", x)
            assert first.pool_hits == 2
            # drain more jobs than were provisioned at boot; the background
            # provisioner must keep up (every job a hit would prove refill,
            # but allow the occasional race miss — what we require is that
            # serving never stalls and stays correct)
            hits = 0
            for repeat in range(4):
                x = np.random.default_rng(7 + repeat).normal(size=(1, 3, 8, 8))
                result = pool.run_batch("vgg", x)
                hits += result.pool_hits
            assert hits >= 4  # at least half the party-pools came pre-built
        finally:
            pool.close()


def _pair(servable, provision_pools=1):
    """Both parties' servers over one in-process link, booted with the
    batch-1 plan as a pool boots them, provisioners off: a test drives each
    refill itself with :meth:`PartyServer.refill`."""
    links = LoopbackTransport.pair()
    config = ServerConfig(
        base_seed=3,
        plans={("vgg", 1): compile_plan(servable.spec, batch_size=1)},
        weights={"vgg": servable.weights},
        provision_pools=provision_pools,
    )
    return [PartyServer(party, links[party], config) for party in (0, 1)]


def _pair_job(x, counter, plan=None):
    """Both parties' requests for one job, and its seed."""
    batch = x.shape[0]
    seed = derive_job_seed(3, "vgg", batch, counter)
    shared = share(x, DEFAULT_RING, np.random.default_rng(seed + 1))
    requests = {
        party: JobRequest(
            job_id=counter, model="vgg", batch_size=batch, counter=counter,
            input_share=part, seed=seed, plan=plan,
        )
        for party, part in ((0, shared.share0), (1, shared.share1))
    }
    return requests, seed


def _answers(servers, requests):
    """Each party's answer to its request, run on two threads as two
    processes would run them: its report, or the exception it raised."""
    answers = {}

    def run(party):
        try:
            answers[party] = servers[party].execute_job(requests[party])
        except Exception as exc:
            answers[party] = exc

    threads = [threading.Thread(target=run, args=(party,)) for party in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert set(answers) == {0, 1}
    return answers


def _run_pair_job(servable, servers, x, counter):
    """One job on both parties, shipping its plan as a shard does (only if
    the parties do not hold it yet); returns the reconstructed logits and
    the job's seed."""
    batch = x.shape[0]
    held = ("vgg", batch) in servers[0]._entries
    plan = None if held else compile_plan(servable.spec, batch_size=batch)
    requests, seed = _pair_job(x, counter, plan)
    reports = _answers(servers, requests)
    for report in reports.values():
        if isinstance(report, Exception):
            raise report
    ring = servers[0].ring
    logits = ring.decode(ring.add(reports[0].logit_share, reports[1].logit_share))
    return logits, seed


#: (batch of the job, the plan it ships) that both parties must refuse
SHIPPED_PLANS_REFUSED = {
    "not-a-plan": (2, lambda spec: {"model_name": spec.name, "batch_size": 2}),
    "wrong-batch": (2, lambda spec: compile_plan(spec, batch_size=1)),
    "wrong-ring": (2, lambda spec: compile_plan(spec, batch_size=2, ring=PAPER_RING)),
    "wrong-ring-for-a-held-key": (
        1, lambda spec: compile_plan(spec, batch_size=1, ring=PAPER_RING)
    ),
    "new-key-without-a-plan": (2, lambda spec: None),
}


@pytest.mark.parametrize(
    "batch, shipped", SHIPPED_PLANS_REFUSED.values(), ids=SHIPPED_PLANS_REFUSED.keys()
)
def test_a_shipped_plan_is_checked_before_the_wire(servable, batch, shipped):
    """A job whose shipped plan is not a plan of its batch size on the
    parties' ring — even for a key they hold — or that ships none for a key
    they do not hold, is rejected by both parties before any frame, and
    both keep serving."""
    servers = _pair(servable)
    x = np.random.default_rng(8).normal(size=(batch, 3, 8, 8))
    requests, _ = _pair_job(x, counter=0, plan=shipped(servable.spec))
    for party, server in enumerate(servers):
        held = set(server._entries)
        with pytest.raises(JobValidationError):
            server.execute_job(requests[party])
        stats = server.transport.stats
        assert (stats.control_frames_sent, stats.round_frames_sent) == (0, 0)
        assert set(server._entries) == held
    logits, seed = _run_pair_job(servable, servers, x, counter=0)
    np.testing.assert_array_equal(logits, _reference_logits(servable, x, seed))


def _relu_spec(spec):
    """The servable's spec with every activation a ReLU: its plans' first
    round group is one-way (party 0's OT table)."""
    return spec.replace_kinds(
        {layer.name: LayerKind.RELU for layer in spec.layers if layer.kind == LayerKind.X2ACT}
    )


def _local_spec(spec):
    """The servable's leading layers up to its first activation: a plan
    with no interactive op."""
    first = next(i for i, layer in enumerate(spec.layers) if layer.kind == LayerKind.X2ACT)
    return dataclasses.replace(spec, layers=spec.layers[:first])


def _uncoalesced(plan):
    """``plan`` with every round group of more than one event split into
    one group per event: the same randomness material (the same
    ``content_hash``), other round groups."""
    ops = tuple(
        dataclasses.replace(
            op, round_groups=tuple((event,) for group in op.round_groups for event in group)
        )
        for op in plan.ops
    )
    return dataclasses.replace(plan, ops=ops)


def _desynced_plans(spec, mismatch):
    """The plans (party 0's, party 1's) of one job for each desync case."""
    batch2 = functools.partial(compile_plan, batch_size=2)
    if mismatch == "plan":
        # one X²act swapped for a ReLU: the manifests differ
        swapped = next(layer.name for layer in spec.layers if layer.kind == LayerKind.X2ACT)
        return batch2(spec), batch2(spec.replace_kinds({swapped: LayerKind.RELU}))
    if mismatch == "round-groups":
        plan = batch2(_relu_spec(spec))
        return plan, _uncoalesced(plan)
    # the same plan on both parties, handed another counter
    if mismatch == "one-way-first-round":
        plan = batch2(_relu_spec(spec))
        from_0, from_1 = plan.round_trace[0]
        assert from_0 > 0 and from_1 == 0
    elif mismatch == "no-interactive-op":
        plan = batch2(_local_spec(spec))
        assert plan.num_rounds == 0
    else:
        plan = batch2(spec)
    return plan, plan


@pytest.mark.parametrize(
    "mismatch",
    ["plan", "counter", "round-groups", "one-way-first-round", "no-interactive-op"],
)
def test_desynced_parties_both_stop_before_decoding_any_round_frame(servable, mismatch):
    """Party 1 holds another plan for the key than party 0 — another
    manifest, or the same manifest with other round groups — or is handed
    another counter (on a plan whose first round group is one-way, or one
    with no interactive op): the job digest on the first round frame stops
    both parties with a typed error before either decodes a payload, and
    neither sends more than that one frame."""
    plans = _desynced_plans(servable.spec, mismatch)
    if mismatch == "round-groups":
        assert plans[0].manifest.content_hash == plans[1].manifest.content_hash
        assert plans[0].round_trace != plans[1].round_trace
    servers = _pair(servable)
    x = np.random.default_rng(9).normal(size=(2, 3, 8, 8))
    requests, _ = _pair_job(x, counter=0, plan=plans[0])
    requests[1].plan = plans[1]
    if plans[0] is plans[1]:
        requests[1].counter = 1
    answers = _answers(servers, requests)
    for party, server in enumerate(servers):
        assert isinstance(answers[party], RuntimeError), answers[party]
        assert "job desync" in str(answers[party])
        stats = server.transport.stats
        assert stats.payload_bytes_received == 0
        assert stats.round_frames_sent <= 1
        assert stats.control_frames_sent == 0


@pytest.mark.parametrize("build", [_relu_spec, _local_spec], ids=["one-way-first-round", "no-interactive-op"])
def test_a_jobs_digest_rides_its_first_round_and_costs_no_payload(servable, build):
    """A job on a plan whose first round group is one-way (the silent party
    sends its digest alone) or that has no interactive op (one empty armed
    round) is bit-identical to the engine; each party's framing overhead
    is ``5 x round frames + 8``, and no control frame is sent."""
    spec = build(servable.spec)
    plan = compile_plan(spec, batch_size=2)
    servers = _pair(servable)
    x = np.random.default_rng(10).normal(size=(2, 3, 8, 8))
    requests, seed = _pair_job(x, counter=0, plan=plan)
    reports = _answers(servers, requests)
    ring = servers[0].ring
    logits = ring.decode(ring.add(reports[0].logit_share, reports[1].logit_share))
    engine = SecureInferenceEngine(make_context(seed=seed))
    expected = engine.execute(plan, servable.weights, x, pool=engine.preprocess(plan)).logits
    np.testing.assert_array_equal(logits, expected)
    for party, server in enumerate(servers):
        stats = server.transport.stats
        assert stats.overhead_bytes_sent == 5 * stats.round_frames_sent + 8
        assert stats.overhead_bytes_received == 5 * stats.round_frames_received + 8
        # every round the party sends in, plus its digest-only frame if the
        # first round group leaves it silent
        sends = sum(1 for trace in plan.round_trace if trace[party])
        silent_first = not plan.round_trace or not plan.round_trace[0][party]
        assert stats.round_frames_sent == sends + silent_first
        assert stats.control_frames_sent == 0


def test_served_jobs_send_no_control_frame_only_shutdown_does(servable):
    """Over a stream of jobs neither party sends or receives a control
    frame; the shutdown handshake is the session's only one."""
    servers = _pair(servable)
    x = np.random.default_rng(11).normal(size=(1, 3, 8, 8))
    for counter in range(3):
        _run_pair_job(servable, servers, x, counter)
    finals = [server.shutdown() for server in servers]
    assert [final["wire.control_frames_sent"] for final in finals] == [1, 0]
    assert [final["wire.control_frames_received"] for final in finals] == [0, 1]
    assert all(final["wire.round_frames_sent"] > 0 for final in finals)


def _resident_array_bytes(server):
    """Bytes of this party's own share arrays over every buffered pool —
    counted from the arrays, not from the manifest."""
    total = 0
    with server._lock:
        for entry in server._entries.values():
            for _counter, pool in entry.pools:
                for kind, shape, _count in entry.plan.manifest.grouped_requests():
                    group = pool.group(kind, shape)
                    total += sum(group[name].nbytes for name in PARTY_FIELDS[kind][server.party])
    return total


@pytest.mark.parametrize("ring", [DEFAULT_RING, PAPER_RING], ids=["r64", "r32"])
@pytest.mark.parametrize("polynomial", [False, True], ids=["relu", "poly"])
@pytest.mark.parametrize("build", [vgg_tiny, resnet_tiny])
def test_pool_bytes_count_what_a_partys_pool_pins(build, polynomial, ring):
    """The budget's unit is a party's pool as generated: ring elements are
    uint64 words on every ring, so a 32-bit ring pins more than its
    wire-width material."""
    spec = build(input_size=8)
    if polynomial:
        spec = spec.with_all_polynomial()
    plans = {("m", 1): compile_plan(spec, batch_size=1, ring=ring)}
    config = ServerConfig(base_seed=3, plans=plans, weights={"m": {}}, ring=ring)
    for party in (0, 1):
        entry = PartyServer(party, None, config)._entry("m", 1)
        pool = TrustedDealer(ring=ring, seed=3).preprocess(entry.plan, party=party)
        owned = sum(
            pool.group(kind, shape)[name].nbytes
            for kind, shape, _count in entry.plan.manifest.grouped_requests()
            for name in PARTY_FIELDS[kind][party]
        )
        assert entry.pool_bytes == owned, party


class TestRefillAfterEveryJob:
    def test_every_job_tops_its_key_back_up_and_boot_keys_keep_their_depth(
        self, servable
    ):
        """The provisioner refills a key after each job that drew from it,
        not once it runs dry, so every job after a key's first is a hit; a
        key no job has used keeps its boot depth."""
        servers = _pair(servable)
        for server in servers:
            server.warm_up()
        for counter in range(6):
            x = np.random.default_rng(60 + counter).normal(size=(2, 3, 8, 8))
            logits, seed = _run_pair_job(servable, servers, x, counter)
            for server in servers:
                server.refill()
                assert len(server._entries[("vgg", 2)].pools) == party_server.HIGH_WATER
                assert len(server._entries[("vgg", 1)].pools) == server.config.provision_pools
                hits = server.metrics.get("pool_hits")
                assert (hits, server.metrics.get("pool_misses")) == (counter, 1), server.party
        np.testing.assert_array_equal(logits, _reference_logits(servable, x, seed))
        for server in servers:
            assert server.metrics.get("pools_discarded") == 0


class TestResidencyByBytes:
    def test_boot_buffers_batch_one_of_every_model_only(self, servable):
        provision_pools, models = 2, {"vgg": servable, "vgg-b": servable}
        with ShardedServingPool(
            models, num_shards=1, max_batch=8, provision_pools=provision_pools, seed=17
        ) as pool:
            shard = pool._shards[0]
            for party in (0, 1):
                stats = shard.party_stats[party]
                assert stats["pools_provisioned"] == provision_pools * len(models)
                # one batch-1 plan per model: no batch-8 plan was received
                assert stats["plans_received"] == len(models)
            row = pool.stats_snapshot()["per_shard"][0]
            pool_bytes = compile_plan(servable.spec, batch_size=1).manifest.material_bytes // 2
            assert row["pool_bytes_resident"] == 2 * provision_pools * len(models) * pool_bytes
            assert row["pools_evicted"] == 0

    def test_residency_never_exceeds_the_budget_and_evicts_lru_keys(
        self, servable, monkeypatch
    ):
        def pool_bytes(batch):
            return compile_plan(servable.spec, batch_size=batch).manifest.material_bytes // 2

        # room for two batch-8 pools and less than any other key's pool
        budget = 2 * pool_bytes(8) + pool_bytes(1) // 2
        monkeypatch.setattr(party_server, "POOL_BUDGET_BYTES", budget)
        servers = _pair(servable)
        for server in servers:
            server.warm_up()
        plans_before = None
        for batch in range(1, 9):
            x = np.random.default_rng(40 + batch).normal(size=(batch, 3, 8, 8))
            _run_pair_job(servable, servers, x, counter=0)
            for server in servers:
                server.refill()
                resident = _resident_array_bytes(server)
                assert resident <= budget, (batch, server.party, resident)
                assert server.metrics.get("pool_bytes_resident") == resident
        for server in servers:
            assert server.metrics.get("pools_evicted") > 0
            # (c) the most recently used key still holds its pools
            assert len(server._entries[("vgg", 8)].pools) == 2
            # every older key lost its pools but kept its plan
            assert not any(server._entries[("vgg", b)].pools for b in range(1, 8))
            plans_before = server.metrics.get("plans_received")
            assert plans_before == 8

        # (d) the first job of an evicted key: bit-identical at its derived
        # seed, served without receiving a plan again
        x = np.random.default_rng(50).normal(size=(1, 3, 8, 8))
        logits, seed = _run_pair_job(servable, servers, x, counter=1)
        assert seed == derive_job_seed(3, "vgg", 1, 1)
        np.testing.assert_array_equal(logits, _reference_logits(servable, x, seed))
        for server in servers:
            assert server.metrics.get("plans_received") == plans_before
            # the evicted key now is the most recent: refilled from the next
            # counter on, within the budget
            server.refill()
            assert [c for c, _ in server._entries[("vgg", 1)].pools][0] == 2
            assert _resident_array_bytes(server) <= budget

    def test_a_key_whose_pool_exceeds_the_budget_is_served_cold(
        self, servable, monkeypatch
    ):
        one = compile_plan(servable.spec, batch_size=1).manifest.material_bytes // 2
        monkeypatch.setattr(party_server, "POOL_BUDGET_BYTES", one)
        server = _server(servable)
        server.provision("vgg", 2, 3)
        server.provision("vgg", 1, 3)
        server.refill()
        assert server.metrics.get("pool_bytes_resident") == one
        assert len(server._entries[("vgg", 1)].pools) == 1
        assert not server._entries[("vgg", 2)].pools
        # its job generates its pool at the derived seed
        _, hit, seed = server._acquire_pool(server._entries[("vgg", 2)], _job(0, batch=2))
        assert (hit, seed) == (False, derive_job_seed(3, "vgg", 2, 0))
