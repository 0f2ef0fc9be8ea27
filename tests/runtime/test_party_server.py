"""Tests for the persistent party server (one process, many jobs).

The acceptance invariants: a warm worker pair executes a *stream* of jobs
over ONE connection with zero per-request process spawns, each job
bit-identical to the in-process compiled path at the job's derived seed,
with per-job payload deltas equal to the plan manifest despite the control
traffic multiplexed onto the same connection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.runtime.server import derive_job_seed
from repro.serve import ServableModel, ShardedServingPool


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
    """One persistent worker pair shared by the whole module."""
    with ShardedServingPool(
        {"vgg": servable},
        num_shards=1,
        max_batch=4,
        provision_pools=2,
        warm_batch_sizes=(1, 2),
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
        before = warm_pool.processes_spawned
        x = np.random.default_rng(1).normal(size=(1, 3, 8, 8))
        first = warm_pool.run_batch("vgg", x)
        second = warm_pool.run_batch("vgg", x)
        assert warm_pool.processes_spawned == before == 2
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
        warm_pool.warm_up(batch_sizes=(2,), count=3)
        x = np.random.default_rng(3).normal(size=(2, 3, 8, 8))
        result = warm_pool.run_batch("vgg", x)
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
        assert set(shard.final_server_stats) == {0, 1}
        for party, stats in shard.final_server_stats.items():
            assert stats.party == party
            assert stats.jobs_executed == 1
            assert stats.control_bytes_sent + stats.control_bytes_received > 0
        # both workers exited on their own after the wire handshake
        assert all(not p.is_alive() for p in shard.processes)

    def test_plans_compile_once_per_key(self, servable):
        """The party server is the only plan store: N jobs on one (model,
        batch) key compile one plan per party, a second batch size one more."""

        def plans_compiled(batch_sizes):
            pool = ShardedServingPool(
                {"vgg": servable},
                num_shards=1,
                provision_pools=0,
                warm_batch_sizes=(),
                seed=9,
            )
            for batch in batch_sizes:
                pool.run_batch("vgg", np.zeros((batch, 3, 8, 8)))
            pool.close()
            stats = pool._shards[0].final_server_stats
            return [stats[party].plans_compiled for party in (0, 1)]

        assert plans_compiled([1, 1, 1]) == [1, 1]
        assert plans_compiled([1, 1, 2]) == [2, 2]

    def test_background_provisioner_refills_after_jobs(self, servable):
        pool = ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            provision_pools=2,
            warm_batch_sizes=(1,),
            low_water=2,
            high_water=2,
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
