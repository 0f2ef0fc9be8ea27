"""Tests for the sharded serving pool: routing, failure, retry, restart.

The resilience contract: a killed worker pair is evicted and its in-flight
job is replayed (same ticket, same seed) on a surviving or respawned shard,
so no client future fails while retry budget remains.  With
``max_job_retries=0`` the pool keeps the legacy evict-only semantics: the
in-flight batch fails cleanly (no hang, no wedged dispatcher), the remaining
shards keep serving, and an evicted slot is rebooted with ``restart_shard``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.runtime.shard import ShardFailure
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


def _kill_shard(pool, index):
    """Simulate a worker-pair crash: SIGTERM both party processes."""
    shard = pool._shards[index]
    for process in shard.processes:
        process.terminate()
    for process in shard.processes:
        process.join(timeout=10)
    return shard


class TestShardedServing:
    def test_queries_spread_across_shards_and_stay_correct(self, servable):
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=2,
            max_batch=2,
            max_wait=0.02,
            provision_pools=2,
            seed=3,
        ) as pool:
            queries = np.random.default_rng(8).normal(size=(8, 3, 8, 8))
            futures = pool.submit_many("vgg", queries)
            results = [f.result(timeout=120) for f in futures]
            assert {r.shard for r in results} <= {0, 1}
            # every result's job seed replays bit-identically in-process
            by_job = {}
            for query, served in zip(queries, results):
                by_job.setdefault((served.shard, served.job_seed), []).append(
                    (query, served)
                )
            for (_, seed), members in by_job.items():
                inputs = np.stack([query for query, _ in members])
                engine = SecureInferenceEngine(make_context(seed=seed))
                plan = engine.compile(servable.spec, batch_size=len(members))
                reference = engine.execute(
                    plan, servable.weights, inputs,
                    pool=engine.preprocess(plan),
                )
                for row, (_, served) in enumerate(members):
                    np.testing.assert_array_equal(
                        served.logits, reference.logits[row]
                    )
            snapshot = pool.stats_snapshot()
            assert snapshot["queries_served"] == 8
            assert snapshot["processes_spawned"] == 4  # boot only, ever

    def test_killed_shard_job_is_replayed_and_slot_respawned(self, servable):
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=2,
            max_batch=2,
            provision_pools=0,
            seed=4,
            job_timeout=60,
        ) as pool:
            x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
            pool.run_batch("vgg", x)  # both shards healthy at first
            _kill_shard(pool, 0)
            # Depending on routing, jobs may land on the dead shard first:
            # those are replayed on the survivor — no job is allowed to fail
            # while retry budget remains.
            results = [pool.run_batch("vgg", x) for _ in range(4)]
            assert all(r.logits.shape == (2, 10) for r in results)
            snapshot = pool.stats_snapshot()
            assert snapshot["jobs_retried"] >= 1
            assert snapshot["jobs_recovered"] >= 1
            assert snapshot["retries_exhausted"] == 0
            # the dead slot respawns asynchronously and rejoins the pool
            deadline = time.monotonic() + 30
            while pool.live_shards < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.live_shards == 2
            assert pool.stats_snapshot()["shards_respawned"] >= 1

    def test_frontend_path_survives_shard_death(self, servable):
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=2,
            max_batch=2,
            max_wait=0.01,
            provision_pools=0,
            seed=6,
            job_timeout=60,
        ) as pool:
            _kill_shard(pool, 1)
            queries = np.random.default_rng(9).normal(size=(6, 3, 8, 8))
            futures = pool.submit_many("vgg", queries)
            # every future resolves successfully: a coalesced batch that
            # lands on the dead pair is replayed, never surfaced as an error
            results = [future.result(timeout=120) for future in futures]
            assert len(results) == 6

    def test_restart_shard_rejoins_the_pool(self, servable):
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=2,
            max_batch=2,
            provision_pools=0,
            seed=7,
            job_timeout=60,
            max_job_retries=0,  # legacy evict-only semantics
        ) as pool:
            _kill_shard(pool, 0)
            x = np.random.default_rng(2).normal(size=(1, 3, 8, 8))
            for _ in range(3):  # flush the dead pair out of the idle queue
                try:
                    pool.run_batch("vgg", x)
                except (ShardFailure, RuntimeError):
                    pass
            assert pool.live_shards == 1
            pool.restart_shard(0)
            assert pool.live_shards == 2
            assert pool.stats_snapshot()["processes_spawned"] == 6  # 2 boots + 1 restart
            # the restarted slot serves again, on a fresh seed stream
            results = {pool.run_batch("vgg", x).shard for _ in range(4)}
            assert 0 in results
            engine_check = pool.run_batch("vgg", x)
            engine = SecureInferenceEngine(make_context(seed=engine_check.seed))
            plan = engine.compile(servable.spec, batch_size=1)
            reference = engine.execute(
                plan, servable.weights, x, pool=engine.preprocess(plan)
            )
            np.testing.assert_array_equal(engine_check.logits, reference.logits)

    def test_malformed_batch_is_rejected_without_killing_the_shard(self, servable):
        """A bad query is a job-scoped error: both parties reject it before
        any frame crosses the wire, and the pair keeps serving."""
        with ShardedServingPool(
            {"vgg": servable}, num_shards=1, provision_pools=0, seed=11
        ) as pool:
            with pytest.raises(ValueError, match="expects a batch"):
                pool.run_batch("vgg", np.zeros((1, 3, 16, 16)))  # driver-side
            # bypass driver validation to exercise the server-side guard
            shard = pool._shards[0]
            with pytest.raises(ValueError, match="rejected the job"):
                shard.run_job("vgg", np.zeros((1, 3, 16, 16)))
            assert pool.live_shards == 1  # the pair survived both rejections
            good = np.random.default_rng(0).normal(size=(1, 3, 8, 8))
            result = pool.run_batch("vgg", good)
            assert result.shard == 0  # same persistent pair still serving

    def test_restarting_a_live_shard_is_refused(self, servable):
        with ShardedServingPool(
            {"vgg": servable}, num_shards=1, provision_pools=0, seed=8
        ) as pool:
            with pytest.raises(RuntimeError, match="still alive"):
                pool.restart_shard(0)

    def test_all_shards_dead_raises_instead_of_hanging(self, servable):
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            provision_pools=0,
            seed=10,
            job_timeout=30,
            max_job_retries=0,  # no replay, no auto-respawn
        ) as pool:
            _kill_shard(pool, 0)
            x = np.zeros((1, 3, 8, 8))
            with pytest.raises((ShardFailure, RuntimeError)):
                pool.run_batch("vgg", x)  # detects the death, evicts
            with pytest.raises(RuntimeError, match="no live shards"):
                pool.run_batch("vgg", x)
