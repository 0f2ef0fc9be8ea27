"""Tests for the sharded serving pool: routing, failure, retry, respawn.

The resilience contract: a killed worker pair is evicted, its slot is
respawned on the dead shard's continued seed stream, and its in-flight job
is replayed (same ticket, same seed) on a surviving or respawned shard, so
no client future fails while retry budget remains.  With
``max_job_retries=0`` the in-flight batch fails with a typed error instead
(no hang, no wedged worker), and the slot still comes back.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.runtime.server import derive_job_seed
from repro.runtime.shard import ShardFailure
from repro.serve import ServableModel, ShardedServingPool

from tests.serve.test_serving import _wait_until


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


def _wait_for_fleet(pool, live, timeout=60.0):
    """Wait until ``live`` shards serve and no boot is in flight."""
    deadline = time.monotonic() + timeout
    while (pool.live_shards, pool.booting_shards()) != (live, 0):
        assert time.monotonic() < deadline, (pool.live_shards, pool.booting_shards())
        time.sleep(0.05)


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

    def test_killed_slot_respawns_on_its_continued_stream_at_budget_zero(
        self, servable
    ):
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=2,
            max_batch=2,
            provision_pools=0,
            seed=7,
            job_timeout=60,
            max_job_retries=0,  # no replay: the job on the dead pair fails
        ) as pool:
            dead = _kill_shard(pool, 0)
            x = np.random.default_rng(2).normal(size=(1, 3, 8, 8))
            for _ in range(3):  # the longest-idle worker, slot 0's, goes first
                try:
                    pool.run_batch("vgg", x)
                except ShardFailure:
                    break  # typed; no further job may reach the replacement
            else:
                pytest.fail("no job reached the dead pair")
            # the slot comes back by itself: no call brings it back
            _wait_for_fleet(pool, 2)
            snapshot = pool.stats_snapshot()
            assert snapshot["processes_spawned"] == 6  # 2 boots + 1 respawn
            assert snapshot["shards_respawned"] == 1
            assert snapshot["retries_exhausted"] == 1
            replacement = pool._shards[0]
            assert replacement is not dead
            assert replacement.config.base_seed == dead.config.base_seed
            # counters and job ids continue where the dead shard stopped
            state = dead.successor_state()
            assert replacement.successor_state() == state
            # drive slot 0 directly: its next job is the dead shard's next one
            served = replacement.run_job("vgg", pool.config.plans[("vgg", 1)], x)
            assert served.shard == 0
            assert served.seed == derive_job_seed(
                dead.config.base_seed, "vgg", 1, state["initial_counters"][("vgg", 1)]
            )
            engine = SecureInferenceEngine(make_context(seed=served.seed))
            plan = engine.compile(servable.spec, batch_size=1)
            reference = engine.execute(
                plan, servable.weights, x, pool=engine.preprocess(plan)
            )
            np.testing.assert_array_equal(served.logits, reference.logits)
            assert replacement.successor_state()["initial_job_id"] == (
                state["initial_job_id"] + 1
            )

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
                shard.run_job("vgg", pool.config.plans[("vgg", 1)], np.zeros((1, 3, 16, 16)))
            assert pool.live_shards == 1  # the pair survived both rejections
            good = np.random.default_rng(0).normal(size=(1, 3, 8, 8))
            result = pool.run_batch("vgg", good)
            assert result.shard == 0  # same persistent pair still serving

    def test_at_budget_zero_the_job_fails_typed_and_the_slot_returns(self, servable):
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            provision_pools=0,
            seed=10,
            job_timeout=30,
            max_job_retries=0,
        ) as pool:
            _kill_shard(pool, 0)
            x = np.zeros((1, 3, 8, 8))
            with pytest.raises(ShardFailure):
                pool.run_batch("vgg", x)  # detects the death, evicts
            # the next job waits for the replacement instead of failing
            result = pool.run_batch("vgg", x)
            assert result.shard == 0 and result.logits.shape == (1, 10)
            snapshot = pool.stats_snapshot()
            assert snapshot["retries_exhausted"] == 1
            assert snapshot["shards_respawned"] == 1
            assert snapshot["live_shards"] == 1

    def test_every_boot_of_a_slot_serves_that_slots_seed_stream(self, servable):
        """Slot ``i`` boots on ``seed + 112_648 * i`` whatever booted before:
        a respawn of slot 1 serves slot 1's stream, and slot 0 keeps its own."""
        seed = 12
        with ShardedServingPool(
            {"vgg": servable}, num_shards=2, provision_pools=0, seed=seed,
            heartbeat_deadline=1.0,  # slot 1's idle worker finds its dead pair
        ) as pool:
            dead = _kill_shard(pool, 1)
            _wait_until(lambda: pool._shards[1] is not dead)
            _wait_for_fleet(pool, 2)
            assert pool.stats_snapshot()["shards_respawned"] == 1
            assert pool._shards[1] is not dead
            assert pool._shards[0].config.base_seed == seed
            assert pool._shards[1].config.base_seed == seed + 112_648

    def test_an_answered_query_no_longer_counts_in_the_queue(self, servable):
        """A client that resubmits the moment its answer lands must not be
        counted against its own finished job."""
        with ShardedServingPool(
            {"vgg": servable}, num_shards=1, max_batch=1, max_wait=0.0,
            provision_pools=0, seed=13,
        ) as pool:
            depths = []
            for _ in range(3):
                future = pool.submit("vgg", np.zeros((3, 8, 8)))
                future.add_done_callback(lambda f: depths.append(pool.queue_depth("vgg")))
                future.result(timeout=120)
            assert depths == [0, 0, 0]


class TestPackedWireStats:
    def test_unpacked_payload_bytes_is_the_plans_count(self):
        """One ReLU job at batch 1: the pool and its shard count the plan's
        ``unpacked_online_bytes`` (zoo row ``vgg_tiny-relu-1``) and derive
        ``bytes_saved_pct`` from it and the packed payload on the wire."""
        spec = vgg_tiny(input_size=8)
        relu = ServableModel(spec, export_layer_weights(build_model(spec)))
        with ShardedServingPool(
            {"vgg": relu}, num_shards=1, max_batch=1, provision_pools=0, seed=14
        ) as pool:
            result = pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
            stats = pool.stats_snapshot()
        assert result.payload_bytes_on_wire == 109200
        for counters in (stats, stats["per_shard"][0]):
            assert counters["payload_bytes"] == 109200
            assert counters["unpacked_payload_bytes"] == 489600
            assert counters["bytes_saved_pct"] == 100 * (1 - 109200 / 489600)
