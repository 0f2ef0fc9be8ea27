"""Kill one party process mid-batch; the job must replay bit-identically.

The scripted stall pins the job in flight long enough for the killer thread
to SIGTERM one party deterministically *during* the batch — the surviving
party observes a genuine peer death, the driver evicts the pair, respawns
it, and replays the ticket.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from tests.chaos.conftest import make_chaos_pool


def test_kill_one_party_mid_batch_replays_bit_identically(
    tiny_zoo, query_batch, stall_plan, clean_logits, record_fault_schedule
):
    name = "vgg-tiny"
    servable = tiny_zoo[name]
    batch = query_batch(servable)
    reference = clean_logits(name, batch, n_jobs=2)

    # party 0 stalls 800 ms at round 2, guaranteeing the job is still in
    # flight when the killer fires at ~150 ms
    plans = {0: {0: stall_plan(round_index=2, stall_ms=800.0, seed=5)}}
    record_fault_schedule(plans, model=name, kill="shard0/party1 at 150ms")
    with make_chaos_pool(name, servable, fault_plans=plans, max_job_retries=2) as pool:
        victim = pool._shards[0].processes[1]
        killer = threading.Timer(0.15, victim.terminate)
        killer.start()
        try:
            recovered = [pool.run_batch(name, batch).logits for _ in range(2)]
        finally:
            killer.cancel()
        snapshot = pool.stats_snapshot()

    for clean, chaos in zip(reference, recovered):
        np.testing.assert_array_equal(clean, chaos)
    assert snapshot["jobs_retried"] >= 1
    assert snapshot["jobs_recovered"] >= 1
    assert snapshot["retries_exhausted"] == 0
    assert snapshot["shards_respawned"] >= 1


def test_kill_party_with_survivor_shard_routes_and_replays(
    tiny_zoo, query_batch, clean_logits, record_fault_schedule
):
    """With 2 shards, a killed pair's job replays on the survivor while the
    slot respawns — and the recovered logits still match the 1-shard clean
    run job-for-job (seed streams are per-slot, jobs here all hit slot 0's
    stream or are replays of it)."""
    name = "resnet-tiny"
    servable = tiny_zoo[name]
    batch = query_batch(servable)
    reference = clean_logits(name, batch, n_jobs=1)

    record_fault_schedule({}, model=name, kill="shard0 both parties, pre-dispatch")
    with make_chaos_pool(name, servable, num_shards=2, max_job_retries=2) as pool:
        # shard 0 sits at the head of the idle queue; kill it so the next
        # job lands on a dead pair and must be replayed on shard 1
        for process in pool._shards[0].processes:
            process.terminate()
        for process in pool._shards[0].processes:
            process.join(timeout=10)
        result = pool.run_batch(name, batch)
        snapshot = pool.stats_snapshot()

    # the replayed ticket pins shard 0's seed stream even on shard 1
    np.testing.assert_array_equal(reference[0], result.logits)
    assert result.shard == 1
    assert snapshot["jobs_recovered"] >= 1


def test_failed_replacement_boot_is_recorded_and_the_job_fails_typed(
    tiny_zoo, query_batch, record_fault_schedule, monkeypatch
):
    """A replacement pair that cannot boot must leave evidence in the stats
    (counter + error text), and the orphaned job must end in a typed error
    once no shard is left — not hang until ``job_timeout``."""
    name = "vgg-tiny"
    servable = tiny_zoo[name]
    batch = query_batch(servable)

    record_fault_schedule({}, model=name, kill="shard0 both parties; respawn boot raises")
    with make_chaos_pool(name, servable, max_job_retries=2) as pool:
        for process in pool._shards[0].processes:
            process.terminate()
        for process in pool._shards[0].processes:
            process.join(timeout=10)

        def _boot_fails(*args, **kwargs):
            raise OSError("cannot spawn the replacement pair")

        monkeypatch.setattr(pool, "_boot_shard", _boot_fails)
        with pytest.raises(RuntimeError, match="no live shards remain"):
            pool.run_batch(name, batch)
        snapshot = pool.stats_snapshot()

    assert snapshot["respawn_failures"] == 1
    assert "cannot spawn the replacement pair" in snapshot["last_respawn_error"]
    assert snapshot["shards_respawned"] == 0
    assert snapshot["live_shards"] == 0
