"""Drop-at-round recovery, zoo-wide.

The core recovery contract of the serving pool: a connection dropped at any
communication round kills the worker pair, the in-flight job is replayed
from its ticket on the respawned pair, and the recovered logits — plus every
job served afterwards — are bit-identical to the fault-free run.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.chaos.conftest import TINY_ZOO, make_chaos_pool


@pytest.mark.parametrize("name", sorted(TINY_ZOO))
def test_drop_mid_round_recovers_bit_identically_zoo_wide(
    name, tiny_zoo, query_batch, drop_plan, clean_logits, record_fault_schedule
):
    servable = tiny_zoo[name]
    batch = query_batch(servable)
    reference = clean_logits(name, batch, n_jobs=2)

    plans = {0: {0: drop_plan(round_index=3, direction="send", seed=7)}}
    record_fault_schedule(plans, model=name)
    with make_chaos_pool(name, servable, fault_plans=plans, max_job_retries=2) as pool:
        # job 0 dies at round 3 and is replayed on the respawned pair;
        # job 1 exercises the inherited seed stream of the replacement
        recovered = [pool.run_batch(name, batch).logits for _ in range(2)]
        snapshot = pool.stats_snapshot()

    for clean, chaos in zip(reference, recovered):
        np.testing.assert_array_equal(clean, chaos)
    assert snapshot["jobs_retried"] >= 1
    assert snapshot["jobs_recovered"] >= 1
    assert snapshot["retries_exhausted"] == 0
    assert snapshot["shards_respawned"] >= 1
    # the dead incarnation's counters stay in its slot's totals
    assert snapshot["shard_failures"] == 1
    assert snapshot["queries_served"] == 2 * len(batch)


def test_recv_direction_drop_recovers(
    tiny_zoo, query_batch, drop_plan, clean_logits, record_fault_schedule
):
    """A frame lost in flight (receiver-side drop) recovers identically."""
    name = "vgg-tiny"
    servable = tiny_zoo[name]
    batch = query_batch(servable)
    reference = clean_logits(name, batch, n_jobs=2)

    plans = {0: {1: drop_plan(round_index=2, direction="recv", seed=13)}}
    record_fault_schedule(plans, model=name)
    with make_chaos_pool(name, servable, fault_plans=plans, max_job_retries=2) as pool:
        recovered = [pool.run_batch(name, batch).logits for _ in range(2)]
        snapshot = pool.stats_snapshot()

    for clean, chaos in zip(reference, recovered):
        np.testing.assert_array_equal(clean, chaos)
    assert snapshot["jobs_recovered"] >= 1


def test_exhausted_retry_budget_finally_fails(
    tiny_zoo, query_batch, drop_plan, record_fault_schedule
):
    """A fault schedule deeper than the budget fails the job — loudly."""
    from repro.runtime.shard import ShardFailure

    name = "vgg-tiny"
    servable = tiny_zoo[name]
    batch = query_batch(servable)
    # every attempt is dropped: the first boot by the scripted plan, and
    # max_drops is irrelevant afterwards because the budget is zero
    plans = {0: {0: drop_plan(round_index=1, direction="send", seed=3)}}
    record_fault_schedule(plans, model=name)
    with make_chaos_pool(
        name, servable, fault_plans=plans, max_job_retries=0
    ) as pool:
        with pytest.raises((ShardFailure, RuntimeError)):
            pool.run_batch(name, batch)
        snapshot = pool.stats_snapshot()
    assert snapshot["retries_exhausted"] == 1
    assert snapshot["jobs_recovered"] == 0
