"""Hypothesis property: any recoverable fault schedule yields identical logits.

For *any* seeded drop schedule (round index, direction, faulted party) that
leaves at least one retry in the budget, the pool's answer is bit-identical
to the fault-free run — drops past the job's last round simply never fire,
which the property absorbs rather than excludes.

``derandomize=True`` keeps the chosen examples fixed per hypothesis version
(CI-stable, no shrink databases), and the example budget is small because
every example boots a real two-process pool.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.faults import FaultPlan
from tests.chaos.conftest import make_chaos_pool


@settings(
    max_examples=5,
    deadline=None,
    derandomize=True,
    # query_batch / record_fault_schedule are stateless factories, safe to
    # share across generated examples
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    drop_round=st.integers(min_value=0, max_value=40),
    party=st.sampled_from([0, 1]),
    direction=st.sampled_from(["send", "recv"]),
    plan_seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_recoverable_drop_schedule_is_bit_identical(
    tiny_zoo,
    query_batch,
    clean_logits,
    record_fault_schedule,
    drop_round,
    party,
    direction,
    plan_seed,
):
    name = "vgg-tiny"
    servable = tiny_zoo[name]
    batch = query_batch(servable)
    reference = clean_logits(name, batch, n_jobs=1)

    plans = {
        0: {
            party: FaultPlan(
                seed=plan_seed,
                jitter_ms=0.5,
                drop_at_round=drop_round,
                drop_direction=direction,
                max_drops=1,
            )
        }
    }
    record_fault_schedule(plans, model=name, property_example=True)
    with make_chaos_pool(
        name, servable, fault_plans=plans, max_job_retries=2
    ) as pool:
        result = pool.run_batch(name, batch)
        snapshot = pool.stats_snapshot()

    np.testing.assert_array_equal(reference[0], result.logits)
    assert snapshot["retries_exhausted"] == 0
