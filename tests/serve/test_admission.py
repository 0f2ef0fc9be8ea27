"""Tests for the admission controller: bounded queues, explicit backpressure,
EWMA load signals.

The contract: accepted work admits against a per-(model, batch) budget and
releases exactly once; work past the budget is shed with a verdict
carrying a retry-after hint (which the daemon's client raises as a
``BackpressureError``) — never buffered unboundedly, never dropped silently.
"""

from __future__ import annotations

import threading

import pytest

from repro.serve.admission import AdmissionController


class TestAdmission:
    def test_admits_until_the_budget_then_sheds(self):
        ctl = AdmissionController(queue_budget=4)
        for _ in range(4):
            assert ctl.try_admit("m", 1).admitted
        decision = ctl.try_admit("m", 1)
        assert not decision.admitted
        assert decision.queue_depth == 4
        assert decision.queue_budget == 4
        assert decision.retry_after_ms >= ctl.retry_floor_ms

    def test_budgets_are_per_model_batch_key(self):
        ctl = AdmissionController(queue_budget=2)
        assert ctl.try_admit("a", 2).admitted
        assert not ctl.try_admit("a", 2).admitted  # key (a, 2) is full
        assert ctl.try_admit("b", 2).admitted      # key (b, 2) is not
        assert ctl.try_admit("a", 1).admitted      # nor is (a, 1)

    def test_release_frees_budget(self):
        ctl = AdmissionController(queue_budget=2)
        assert ctl.try_admit("m", 2).admitted
        assert not ctl.try_admit("m", 2).admitted
        ctl.release("m", 2)
        assert ctl.try_admit("m", 2).admitted

    def test_batch_weight_counts_against_the_budget(self):
        ctl = AdmissionController(queue_budget=8)
        assert ctl.try_admit("m", 6).admitted
        assert not ctl.try_admit("m", 6).admitted  # 6 + 6 > 8
        assert ctl.queue_depth("m") == 6

    def test_retry_after_tracks_ewma_service_time(self):
        ctl = AdmissionController(queue_budget=4, ewma_alpha=1.0)
        for _ in range(4):
            ctl.try_admit("m", 1)
        ctl.release("m", 1, service_seconds=0.2)  # EWMA = 200 ms/query
        ctl.try_admit("m", 1)  # re-fill the slot
        decision = ctl.try_admit("m", 1)
        assert not decision.admitted
        # 4 queued queries * 200 ms each = 800 ms expected drain
        assert decision.retry_after_ms == pytest.approx(800.0, rel=0.01)

    def test_release_without_admit_is_harmless(self):
        ctl = AdmissionController(queue_budget=2)
        ctl.release("never-admitted", 1)
        assert ctl.queue_depth() == 0
        ctl.try_admit("m", 1)
        ctl.release("m", 1)
        ctl.release("m", 1)  # double release clamps at zero
        assert ctl.queue_depth() == 0

    def test_snapshot_counts_and_percentiles(self):
        ctl = AdmissionController(queue_budget=2)
        ctl.try_admit("m", 1)
        ctl.try_admit("m", 1)
        ctl.try_admit("m", 1)  # shed
        snap = ctl.snapshot()
        assert snap["jobs_admitted"] == 2
        assert snap["jobs_shed"] == 1
        assert snap["queue_depth"] == 2
        assert snap["queue_depth_p95"] > 0
        assert "m/b1" in snap["per_key"]

    def test_thread_safety_under_concurrent_admits(self):
        """Concurrent admit/release from many threads never corrupts the
        depth accounting (admitted - released == final depth)."""
        ctl = AdmissionController(queue_budget=1_000_000)

        def worker():
            for _ in range(500):
                decision = ctl.try_admit("m", 1)
                assert decision.admitted
                ctl.release("m", 1, service_seconds=0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ctl.queue_depth() == 0
        assert ctl.snapshot()["jobs_admitted"] == 8 * 500

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_budget=0)
        with pytest.raises(ValueError):
            AdmissionController(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            AdmissionController().try_admit("m", 0)
