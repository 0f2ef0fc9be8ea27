"""The one metrics registry: exact under contention, bounded, and rendered."""

from __future__ import annotations

import sys
import threading

from repro.obs import WINDOW, Metrics, merge, nest


def test_concurrent_records_are_never_lost():
    """Many threads, a tiny switch interval: a lost update shows as a short count."""
    metrics = Metrics("jobs")
    threads, per_thread = 8, 1_000

    def record():
        for _ in range(per_thread):
            metrics.inc("jobs")
            metrics.inc("bytes", 3)
            metrics.observe("latency", 1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=record) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert metrics.snapshot() == {"jobs": threads * per_thread, "bytes": 3 * threads * per_thread}
    assert metrics.percentile("latency", 50) == 1.0


def test_declared_names_windows_and_helpers():
    metrics = Metrics("served")
    metrics.set("depth", -1)
    assert metrics.snapshot() == {"served": 0, "depth": -1}
    assert metrics.percentile("never_observed", 95) == 0.0
    for _ in range(5):
        metrics.observe("wait", 0.0)
    for _ in range(WINDOW):
        metrics.observe("wait", 1.0)
    assert metrics.percentile("wait", 0) == 1.0  # the oldest samples slid out
    assert merge([{"a": 1, "b": 2}, {"a": 3}]) == {"a": 4, "b": 2}
    assert nest({"a.b": 1, "a.c": 2, "d": 3}) == {"a": {"b": 1, "c": 2}, "d": 3}
