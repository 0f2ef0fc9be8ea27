"""Admission: one bound per model on the pool's own queue.

The daemon admits a stack of N queries for model m iff the pool's queued
plus running rows of m, plus N, fit ``queue_budget``; a stack that does not
fit is shed with a ``BackpressureError`` whose retry hint follows the
measured busy time per query.  To fill the queue these tests either hold
the only shard inside its job or let queries wait out ``max_wait`` in the
pool's queue.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.crypto.wire import encode_array
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.serve import BackpressureError, DaemonClient, ServableModel, ServingDaemon

from tests.serve.test_serving import _hold_run_job, _wait_until


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


def _stack(count: int) -> np.ndarray:
    return np.zeros((count, 3, 8, 8))


def _infer_later(daemon: ServingDaemon, model: str, count: int) -> Future:
    """One more client's ``infer`` on its own thread, as a future."""
    future: Future = Future()

    def run() -> None:
        try:
            with DaemonClient(*daemon.address, timeout=30.0) as client:
                future.set_result(client.infer(model, _stack(count)))
        except Exception as exc:  # noqa: BLE001 — handed to the test
            future.set_exception(exc)

    threading.Thread(target=run, daemon=True).start()
    return future


def _shed(daemon: ServingDaemon, model: str, count: int) -> BackpressureError:
    with DaemonClient(*daemon.address, timeout=5.0) as client:
        with pytest.raises(BackpressureError) as excinfo:
            client.infer(model, _stack(count))
    return excinfo.value


def test_stacks_of_different_sizes_share_one_budget(servable):
    """At budget 2, an admitted 2-stack waiting in the pool's queue leaves
    no room for a 1-stack of the same model."""
    with ServingDaemon(
        {"vgg": servable}, num_shards=1, max_batch=8, max_wait=1.0, seed=40, queue_budget=2
    ) as daemon:
        pair = _infer_later(daemon, "vgg", 2)
        _wait_until(lambda: len(daemon.pool._pending) == 2)
        verdict = _shed(daemon, "vgg", 1)
        assert daemon.pool.queue_depth("vgg") == 2
        assert pair.result(timeout=60).logits.shape == (2, 10)
        admission = daemon.stats_payload()["admission"]
    assert (verdict.batch_size, verdict.queue_depth, verdict.queue_budget) == (1, 2, 2)
    assert (admission["jobs_admitted"], admission["jobs_shed"]) == (2, 1)


def test_a_client_that_hangs_up_stays_counted_until_its_work_settles(servable):
    """A client that submits and disconnects leaves its query on the shard:
    the pool still holds it, so a second client's query is shed.  Once the
    job settles the depth reads 0 and the next submit is served."""
    with ServingDaemon(
        {"vgg": servable}, num_shards=1, max_batch=1, max_wait=0.0, seed=41, queue_budget=1
    ) as daemon:
        entered, release = _hold_run_job(daemon.pool)
        try:
            with DaemonClient(*daemon.address) as quitter:
                submit = {"kind": "submit", "id": 1, "model": "vgg"}
                quitter._write_frame(b"J", json.dumps(submit).encode("utf-8"))
                quitter._write_frame(b"A", encode_array(_stack(1)))
                assert entered.wait(timeout=30.0)
            _wait_until(lambda: daemon.metrics.get("connections_active") == 0)
            verdict = _shed(daemon, "vgg", 1)
            assert daemon.pool.queue_depth("vgg") == 1
        finally:
            release.set()
        _wait_until(lambda: daemon.pool.queue_depth("vgg") == 0)
        with DaemonClient(*daemon.address) as client:
            assert client.infer("vgg", _stack(1)).logits.shape == (1, 10)
        admission = daemon.stats_payload()["admission"]
    assert (verdict.queue_depth, verdict.queue_budget) == (1, 1)
    assert (admission["jobs_admitted"], admission["jobs_shed"]) == (2, 1)
    assert admission["queue_depth"] == 0


def test_each_model_has_its_own_budget(servable):
    """Two names for the same servable: while model a's query holds the
    only shard, a's next query is shed and b's is admitted."""
    with ServingDaemon(
        {"a": servable, "b": servable},
        num_shards=1, max_batch=8, max_wait=0.0, seed=42, queue_budget=1,
    ) as daemon:
        entered, release = _hold_run_job(daemon.pool)
        try:
            first = _infer_later(daemon, "a", 1)
            assert entered.wait(timeout=30.0)
            other = _infer_later(daemon, "b", 1)
            _wait_until(lambda: daemon.pool.queue_depth("b") == 1)
            verdict = _shed(daemon, "a", 1)
        finally:
            release.set()
        assert (first.result(timeout=60).model, other.result(timeout=60).model) == ("a", "b")
        admission = daemon.stats_payload()["admission"]
    assert (verdict.model, verdict.queue_depth) == ("a", 1)
    assert (admission["jobs_admitted"], admission["jobs_shed"]) == (2, 1)


def test_retry_hint_follows_the_measured_busy_time_per_query(servable):
    """Before any query is served the hint is the floor; after, it is the
    queued depth times the slots' busy seconds per served query, spread
    over the live shards."""
    from repro.serve.daemon import RETRY_FLOOR_MS

    def shed_behind_a_held_query(daemon):
        entered, release = _hold_run_job(daemon.pool)
        held = _infer_later(daemon, "vgg", 1)
        try:
            assert entered.wait(timeout=30.0)
            return _shed(daemon, "vgg", 1)
        finally:
            release.set()
            held.result(timeout=60)

    with ServingDaemon(
        {"vgg": servable}, num_shards=1, max_batch=1, max_wait=0.0, seed=43, queue_budget=1
    ) as daemon:
        cold = shed_behind_a_held_query(daemon)
        slot = daemon.pool._slots[0]
        slot.inc("busy_seconds", 2.0)  # as if the served query took 2 s longer
        busy, served = slot.get("busy_seconds"), slot.get("queries_served")
        warm = shed_behind_a_held_query(daemon)
    assert cold.retry_after_ms == RETRY_FLOOR_MS
    assert served == 1
    # one query queued ahead, on one live shard
    assert warm.retry_after_ms == pytest.approx(1e3 * busy / served)


def test_a_budget_below_one_is_refused_before_the_pool_boots():
    with pytest.raises(ValueError, match="queue_budget must be >= 1"):
        ServingDaemon({}, queue_budget=0)
