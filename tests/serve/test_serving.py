"""Tests for the pool's one queue: the batching policy and its lifecycle.

The policy (:func:`repro.serve.frontend.take_batch`) is a pure function of
the queue and the clock, so it is pinned by one table with ``now`` injected
and no processes.  The lifecycle runs against a real 1-shard pool.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.serve import PoolShutdown, ServableModel, ShardedServingPool
from repro.serve.frontend import _Job, _Query, take_batch


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


# --------------------------------------------------------------------------- #
# The policy
# --------------------------------------------------------------------------- #
def _queue(spec):
    """``"a0@0.0 b1@2.0 J5"`` -> queue items: a query labelled 0 for model
    ``a`` submitted at t=0.0, ..., and a sealed job of model ``a`` labelled 5.
    A label rides in the item's data, so a taken job reads back as labels."""
    items = []
    for token in spec.split():
        if token.startswith("J"):
            items.append(_Job("a", np.array([[float(token[1:])]]), [], 0.0, Future()))
        else:
            head, at = token.split("@")
            items.append(_Query(head[0], np.array([float(head[1:])]), Future(), float(at)))
    return items


#: (queue, max_batch, max_wait, now, flush, labels taken, wait returned, labels left)
POLICY = {
    "empty_queue_waits_for_a_submit": ("", 4, 0.01, 0.0, False, None, None, []),
    "oldest_query_waits_for_company_until_max_wait": (
        "a0@0.0", 4, 0.01, 0.004, False, None, 0.006, [0]),
    "oldest_query_leaves_alone_once_max_wait_old": (
        "a0@0.0", 4, 0.01, 0.01, False, [0], None, []),
    "a_full_bucket_leaves_before_max_wait": (
        "a0@0.0 a1@0.001", 2, 0.01, 0.002, False, [0, 1], None, []),
    "max_batch_caps_the_batch": (
        "a0@0.0 a1@0.0 a2@0.0 a3@0.0 a4@0.0", 2, 0.05, 0.0, False, [0, 1], None, [2, 3, 4]),
    "oldest_model_first": ("b0@0.0 a1@0.1 b2@0.2", 8, 0.0, 1.0, False, [0, 2], None, [1]),
    "fifo_within_a_model_across_others": (
        "a0@0.0 b1@0.1 a2@0.2 a3@0.3", 8, 0.0, 1.0, False, [0, 2, 3], None, [1]),
    "a_full_younger_bucket_leaves_while_the_oldest_waits": (
        "a0@0.0 b1@0.001 b2@0.002", 2, 0.01, 0.003, False, [1, 2], None, [0]),
    "sealed_jobs_run_alone_and_first": (
        "a0@0.0 a1@0.0 J5 a2@0.0", 8, 0.0, 1.0, False, [5], None, [0, 1, 2]),
    "a_requeued_job_at_the_head_runs_before_a_later_sealed_one": (
        "J5 a0@0.0 J6", 8, 0.0, 1.0, False, [5], None, [0, 6]),
    "a_requests_queries_leave_together_when_they_fit": (
        "a0@0.5 a1@0.5 a2@0.5", 4, 0.0, 0.5, False, [0, 1, 2], None, []),
    "two_requests_fill_one_batch": (
        "a0@0.0 a1@0.0 a2@0.001 a3@0.001", 4, 0.01, 0.002, False, [0, 1, 2, 3], None, []),
    "closing_flushes_a_bucket_that_is_not_due": (
        "a0@0.0 a1@0.0", 8, 30.0, 0.0, True, [0, 1], None, []),
}


def _labels(items):
    return [
        int(item.inputs.ravel()[0]) if isinstance(item, _Job) else int(item.query[0])
        for item in items
    ]


@pytest.mark.parametrize("case", list(POLICY))
def test_take_batch(case):
    spec, max_batch, max_wait, now, flush, taken, wait, left = POLICY[case]
    pending = _queue(spec)
    job, waited = take_batch(pending, max_batch, max_wait, now, flush=flush)
    if taken is None:
        assert job is None
    else:
        assert [int(x) for x in job.inputs.ravel()] == taken
        assert {q.model for q in job.queries} <= {job.model}
    if wait is None:
        assert waited is None
    else:
        assert waited == pytest.approx(wait)
    assert _labels(pending) == left


# --------------------------------------------------------------------------- #
# The lifecycle, on a real 1-shard pool
# --------------------------------------------------------------------------- #
def _pool(models, **knobs):
    knobs = {"num_shards": 1, "provision_pools": 0, "seed": 5, **knobs}
    return ShardedServingPool(models, **knobs)


def _hold_run_job(pool):
    """Make the only shard's first job block until the returned ``release``
    is set; ``entered`` is set once the job is on the shard."""
    shard, entered, release = pool._shards[0], threading.Event(), threading.Event()
    run_job = shard.run_job

    def held(*args, **kwargs):
        entered.set()
        release.wait(timeout=30.0)
        return run_job(*args, **kwargs)

    shard.run_job = held
    return entered, release


def _wait_until(condition, timeout: float = 10.0) -> None:
    """Poll ``condition`` until it holds; fail the test after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.01)


@pytest.fixture(scope="module")
def idle_pool(servable):
    with _pool({"m": servable}, max_batch=2) as pool:
        yield pool


class TestPoolLifecycle:
    def test_unknown_model_or_shape_is_rejected_at_submit(self, servable):
        with _pool({"m": servable}, max_batch=2) as pool:
            with pytest.raises(KeyError, match="unknown model"):
                pool.submit("nope", np.zeros((3, 8, 8)))
            with pytest.raises(ValueError, match="expects a batch of shape"):
                pool.submit("m", np.zeros((3, 4, 4)))
            with pytest.raises(ValueError, match="expects a batch of shape"):
                pool.submit_many("m", np.zeros((2, 3, 4, 4)))
            assert pool.stats_snapshot()["frontend"]["queries_completed"] == 0

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, 1e15], ids=["nan", "inf", "neg_inf", "out_of_range"]
    )
    def test_non_finite_or_out_of_range_values_are_rejected_at_submit(self, idle_pool, bad):
        """The ring would encode each of these as one garbage word and the
        job would return garbage logits: every entry point refuses the
        batch, and nothing is queued."""
        queries = np.zeros((3, 3, 8, 8))
        queries[1, 2, 4, 4] = bad
        with pytest.raises(ValueError, match="takes finite inputs"):
            idle_pool.submit_many("m", queries)
        with pytest.raises(ValueError, match="takes finite inputs"):
            idle_pool.submit("m", queries[1])
        with pytest.raises(ValueError, match="takes finite inputs"):
            idle_pool.run_batch("m", queries)
        assert idle_pool.queue_depth("m") == 0
        assert idle_pool.stats_snapshot()["frontend"]["queries_completed"] == 0

    def test_submit_after_close_raises(self, servable):
        pool = _pool({"m": servable}, max_batch=2)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit("m", np.zeros((3, 8, 8)))
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_batch("m", np.zeros((1, 3, 8, 8)))

    def test_close_serves_partial_batches(self, servable):
        """Queries still queued at shutdown are served, not dropped."""
        pool = _pool({"m": servable}, max_batch=64, max_wait=30.0)
        futures = pool.submit_many("m", np.random.default_rng(5).normal(size=(2, 3, 8, 8)))
        pool.close()
        results = [future.result(timeout=5) for future in futures]
        assert [r.batch_size for r in results] == [2, 2]

    def test_close_fails_stragglers_with_queue_position_and_wait(self, servable):
        """Futures still pending when the drain window ends — one job wedged
        on the shard, two queued behind it — fail promptly with their queue
        position and elapsed wait instead of hanging."""
        pool = _pool({"m": servable}, max_batch=1, max_wait=0.0)
        entered, release = _hold_run_job(pool)
        try:
            futures = [pool.submit("m", np.zeros((3, 8, 8)))]
            assert entered.wait(timeout=30.0)
            futures += [pool.submit("m", np.zeros((3, 8, 8))) for _ in range(2)]
            start = time.monotonic()
            pool.close(timeout=1.0)
            assert time.monotonic() - start < 15.0
            for position, future in enumerate(futures):
                with pytest.raises(PoolShutdown) as excinfo:
                    future.result(timeout=1.0)
                assert excinfo.value.queue_position == position
                assert excinfo.value.elapsed_seconds > 0
                assert "queue position" in str(excinfo.value)
        finally:
            release.set()

    def test_cancelled_future_does_not_kill_the_worker(self, servable):
        """A client cancelling a queued future must not break its batch."""
        queries = np.random.default_rng(8).normal(size=(3, 3, 8, 8))
        with _pool({"m": servable}, max_batch=4, max_wait=0.25) as pool:
            futures = pool.submit_many("m", queries)
            assert futures[1].cancel()  # still queued -> cancel succeeds
            others = [futures[0].result(timeout=120), futures[2].result(timeout=120)]
            assert all(r.batch_size == 3 for r in others)
            assert futures[1].cancelled()
            # the worker survived: the pool still serves
            assert pool.submit("m", queries[0]).result(timeout=120).batch_size == 1
            assert pool.stats_snapshot()["frontend"]["batches_dispatched"] == 2

    def test_two_models_route_independently(self, servable):
        other = ServableModel(vgg_tiny(input_size=8).with_all_polynomial(), servable.weights)
        queries = np.random.default_rng(6).normal(size=(2, 3, 8, 8))
        with _pool({"a": servable, "b": other}, max_batch=4, max_wait=0.05) as pool:
            fa = pool.submit("a", queries[0])
            fb = pool.submit("b", queries[1])
            assert (fa.result(timeout=120).model, fa.result().batch_size) == ("a", 1)
            assert (fb.result(timeout=120).model, fb.result().batch_size) == ("b", 1)

    def test_a_four_query_submit_is_one_job(self, servable):
        """``submit_many`` enqueues atomically: even with ``max_wait=0`` a
        free shard never sees part of the stack — and the batch is the
        engine's at the job seed, bit for bit."""
        queries = np.random.default_rng(3).normal(size=(4, 3, 8, 8))
        with _pool({"m": servable}, max_batch=4, max_wait=0.0) as pool:
            results = [f.result(timeout=120) for f in pool.submit_many("m", queries)]
            snapshot = pool.stats_snapshot()["frontend"]
        assert [r.batch_size for r in results] == [4, 4, 4, 4]
        assert snapshot["batch_size_histogram"] == {4: 1}
        assert snapshot["queries_completed"] == 4
        assert snapshot["p95_latency_ms"] >= snapshot["p50_latency_ms"] > 0
        assert snapshot["queries_per_second"] > 0
        engine = SecureInferenceEngine(make_context(seed=results[0].job_seed))
        plan = engine.compile(servable.spec, batch_size=4)
        reference = engine.execute(plan, servable.weights, queries, pool=engine.preprocess(plan))
        np.testing.assert_array_equal(np.stack([r.logits for r in results]), reference.logits)

    def test_queries_arriving_while_the_shard_is_busy_leave_as_one_batch(self, servable):
        """Work-conserving only when a shard is free: with ``max_wait=0``,
        three queries that arrive while the only shard runs a job wait in
        the queue and leave together when it frees."""
        with _pool({"m": servable}, max_batch=8, max_wait=0.0) as pool:
            entered, release = _hold_run_job(pool)
            first = pool.submit("m", np.zeros((3, 8, 8)))
            assert entered.wait(timeout=30.0)
            queued = [pool.submit("m", np.zeros((3, 8, 8))) for _ in range(3)]
            release.set()
            assert first.result(timeout=120).batch_size == 1
            assert [f.result(timeout=120).batch_size for f in queued] == [3, 3, 3]


class TestConcurrentQueue:
    def test_each_query_is_served_exactly_once_under_contention(self, servable):
        """Four client threads against three shard workers (more than the
        cores), with a tiny switch interval: a query taken twice or lost
        would break the exact accounting of the histogram and shard totals."""
        with _pool({"m": servable}, num_shards=3, max_batch=4, max_wait=0.001) as pool:
            futures, lock = [], threading.Lock()

            def client(seed):
                rng = np.random.default_rng(seed)
                for _ in range(25):
                    stack = rng.normal(size=(int(rng.integers(1, 4)), 3, 8, 8))
                    submitted = pool.submit_many("m", stack)
                    with lock:
                        futures.extend(submitted)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
                results = [future.result(timeout=120) for future in futures]
            finally:
                sys.setswitchinterval(interval)
            # the depth admission reads is the queue itself: nothing is left
            # once every job has settled (a worker drops its job just after)
            _wait_until(lambda: pool.queue_depth() == 0)
            snapshot = pool.stats_snapshot()
        frontend = snapshot["frontend"]
        assert len(results) == frontend["queries_completed"] == snapshot["queries_served"]
        assert sum(n * count for n, count in frontend["batch_size_histogram"].items()) == len(results)
        assert frontend["queries_failed"] == 0
        assert all(1 <= r.batch_size <= 4 for r in results)


class TestNoLeakedThreads:
    def test_no_pool_thread_outlives_a_respawn_or_close(self, servable):
        """One worker thread per live shard: the dead shard's worker and the
        replacement's boot thread are gone once the slot has healed, and
        nothing the pool started survives ``close()``."""
        before = set(threading.enumerate())

        def started():
            return sorted(t.name for t in threading.enumerate() if t not in before)

        pool = _pool({"m": servable}, max_batch=2, job_timeout=60)
        try:
            assert started() == ["pool-shard0"]
            for process in pool._shards[0].processes:
                process.terminate()
                process.join(timeout=10)
            pool.run_batch("m", np.zeros((1, 3, 8, 8)))  # replayed on the replacement
            assert pool.stats_snapshot()["jobs_recovered"] == 1
            deadline = time.monotonic() + 10.0
            while started() != ["pool-shard0"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert started() == ["pool-shard0"]
        finally:
            pool.close()
        assert started() == []
