"""Sustained overload against the serving daemon: explicit shed verdicts,
bit-identical accepted jobs, and storm-free recovery under mid-ramp kills.

The control plane's overload contract has three legs:

1. every offered query ends in an explicit verdict — logits or a
   :class:`~repro.serve.frontend.BackpressureError` with a retry hint;
   accepted + shed must account for every submission (no silent drops);
2. the jobs that *are* accepted stay bit-identical to the in-process
   engine at their job seed, zoo-wide, no matter how hard the queue is
   being hammered;
3. killing a party mid-ramp converges — the dead shard is evicted and
   respawned without a storm, in-flight work replays (``jobs_recovered``),
   and no client future fails.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.serve import BackpressureError, DaemonClient, ServingDaemon

from tests.chaos.conftest import CHAOS_POOL_SEED

#: client threads per model x submits per thread — ~20x what one serial
#: shard drains in the same wall-clock window
THREADS_PER_MODEL = 4
SUBMITS_PER_THREAD = 5


def _replay_job(servable, queries: np.ndarray, seed: int) -> np.ndarray:
    """The in-process engine at the job seed: the bit-identity reference."""
    engine = SecureInferenceEngine(make_context(seed=seed))
    plan = engine.compile(servable.spec, batch_size=queries.shape[0])
    return engine.execute(
        plan, servable.weights, queries, pool=engine.preprocess(plan)
    ).logits


class TestSustainedOverload:
    def test_overload_sheds_explicitly_and_accepted_jobs_stay_bit_identical(
        self, tiny_zoo
    ):
        """20x sustained load over the whole zoo: every submission resolves
        to logits or an explicit backpressure verdict, the accounting closes
        exactly, and sampled accepted jobs replay bit-identically."""
        accepted: list = []  # (model, queries, job_seed, logits)
        shed: list = []  # BackpressureError instances
        failures: list = []  # anything else — must stay empty
        lock = threading.Lock()

        with ServingDaemon(
            tiny_zoo,
            num_shards=1,
            max_batch=1,  # one query == one job: per-client replay is exact
            max_wait=0.0,
            seed=CHAOS_POOL_SEED,
            job_timeout=120,
            queue_budget=2,  # tiny budget: overload *must* shed
        ) as daemon:

            def client_loop(model: str, worker: int) -> None:
                rng = np.random.default_rng(1000 + worker)
                spec = tiny_zoo[model].spec
                try:
                    with DaemonClient(*daemon.address) as client:
                        for _ in range(SUBMITS_PER_THREAD):
                            x = rng.normal(
                                size=(1, spec.in_channels, 8, 8)
                            )
                            try:
                                result = client.infer(model, x)
                            except BackpressureError as exc:
                                with lock:
                                    shed.append(exc)
                                continue
                            with lock:
                                accepted.append(
                                    (model, x, result.job_seeds[0], result.logits)
                                )
                except Exception as exc:  # noqa: BLE001 — the contract under test
                    with lock:
                        failures.append(exc)

            threads = [
                threading.Thread(target=client_loop, args=(model, i))
                for model in tiny_zoo
                for i in range(THREADS_PER_MODEL)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            stats = daemon.stats_payload()

        offered = len(tiny_zoo) * THREADS_PER_MODEL * SUBMITS_PER_THREAD
        # leg 1: explicit verdicts, exact accounting, no silent drops
        assert not failures, f"client futures failed without a verdict: {failures!r}"
        assert len(accepted) + len(shed) == offered
        assert len(accepted) > 0, "overload must not starve the pool completely"
        assert len(shed) > 0, "a 2-deep budget under 20x load must shed"
        for verdict in shed:
            assert verdict.retry_after_ms > 0
            assert verdict.queue_depth >= verdict.queue_budget == 2
        assert stats["daemon"]["client_failures"] == 0
        assert stats["admission"]["jobs_shed"] == len(shed)
        assert stats["admission"]["jobs_admitted"] == len(accepted)
        assert stats["admission"]["queue_depth_p95"] <= 2

        # leg 2: sampled accepted jobs replay bit-identically, zoo-wide
        sampled = set()
        for model, queries, job_seed, logits in accepted:
            if model in sampled:
                continue
            sampled.add(model)
            reference = _replay_job(tiny_zoo[model], queries, job_seed)
            np.testing.assert_array_equal(logits, reference)
        assert sampled == set(tiny_zoo), "every zoo model must have accepts"


class TestKillMidRamp:
    def test_sigkill_mid_ramp_recovers_and_never_fails_a_client(
        self, tiny_zoo
    ):
        """SIGKILL one party while clients ramp: the shard's worker evicts
        and respawns it without a storm, in-flight work replays, and every
        client future resolves to logits."""
        name = "vgg-tiny"
        results: list = []
        failures: list = []
        lock = threading.Lock()

        with ServingDaemon(
            {name: tiny_zoo[name]},
            num_shards=1,
            max_batch=1,
            max_wait=0.0,
            seed=CHAOS_POOL_SEED,
            job_timeout=120,
            max_job_retries=3,
            queue_budget=64,  # generous: this test is about recovery, not shed
            heartbeat_deadline=2.0,
        ) as daemon:

            def client_loop(worker: int) -> None:
                rng = np.random.default_rng(2000 + worker)
                try:
                    with DaemonClient(*daemon.address) as client:
                        for _ in range(SUBMITS_PER_THREAD):
                            x = rng.normal(size=(1, 3, 8, 8))
                            while True:  # backpressure is a verdict, not a failure
                                try:
                                    result = client.infer(name, x)
                                    break
                                except BackpressureError as exc:
                                    time.sleep(exc.retry_after_ms / 1e3)
                            with lock:
                                results.append(result)
                except Exception as exc:  # noqa: BLE001 — the contract under test
                    with lock:
                        failures.append(exc)

            threads = [
                threading.Thread(target=client_loop, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()

            # mid-ramp: wait until work is demonstrably flowing, then kill
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if daemon.pool.stats_snapshot()["jobs_executed"] >= 2:
                    break
                time.sleep(0.05)
            victim = daemon.pool._shards[0].processes[0]
            os.kill(victim.pid, signal.SIGKILL)

            for t in threads:
                t.join(timeout=300)

            # convergence: the fleet settles and still serves
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if daemon.pool.live_shards >= 1 and daemon.pool.booting_shards() == 0:
                    break
                time.sleep(0.1)
            with DaemonClient(*daemon.address) as client:
                post = client.infer(name, np.zeros((1, 3, 8, 8)))
            assert post.logits.shape == (1, 10)
            stats = daemon.stats_payload()

        assert not failures, f"client futures failed during recovery: {failures!r}"
        assert len(results) == 6 * SUBMITS_PER_THREAD
        assert stats["daemon"]["client_failures"] == 0
        # the killed pair's in-flight work replayed instead of failing
        assert stats["pool"]["jobs_recovered"] > 0
        # the dead pair was evicted and respawned without a storm
        assert 1 <= stats["pool"]["shards_respawned"] <= 3
