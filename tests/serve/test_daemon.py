"""Tests for the serving control plane: daemon protocol, backpressure,
heartbeat supervision, autoscaling, and prompt shutdown of pending futures.

The control-plane contract mirrors the pool's resilience contract one layer
up: every client interaction ends in an explicit verdict (logits, a
backpressure error with a retry hint, or a diagnosable shutdown error) —
never a silent drop, never a hung future — and accepted jobs stay
bit-identical to the in-process engine at the job seed.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.serve import (
    AutoscalePolicy,
    BackpressureError,
    BatchingFrontend,
    DaemonClient,
    HeartbeatMiss,
    PoolShutdown,
    ServableModel,
    ServingDaemon,
    ShardedServingPool,
    ShardSupervisor,
)
from repro.serve.admission import AdmissionController
from repro.serve.daemon import http_get


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


def _replay_job(servable, queries, seed):
    """The in-process engine at the job seed: the bit-identity reference."""
    engine = SecureInferenceEngine(make_context(seed=seed))
    plan = engine.compile(servable.spec, batch_size=queries.shape[0])
    return engine.execute(
        plan, servable.weights, queries, pool=engine.preprocess(plan)
    ).logits


class TestServingDaemon:
    def test_daemon_serves_bit_identical_logits(self, servable):
        queries = np.random.default_rng(5).normal(size=(4, 3, 8, 8))
        with ServingDaemon(
            {"vgg": servable}, num_shards=1, max_batch=4, max_wait=0.01, seed=21
        ) as daemon:
            with DaemonClient(*daemon.address) as client:
                result = client.infer("vgg", queries)
        assert result.logits.shape == (4, 10)
        assert result.predicted_classes == list(result.logits.argmax(axis=1))
        # group rows by executing job and replay each one at its seed
        by_job = {}
        for row, seed in enumerate(result.job_seeds):
            by_job.setdefault(seed, []).append(row)
        for seed, rows in by_job.items():
            reference = _replay_job(servable, queries[rows], seed)
            np.testing.assert_array_equal(result.logits[rows], reference)

    def test_http_stats_and_healthz_endpoints(self, servable):
        with ServingDaemon(
            {"vgg": servable}, num_shards=1, max_batch=2, seed=22
        ) as daemon:
            with DaemonClient(*daemon.address) as client:
                client.infer("vgg", np.zeros((1, 3, 8, 8)))
            health = http_get(*daemon.address, "/healthz")
            stats = http_get(*daemon.address, "/stats")
        assert health["status"] == "ok"
        assert health["live_shards"] == 1
        assert stats["schema"] == "serving-bench/v1"
        assert stats["admission"]["jobs_admitted"] == 1
        assert stats["pool"]["jobs_executed"] >= 1
        # the new supervisor counters ride along
        for counter in (
            "heartbeats_missed",
            "shards_autoscaled_up",
            "shards_autoscaled_down",
        ):
            assert counter in stats["supervisor"]

    def test_framed_stats_healthz_and_ping(self, servable):
        with ServingDaemon(
            {"vgg": servable}, num_shards=1, max_batch=2, seed=23
        ) as daemon:
            with DaemonClient(*daemon.address) as client:
                assert client.ping()
                assert client.healthz()["status"] == "ok"
                assert client.stats()["admission"]["queue_budget"] == 64

    def test_shed_queries_get_explicit_backpressure(self, servable):
        """A query past the budget is shed with a retry hint, not dropped."""
        with ServingDaemon(
            {"vgg": servable},
            num_shards=1,
            max_batch=2,
            seed=24,
            queue_budget=1,
        ) as daemon:
            with DaemonClient(*daemon.address) as client:
                with pytest.raises(BackpressureError) as excinfo:
                    client.infer("vgg", np.zeros((2, 3, 8, 8)))  # weight 2 > 1
                assert excinfo.value.retry_after_ms > 0
                assert excinfo.value.queue_budget == 1
                # a within-budget query still serves
                result = client.infer("vgg", np.zeros((1, 3, 8, 8)))
                stats = client.stats()
        assert result.logits.shape == (1, 10)
        assert stats["admission"]["jobs_shed"] == 2
        assert stats["admission"]["jobs_admitted"] == 1

    def test_unknown_model_is_an_error_reply_not_a_hang(self, servable):
        with ServingDaemon(
            {"vgg": servable}, num_shards=1, max_batch=2, seed=25
        ) as daemon:
            with DaemonClient(*daemon.address) as client:
                with pytest.raises(RuntimeError, match="unknown model"):
                    client.infer("not-deployed", np.zeros((1, 3, 8, 8)))
                # the connection survives the rejected request
                assert client.ping()

    def test_hostile_array_body_fails_one_request_not_the_loop(self, servable):
        """12 bytes claiming 2**31 one-bit elements used to be unpacked on
        the event-loop thread (13 s, 2 GiB): now an error reply for that
        submit, a heartbeat answered right behind it, and the connection
        keeps serving."""
        import json
        import struct

        hostile = struct.pack("<BBBQ", 8, 1, 1, 2**31) + b"\x00"
        with ServingDaemon(
            {"vgg": servable}, num_shards=1, max_batch=2, seed=26
        ) as daemon:
            with DaemonClient(*daemon.address) as client:
                submit = {"kind": "submit", "id": 1, "model": "vgg"}
                start = time.perf_counter()
                client._write_frame(b"J", json.dumps(submit).encode("utf-8"))
                client._write_frame(b"A", hostile)
                client._write_frame(b"H", b"")
                kind, body = client._read_frame()
                assert client._read_frame() == (b"H", b"")
                assert time.perf_counter() - start < 1.0
                reply = json.loads(body.decode("utf-8"))
                assert (kind, reply["kind"], reply["id"]) == (b"J", "error", 1)
                assert "declares 268435456 payload bytes" in reply["error"]
                result = client.infer("vgg", np.zeros((1, 3, 8, 8)))
        assert result.logits.shape == (1, 10)


class TestHostileLengthPrefix:
    def test_client_rejects_an_oversized_prefix_before_allocating(self):
        """A daemon (or whatever answers on its port) announcing a 4 GiB
        reply gets a typed connection error, not a 4 GiB ``recv``."""
        import socket
        import struct
        import tracemalloc

        from repro.crypto.transport import FrameTooLarge

        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]

            def hostile_daemon():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)  # the ping frame
                    conn.sendall(struct.pack("<I", 0xFFFFFFFF))

            thread = threading.Thread(target=hostile_daemon)
            thread.start()
            with DaemonClient("127.0.0.1", port, timeout=5.0) as client:
                tracemalloc.start()
                try:
                    with pytest.raises(FrameTooLarge):
                        client.ping()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert peak < 1 << 20


class TestPoolShutdownError:
    def test_close_fails_pending_futures_with_diagnosable_error(self, servable):
        """Futures pending when the backend wedges during a drain fail
        promptly with queue position + elapsed wait, instead of hanging."""
        release = threading.Event()

        def wedged_backend(model, servable_, inputs):
            release.wait(timeout=30.0)
            raise RuntimeError("backend gone")

        executor = ThreadPoolExecutor(max_workers=1)
        frontend = BatchingFrontend(
            {"vgg": servable}, wedged_backend, executor, max_batch=1, max_wait=0.0
        )
        futures = [
            frontend.submit("vgg", np.zeros((3, 8, 8))) for _ in range(3)
        ]
        closer = threading.Thread(
            target=frontend.close, kwargs={"timeout": 1.0}, daemon=True
        )
        closer.start()
        # the first future wedges inside the backend; close() must not wait
        # for it forever — after its budget every future has resolved
        for position, future in enumerate(futures):
            with pytest.raises((PoolShutdown, RuntimeError)) as excinfo:
                future.result(timeout=15.0)
            if isinstance(excinfo.value, PoolShutdown):
                assert excinfo.value.queue_position >= 0
                assert excinfo.value.elapsed_seconds > 0
                assert "queue position" in str(excinfo.value)
        release.set()
        closer.join(timeout=15.0)
        assert not closer.is_alive()
        executor.shutdown(wait=True)

    def test_pool_close_rejects_waiting_batches_promptly(self, servable):
        """A batch waiting for a shard when the drain window ends gets a
        PoolShutdown, not a job_timeout-long stall."""
        pool = ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            max_batch=1,
            max_wait=0.0,
            seed=26,
            max_job_retries=0,
            job_timeout=120.0,
        )
        # evict the only shard so dispatched batches wait forever
        shard = pool._shards[0]
        shard.kill()
        future = pool.submit("vgg", np.zeros((3, 8, 8)))
        start = time.monotonic()
        pool.close(timeout=2.0)
        with pytest.raises((PoolShutdown, RuntimeError)):
            future.result(timeout=10.0)
        assert time.monotonic() - start < 60.0  # far below job_timeout


class TestHeartbeatSupervision:
    def test_sigstop_party_surfaces_heartbeat_miss(self, servable):
        """A wedged (stopped, not dead) party trips the heartbeat deadline
        with last-seen evidence instead of stalling until job_timeout."""
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            max_batch=1,
            seed=27,
            max_job_retries=0,
            heartbeat_interval=0.1,
            heartbeat_deadline=1.0,
            job_timeout=60.0,
        ) as pool:
            warm = pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
            assert warm.logits.shape == (1, 10)
            # Let a few beats flow and sweep them in, as the production
            # supervisor does: the deadline only arms once a first heartbeat
            # has been seen (otherwise a slow boot would trip it spuriously).
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                ages = pool._shards[0].poll_heartbeats()
                if all(age is not None for age in ages.values()):
                    break
                time.sleep(0.05)
            victim = pool._shards[0].processes[0]
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                start = time.monotonic()
                with pytest.raises(HeartbeatMiss) as excinfo:
                    pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
                elapsed = time.monotonic() - start
            finally:
                try:
                    os.kill(victim.pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass  # eviction's SIGTERM→SIGKILL escalation got it first
            miss = excinfo.value
            assert miss.party == 0
            assert miss.last_seen is not None  # heartbeats were flowing
            assert miss.round_index >= 0
            assert "heartbeat deadline" in str(miss)
            assert elapsed < 30.0  # deadline, not job_timeout, bounded this

    def test_supervisor_respawns_a_sigkilled_shard(self, servable):
        """The proactive sweep: a party killed while the pool idles is
        evicted and respawned before any job hits the corpse."""
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            max_batch=1,
            seed=28,
            max_job_retries=2,
            heartbeat_interval=0.1,
            heartbeat_deadline=1.0,
        ) as pool:
            supervisor = ShardSupervisor(pool, interval=0.1)
            with supervisor:
                for process in pool._shards[0].processes:
                    os.kill(process.pid, signal.SIGKILL)
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    if (
                        supervisor.shards_evicted >= 1
                        and pool.live_shards >= 1
                        and pool.booting_shards() == 0
                    ):
                        break
                    time.sleep(0.1)
                assert supervisor.shards_evicted >= 1
                assert pool.live_shards == 1
                # the respawned shard serves (and the seed stream continued)
                result = pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
                assert result.logits.shape == (1, 10)
            assert pool.shards_respawned >= 1

    def test_respawn_cooldown_brakes_storms(self, servable):
        """Two sweeps inside one cooldown window evict at most once."""
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            max_batch=1,
            seed=29,
            heartbeat_interval=0.1,
            heartbeat_deadline=0.5,
        ) as pool:
            supervisor = ShardSupervisor(pool, respawn_cooldown=60.0)
            for process in pool._shards[0].processes:
                os.kill(process.pid, signal.SIGKILL)
            for process in pool._shards[0].processes:
                process.join(timeout=10.0)  # make the death visible to the sweep
            supervisor.sweep()
            first = supervisor.shards_evicted
            supervisor.sweep()  # same slot, still inside the cooldown
            assert supervisor.shards_evicted == first == 1


class TestAutoscaling:
    def test_pool_grows_and_shrinks_explicitly(self, servable):
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            max_shards=2,
            max_batch=1,
            seed=30,
        ) as pool:
            assert pool.add_shard() == 1
            assert pool.live_shards == 2
            retired = pool.retire_shard()
            assert retired is not None
            deadline = time.monotonic() + 30.0
            while pool.live_shards > 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.live_shards == 1
            assert pool.shards_retired == 1
            # never retires the last live shard
            assert pool.retire_shard() is None
            result = pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
            assert result.logits.shape == (1, 10)

    def test_supervisor_autoscales_from_queue_depth(self, servable):
        admission = AdmissionController(queue_budget=1_000)
        policy = AutoscalePolicy(
            min_shards=1,
            max_shards=2,
            scale_up_depth=4.0,
            scale_down_depth=1.0,
            cooldown_seconds=0.1,
        )
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            max_shards=2,
            max_batch=1,
            seed=31,
        ) as pool:
            supervisor = ShardSupervisor(
                pool, admission=admission, policy=policy, interval=0.05
            )
            with supervisor:
                for _ in range(10):  # depth 10 > 4 per live shard
                    admission.try_admit("vgg", 1)
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    if pool.live_shards >= 2:
                        break
                    time.sleep(0.05)
                assert pool.live_shards == 2
                assert supervisor.shards_autoscaled_up == 1
                for _ in range(10):  # drain: depth 0 < 1 per live shard
                    admission.release("vgg", 1)
                time.sleep(0.2)  # let the scale-up cooldown lapse
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    if pool.live_shards == 1:
                        break
                    time.sleep(0.05)
                assert pool.live_shards == 1
                assert supervisor.shards_autoscaled_down == 1
