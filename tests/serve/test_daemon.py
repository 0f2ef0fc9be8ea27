"""Tests for the serving control plane: daemon protocol, backpressure,
heartbeat supervision, and prompt shutdown of pending futures.

The control-plane contract mirrors the pool's resilience contract one layer
up: every client interaction ends in an explicit verdict (logits, a
backpressure error with a retry hint, or a diagnosable shutdown error) —
never a silent drop, never a hung future — and accepted jobs stay
bit-identical to the in-process engine at the job seed.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.crypto.wire import decode_array, encode_array
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.runtime.server import BEAT_PERIOD, derive_job_seed
from repro.runtime.shard import HeartbeatMiss
from repro.serve import (
    BackpressureError,
    DaemonClient,
    PoolShutdown,
    ServableModel,
    ServingDaemon,
    ShardedServingPool,
)
from repro.serve import pool as serve_pool
from repro.serve.daemon import http_get

from tests.serve.test_serving import _hold_run_job, _wait_until

#: the sorted dotted key paths of ``/stats`` after one served request on a
#: 1-shard daemon, dynamic segments normalised — a change that moves one
#: pastes the observed list (printed on failure) into the file
STATS_KEYS = json.loads(Path(__file__).with_name("stats_keys.json").read_text())
SERVING_DOC = Path(__file__).parents[2] / "docs" / "serving.md"
#: container path -> placeholder for the segments that name runtime things
DYNAMIC_SEGMENTS = {
    "pool.frontend.batch_size_histogram": "<bucket>",
    "pool.heartbeat_ages": "<shard>",
    "pool.heartbeat_ages.<shard>": "<party>",
    "pool.per_shard": "<shard>",
}


def _key_paths(tree, prefix=""):
    for key, value in tree.items():
        segment = DYNAMIC_SEGMENTS.get(prefix, str(key))
        path = f"{prefix}.{segment}" if prefix else segment
        if isinstance(value, dict) and value:
            yield from _key_paths(value, path)
        else:
            yield path


def _documented_json(marker: str) -> dict:
    """The one JSON example in docs/serving.md that contains ``marker``."""
    blocks = re.findall(r"```json no-run\n(.*?)```", SERVING_DOC.read_text(), re.S)
    (tree,) = [json.loads(block) for block in blocks if marker in block]
    return tree


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
        observed = sorted(set(_key_paths(stats)))
        assert observed == STATS_KEYS, json.dumps(observed, indent=1)
        # the /healthz example in docs/serving.md has exactly the served keys
        assert set(health) == set(_documented_json('"ok | booting | dead"')), sorted(health)

    def test_documented_stats_tree_is_the_pinned_schema(self):
        """The ``/stats`` example in docs/serving.md has exactly the pinned
        key paths, so the page cannot drift from the daemon."""
        documented = sorted(set(_key_paths(_documented_json('"control_plane_stats"'))))
        assert documented == STATS_KEYS, json.dumps(documented, indent=1)

    def test_framed_stats_healthz_and_ping(self, servable):
        with ServingDaemon(
            {"vgg": servable}, num_shards=1, max_batch=2, seed=23
        ) as daemon:
            with DaemonClient(*daemon.address) as client:
                assert client.ping()
                assert client.healthz()["status"] == "ok"
                assert client.stats()["admission"]["queue_budget"] == 64

    def test_shed_queries_get_explicit_backpressure(self, servable):
        """A query that does not fit its model's budget on the pool's queue
        is shed with a retry hint, not dropped; once the queue drains the
        same query serves."""
        with ServingDaemon(
            {"vgg": servable},
            num_shards=1,
            max_batch=2,
            seed=24,
            queue_budget=1,
        ) as daemon, DaemonClient(*daemon.address) as client:
            # one query held on the only shard fills the budget
            entered, release = _hold_run_job(daemon.pool)
            queued = daemon.pool.submit_many("vgg", np.zeros((1, 3, 8, 8)))
            try:
                assert entered.wait(timeout=30.0)
                with pytest.raises(BackpressureError) as excinfo:
                    client.infer("vgg", np.zeros((1, 3, 8, 8)))
            finally:
                release.set()
            assert excinfo.value.retry_after_ms > 0
            assert (excinfo.value.queue_depth, excinfo.value.queue_budget) == (1, 1)
            assert queued[0].result(timeout=60).logits.shape == (10,)
            result = client.infer("vgg", np.zeros((1, 3, 8, 8)))
            stats = client.stats()
        assert result.logits.shape == (1, 10)
        assert stats["admission"]["jobs_shed"] == 1
        assert stats["admission"]["jobs_admitted"] == 1
        assert stats["daemon"]["client_failures"] == 0

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


@pytest.fixture(scope="module")
def shared_daemon(servable):
    with ServingDaemon({"vgg": servable}, num_shards=1, max_batch=2, seed=34) as daemon:
        yield daemon


class TestInvalidSubmission:
    @pytest.mark.parametrize(
        "model, stack",
        [
            ("vgg", np.zeros((0, 3, 8, 8))),
            ("not-deployed", np.zeros((1, 3, 8, 8))),
            ("vgg", np.zeros((1, 3, 4, 4))),
            ("vgg", np.zeros((1, 1, 3, 8, 8))),
            ("vgg", np.zeros((65, 3, 8, 8))),
            ("vgg", np.full((2, 3, 8, 8), np.nan)),
        ],
        ids=[
            "empty_batch", "unknown_model", "wrong_shape", "wrong_rank", "oversized_stack",
            "nan_stack",
        ],
    )
    def test_is_refused_before_admission(self, shared_daemon, model, stack):
        """A stack the pool would refuse, or one larger than the default
        budget of 64 (which no retry could ever admit), gets an error reply
        (not a client timeout or a backpressure verdict), the connection
        keeps serving, and nothing is admitted or shed."""
        failures = shared_daemon.metrics.get("client_failures")
        with DaemonClient(*shared_daemon.address, timeout=5.0) as client:
            start = time.monotonic()
            with pytest.raises(
                RuntimeError,
                match="expects a batch of shape|unknown model|exceeds the queue budget of 64"
                "|takes finite inputs",
            ):
                client.infer(model, stack)
            assert time.monotonic() - start < 5.0
            assert client.ping()
            admission = client.stats()["admission"]
        assert admission["jobs_admitted"] == admission["jobs_shed"] == 0
        assert admission["queue_depth"] == 0
        assert shared_daemon.metrics.get("client_failures") == failures + 1


class TestHostileLengthPrefix:
    def test_client_rejects_an_oversized_prefix_before_allocating(self):
        """A daemon (or whatever answers on its port) announcing a 4 GiB
        reply gets a typed connection error, not a 4 GiB ``recv``."""
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


def _read_to_eof(sock) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _error_frame_then_close(reply: bytes) -> bool:
    """Exactly one ``{"kind": "error"}`` JSON frame, then end of stream."""
    if len(reply) < 5:
        return False
    (length,) = struct.unpack("<I", reply[:4])
    frame = reply[4:]
    return (
        len(frame) == length
        and frame[:1] == b"J"
        and json.loads(frame[1:])["kind"] == "error"
    )


#: (probe, what the daemon's whole reply must look like before it closes)
HOSTILE_PROBES = {
    "http_head_past_the_reader_limit": (
        b"GET " + b"x" * 70_000,
        lambda reply: reply.startswith(b"HTTP/1.1 431 "),
    ),
    "zero_length_prefix": (struct.pack("<I", 0), _error_frame_then_close),
    "length_prefix_2_pow_31": (struct.pack("<I", 2**31), _error_frame_then_close),
}


class TestHostileListenerInput:
    def test_each_probe_gets_a_typed_reply_and_the_daemon_keeps_serving(self, servable):
        """Bytes no client should send end in a typed reply and a close —
        never in an exception escaping to the event loop's handler."""
        escaped = []
        with ServingDaemon(
            {"vgg": servable}, num_shards=1, max_batch=2, seed=32
        ) as daemon:
            daemon._loop.call_soon_threadsafe(
                daemon._loop.set_exception_handler,
                lambda loop, context: escaped.append(context),
            )
            for name, (probe, well_formed) in HOSTILE_PROBES.items():
                with socket.create_connection(daemon.address, timeout=5.0) as sock:
                    start = time.monotonic()
                    sock.sendall(probe)
                    reply = _read_to_eof(sock)
                    assert time.monotonic() - start < 1.0, name
                assert well_formed(reply), (name, reply[:200])
                assert daemon.metrics.get("connections_active") == 0, name
            with DaemonClient(*daemon.address) as client:
                # a well-framed control frame that is not an object is one
                # request's error; the connection keeps serving
                client._write_frame(b"J", b"[1]")
                assert client._recv_json()["kind"] == "error"
                assert client.ping()
            assert http_get(*daemon.address, "/healthz")["status"] == "ok"
        assert escaped == []


class TestPoolShutdownError:
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
        # the only shard dies and its replacement boot blocks until after
        # the drain window, so the batch waits for a shard the whole time
        released = threading.Event()

        def _boot_blocks(*args, **kwargs):
            released.wait(timeout=60.0)
            raise OSError("replacement boot released after close")

        pool._boot_shard = _boot_blocks
        pool._shards[0].kill()
        future = pool.submit("vgg", np.zeros((3, 8, 8)))
        try:
            deadline = time.monotonic() + 10.0
            while pool.booting_shards() == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            start = time.monotonic()
            pool.close(timeout=2.0)
            with pytest.raises(PoolShutdown):
                future.result(timeout=10.0)
            assert time.monotonic() - start < 60.0  # far below job_timeout
        finally:
            released.set()
            for thread in list(pool._threads):
                thread.join(timeout=10.0)


class TestHeartbeatSupervision:
    @pytest.mark.parametrize("victim_party", [0, 1])
    def test_sigstop_party_surfaces_heartbeat_miss(self, servable, victim_party):
        """A wedged (stopped, not dead) party trips the heartbeat deadline
        with last-seen evidence instead of stalling until job_timeout —
        also party 1, whose peer the driver awaits first while that peer
        blocks on the wire and keeps beating."""
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            max_batch=1,
            seed=27,
            max_job_retries=0,
            heartbeat_deadline=1.0,
            job_timeout=60.0,
        ) as pool:
            warm = pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
            assert warm.logits.shape == (1, 10)
            # The deadline only arms once a first beat has been seen
            # (otherwise a slow boot would trip it spuriously): wait for one
            # from each party.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                ages = pool._shards[0].heartbeat_ages()
                if all(age is not None for age in ages.values()):
                    break
                time.sleep(0.05)
            victim = pool._shards[0].processes[victim_party].pid  # closed once evicted
            os.kill(victim, signal.SIGSTOP)
            try:
                start = time.monotonic()
                with pytest.raises(HeartbeatMiss) as excinfo:
                    pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
                elapsed = time.monotonic() - start
            finally:
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass  # eviction's SIGTERM→SIGKILL escalation got it first
            miss = excinfo.value
            assert miss.party == victim_party
            assert miss.last_seen is not None  # heartbeats were flowing
            assert miss.round_index >= 0
            assert "heartbeat deadline" in str(miss)
            assert elapsed < 30.0  # deadline, not job_timeout, bounded this

    def test_an_idle_pool_queues_nothing_on_its_control_pipes(self, servable):
        """Liveness does not ride on the control pipe: with nothing draining
        it, a pool that served one job and then idled for several beat
        periods (its worker checking the shard all along) has nothing to
        read on either pipe, and both parties' beats are fresh."""
        with ShardedServingPool(
            {"vgg": servable}, num_shards=1, max_batch=1, seed=33, heartbeat_deadline=1.0
        ) as pool:
            pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
            time.sleep(4 * BEAT_PERIOD)
            shard = pool._shards[0]
            assert [conn.poll(0) for conn in shard._pipes] == [False, False]
            ages = shard.heartbeat_ages()
            assert all(age is not None and age < 10 * BEAT_PERIOD for age in ages.values()), ages

    def test_an_idle_worker_respawns_its_sigkilled_shard(self, servable):
        """A pair killed while the pool idles is evicted by its own worker
        and its slot respawned on the continued seed stream, with no job
        submitted after the kill."""
        seed = 28
        with ShardedServingPool(
            {"vgg": servable}, num_shards=1, max_batch=1, seed=seed, heartbeat_deadline=1.0
        ) as pool:
            pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
            dead = pool._shards[0]
            for process in dead.processes:
                os.kill(process.pid, signal.SIGKILL)
            _wait_until(lambda: pool._shards[0] not in (None, dead), timeout=60.0)
            _assert_respawned_on_its_stream(pool, dead, seed)

    def test_an_idle_worker_evicts_its_sigstopped_shard(self, servable):
        """A party stopped while the pool idles misses its heartbeat: the
        miss is counted, the shard evicted and its slot respawned on the
        continued seed stream, with no job submitted after the stop."""
        seed = 30
        with ShardedServingPool(
            {"vgg": servable}, num_shards=1, max_batch=1, seed=seed, heartbeat_deadline=1.0
        ) as pool:
            pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
            dead = pool._shards[0]
            _wait_until(lambda: None not in dead.heartbeat_ages().values())
            victim = dead.processes[1].pid  # closed once evicted
            os.kill(victim, signal.SIGSTOP)
            try:
                _wait_until(lambda: pool._shards[0] not in (None, dead), timeout=60.0)
            finally:
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass  # eviction's SIGTERM→SIGKILL escalation got it first
            assert pool.stats_snapshot()["heartbeats_missed"] == 1
            _assert_respawned_on_its_stream(pool, dead, seed)

    def test_respawn_cooldown_brakes_storms(self, servable, monkeypatch):
        """A replacement that dies inside ``RESPAWN_COOLDOWN`` of its slot's
        eviction is left alone by the idle check until the window ends, and
        evicted after it.  The window is closed by hand once the dead
        replacement has been seen braked, so no boot time can eat it."""
        monkeypatch.setattr(serve_pool, "RESPAWN_COOLDOWN", 3600.0)
        with ShardedServingPool(
            {"vgg": servable},
            num_shards=1,
            max_batch=1,
            seed=29,
            provision_pools=0,
            heartbeat_deadline=0.5,
        ) as pool:
            first = pool._shards[0]
            for process in first.processes:
                os.kill(process.pid, signal.SIGKILL)
            _wait_until(lambda: pool._shards[0] not in (None, first), timeout=60.0)
            replacement = pool._shards[0]
            for process in replacement.processes:
                os.kill(process.pid, signal.SIGKILL)
            for process in replacement.processes:
                process.join(timeout=10.0)
            braked_until = time.monotonic() + 2.0  # 16 idle checks, one per 0.125 s
            while time.monotonic() < braked_until:
                assert pool._shards[0] is replacement  # braked: not evicted
                time.sleep(0.05)
            monkeypatch.setattr(serve_pool, "RESPAWN_COOLDOWN", 0.0)  # the window ends
            _wait_until(lambda: pool.stats_snapshot()["shards_respawned"] == 2, timeout=60.0)
            assert pool.stats_snapshot()["shard_failures"] == 2


def _assert_respawned_on_its_stream(pool, dead, seed):
    """Slot 0 was evicted once and its replacement serves the dead shard's
    next job seed."""
    _wait_until(lambda: (pool.live_shards, pool.booting_shards()) == (1, 0), timeout=60.0)
    stats = pool.stats_snapshot()
    assert (stats["shards_respawned"], stats["shard_failures"]) == (1, 1)
    assert None not in dead.exitcodes  # reaped
    replacement = pool._shards[0]
    assert replacement.successor_state() == dead.successor_state()
    result = pool.run_batch("vgg", np.zeros((1, 3, 8, 8)))
    assert result.seed == derive_job_seed(seed, "vgg", 1, 1)


def _framed(kind: bytes, body: bytes) -> bytes:
    return struct.pack("<I", len(kind) + len(body)) + kind + body


class TestListenerRobustness:
    def test_a_submit_fed_bytewise_or_cut_anywhere_ends_cleanly(self, servable):
        """One valid submit fed a byte at a time is answered with the
        engine's logits.  The same bytes cut and closed at every offset of
        both frame heads and the JSON body, and at every 64th offset of the
        array body, each end the connection within 1 s, let no exception
        reach the loop's handler and admit nothing; the daemon still serves."""
        query = np.random.default_rng(9).normal(size=(1, 3, 8, 8))
        control = _framed(b"J", json.dumps({"kind": "submit", "id": 1, "model": "vgg"}).encode())
        data = control + _framed(b"A", encode_array(query))
        array_body = len(control) + 5  # the A frame's length prefix and kind byte
        cuts = list(range(array_body)) + list(range(array_body, len(data), 64))
        escaped = []
        with ServingDaemon(
            {"vgg": servable}, num_shards=1, max_batch=2, seed=35
        ) as daemon:
            daemon._loop.call_soon_threadsafe(
                daemon._loop.set_exception_handler,
                lambda loop, context: escaped.append(context),
            )
            with DaemonClient(*daemon.address) as client:
                for offset in range(len(data)):
                    client._sock.sendall(data[offset:offset + 1])
                reply = client._recv_json()
                kind, body = client._read_frame()
            assert (reply["kind"], reply["id"], kind) == ("result", 1, b"A")
            reference = _replay_job(servable, query, reply["job_seeds"][0])
            np.testing.assert_array_equal(decode_array(body)[0], reference)
            _wait_until(lambda: daemon.metrics.get("connections_active") == 0)
            for cut in cuts:
                with socket.create_connection(daemon.address, timeout=5.0) as sock:
                    start = time.monotonic()
                    sock.sendall(data[:cut])
                    sock.shutdown(socket.SHUT_WR)
                    assert _read_to_eof(sock) == b"", cut
                    assert time.monotonic() - start < 1.0, cut
                assert daemon.metrics.get("connections_active") == 0, cut
            _wait_until(lambda: daemon.pool.queue_depth() == 0)
            assert daemon.admission.get("jobs_admitted") == 1
            with DaemonClient(*daemon.address) as client:
                assert client.infer("vgg", query).logits.shape == (1, 10)
        assert escaped == []
