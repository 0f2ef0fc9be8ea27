"""Asyncio serving daemon: one event loop, many clients, one supervised pool.

:class:`ServingDaemon` is the control plane the ROADMAP's top open item
asks for.  One asyncio event loop (on a background thread) multiplexes any
number of client connections over a framed protocol that reuses the wire
codec of :mod:`repro.crypto.transport`; a query stack enters the
:class:`~repro.serve.pool.ShardedServingPool` only if it fits its model's
bound on the pool's own queue (otherwise it is shed with a retry-after
hint).  The daemon arms the pool's heartbeat deadline, so each shard's
worker evicts and respawns its own shard once a party goes silent or dies,
even while no job runs.

Wire protocol (one TCP connection, either direction)::

    frame   := u32le length || kind || body
    kind    := "J" (UTF-8 JSON control) | "A" (array, transport codec)
             | "H" (heartbeat, empty body)

Request/response pairs are matched by an ``id`` echoed in the JSON frames;
``submit`` requests carry their query stack in the following ``A`` frame,
``result`` responses carry the logits the same way.  ``H`` frames are
answered with ``H`` immediately, even while submissions are in flight —
the client-side liveness signal.  The same port also answers plain HTTP
``GET /stats`` and ``GET /healthz`` (the first four bytes ``b"GET "``
cannot prefix a framed message of sane length, so sniffing is unambiguous)
with continuously-updated JSON — curl-able observability with zero extra
listeners.

:class:`DaemonClient` is the blocking client used by tests, benchmarks and
the example CLI.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.wire import (
    LEN_PREFIX,
    MAX_FRAME_BYTES,
    CorruptFrame,
    decode_array,
    encode_array,
    frame_length,
)
from repro.obs import Metrics
from repro.serve.frontend import BackpressureError, ServableModel
from repro.serve.pool import ShardedServingPool

_KIND_JSON = b"J"
_KIND_ARRAY = b"A"
_KIND_HEARTBEAT = b"H"

#: the smallest ``retry_after_ms`` a shed client is handed, so a cold pool
#: (no busy time measured yet) still spreads its retries out
RETRY_FLOOR_MS = 25.0


class _BadLengthPrefix(Exception):
    """A client's length prefix announced an empty or oversized frame.

    The stream cannot be re-aligned after it, so the connection gets one
    error reply and is closed.
    """


@dataclass
class DaemonResult:
    """What one :meth:`DaemonClient.infer` call resolves to."""

    logits: np.ndarray
    predicted_classes: List[int]
    #: session seed of each query's executing job — replaying the in-process
    #: engine at that seed reproduces the query's logits bit for bit
    job_seeds: List[int]
    shards: List[Optional[int]]
    model: str
    latency_ms: float


class _Connection:
    """Write-side of one client connection, serialized by an asyncio lock so
    concurrent submit tasks never interleave their J+A frame pairs."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()

    async def send_frames(self, *frames: Tuple[bytes, bytes]) -> None:
        async with self.lock:
            for kind, body in frames:
                self.writer.write(LEN_PREFIX.pack(len(kind) + len(body)) + kind + body)
            await self.writer.drain()

    async def send_json(self, payload: Dict[str, object]) -> None:
        await self.send_frames((_KIND_JSON, json.dumps(payload).encode("utf-8")))


class ServingDaemon:
    """The asyncio serving control plane over one supervised shard pool.

    Args:
        models: the deployable zoo; the daemon builds its pool from it
            and ``pool_kwargs`` and owns that pool's lifecycle.
        host / port: TCP endpoint (``port=0`` binds an ephemeral port,
            published as :attr:`port` after :meth:`start`).
        queue_budget: the most query rows of one model the pool may hold
            queued or running; a stack that would exceed it is shed.
        heartbeat_deadline: seconds of heartbeat silence after which a
            shard party counts as wedged (forwarded to the pool, whose idle
            workers then check their shards every ``min(0.25, deadline/4)``
            seconds).
    """

    def __init__(
        self,
        models: Dict[str, ServableModel],
        host: str = "127.0.0.1",
        port: int = 0,
        queue_budget: int = 64,
        heartbeat_deadline: float = 5.0,
        **pool_kwargs,
    ) -> None:
        if queue_budget < 1:
            raise ValueError(f"queue_budget must be >= 1, got {queue_budget}")
        self.host = host
        self.port = port
        self.queue_budget = queue_budget
        pool_kwargs.setdefault("heartbeat_deadline", heartbeat_deadline)
        self.pool = ShardedServingPool(models=models, **pool_kwargs)
        self.models = self.pool.models
        #: ``client_failures`` counts submissions that failed *without* a
        #: shed verdict; ``connections_active`` is the one gauge
        self.metrics = Metrics(
            "connections_opened", "connections_active", "requests_served",
            "heartbeat_frames", "http_requests", "client_failures",
        )
        #: admitted and shed query rows, and the ``queue_depth`` window of
        #: the submitted model's depth after each verdict
        self.admission = Metrics("jobs_admitted", "jobs_shed")
        self.started_at: Optional[float] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------ #
    def start(self, timeout: float = 30.0) -> "ServingDaemon":
        """Boot the event loop thread and bind the port."""
        if self._loop is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="serving-daemon", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._start_server(), self._loop)
        try:
            future.result(timeout=timeout)
        except Exception:
            self.close()
            raise
        self.started_at = time.monotonic()
        return self

    async def _start_server(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def close(self, timeout: float = 60.0) -> None:
        """Stop accepting, drain, shut the pool down."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None:
            async def _shutdown() -> None:
                if self._server is not None:
                    self._server.close()
                    await self._server.wait_closed()
                # cancel parked connection handlers so no coroutine outlives
                # the loop (a GC'd handler would try to close its writer on a
                # dead loop and raise an unraisable RuntimeError)
                tasks = [
                    task
                    for task in asyncio.all_tasks()
                    if task is not asyncio.current_task()
                ]
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

            try:
                asyncio.run_coroutine_threadsafe(_shutdown(), self._loop).result(
                    timeout=timeout
                )
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=timeout)
            self._loop.close()
            self._loop = None
        self.pool.close(timeout=timeout)

    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # -- observability --------------------------------------------------------- #
    def stats_payload(self) -> Dict[str, object]:
        """The continuously-updated ``/stats`` document: each component's
        registry rendered under its own branch."""
        return {
            "schema": "serving-bench/v1",
            "kind": "control_plane_stats",
            "uptime_seconds": (
                time.monotonic() - self.started_at if self.started_at else 0.0
            ),
            "endpoint": {"host": self.host, "port": self.port},
            "daemon": self.metrics.snapshot(),
            "admission": {
                **self.admission.snapshot(),
                "queue_budget": self.queue_budget,
                "queue_depth": self.pool.queue_depth(),
                "queue_depth_p95": self.admission.percentile("queue_depth", 95),
            },
            "pool": self.pool.stats_snapshot(),
        }

    def healthz_payload(self) -> Dict[str, object]:
        """The ``/healthz`` document: liveness at a glance (counters only —
        no percentile is computed here)."""
        live = self.pool.live_shards
        booting = self.pool.booting_shards()
        status = "ok" if live > 0 else ("booting" if booting else "dead")
        return {
            "status": status,
            "live_shards": live,
            "booting_shards": booting,
            "queue_depth": self.pool.queue_depth(),
            "queue_budget": self.queue_budget,
            "jobs_shed": self.admission.get("jobs_shed"),
            "heartbeats_missed": self.pool.metrics.get("heartbeats_missed"),
            "uptime_seconds": (
                time.monotonic() - self.started_at if self.started_at else 0.0
            ),
        }

    # -- connection handling ---------------------------------------------------- #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("connections_opened")
        self.metrics.inc("connections_active")
        try:
            head = await reader.readexactly(4)
            if head == b"GET ":
                await self._serve_http(reader, writer)
            else:
                await self._serve_frames(head, reader, writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            return  # the client went away mid-frame or mid-reply
        except asyncio.CancelledError:
            # daemon shutdown cancelled us; finish quietly so asyncio's
            # stream machinery doesn't log the cancellation as an error
            return
        finally:
            self.metrics.inc("connections_active", -1)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError, asyncio.CancelledError):
                # RuntimeError: the loop died under us during shutdown
                pass

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one plain HTTP GET (``/stats`` or ``/healthz``) and close."""
        self.metrics.inc("http_requests")
        try:
            request = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=10.0)
            path = request.split(b"\r\n", 1)[0].split(b" ", 1)[0].decode("latin-1")
        except asyncio.TimeoutError:
            return
        except asyncio.LimitOverrunError:
            path = None  # no end of head within the reader's buffer limit
        if path is None:
            status, payload = "431 Request Header Fields Too Large", {
                "error": "request head exceeds the reader's buffer limit"
            }
        elif path == "/stats":
            status, payload = "200 OK", self.stats_payload()
        elif path == "/healthz":
            payload = self.healthz_payload()
            status = "200 OK" if payload["status"] == "ok" else "503 Service Unavailable"
        else:
            status, payload = "404 Not Found", {"error": f"unknown path {path!r}"}
        body = json.dumps(payload, indent=2, default=str).encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _read_frame(
        self, reader: asyncio.StreamReader, head: Optional[bytes] = None
    ) -> Tuple[bytes, bytes]:
        if head is None:
            head = await reader.readexactly(4)
        (length,) = LEN_PREFIX.unpack(head)
        if not 1 <= length <= MAX_FRAME_BYTES:
            raise _BadLengthPrefix(
                f"frame length {length} is outside 1..{MAX_FRAME_BYTES}; closing"
            )
        body = await reader.readexactly(length)
        return body[:1], body[1:]

    async def _serve_frames(
        self,
        head: Optional[bytes],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        conn = _Connection(writer)
        tasks: List[asyncio.Task] = []
        try:
            while True:
                kind, body = await self._read_frame(reader, head=head)
                head = None
                if kind == _KIND_HEARTBEAT:
                    # answered inline even while submissions run — the
                    # client's proof the daemon's loop is alive
                    self.metrics.inc("heartbeat_frames")
                    await conn.send_frames((_KIND_HEARTBEAT, b""))
                    continue
                if kind != _KIND_JSON:
                    await conn.send_json(
                        {"kind": "error", "error": f"unexpected frame kind {kind!r}"}
                    )
                    continue
                try:
                    request = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    await conn.send_json(
                        {"kind": "error", "error": f"bad control frame: {exc}"}
                    )
                    continue
                if not isinstance(request, dict):
                    await conn.send_json(
                        {"kind": "error", "error": "control frame is not a JSON object"}
                    )
                    continue
                await self._dispatch_request(request, reader, conn, tasks)
        except _BadLengthPrefix as exc:
            # the stream cannot be re-aligned: one typed reply, then close
            await conn.send_json({"kind": "error", "error": str(exc)})
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()

    async def _dispatch_request(
        self,
        request: Dict[str, object],
        reader: asyncio.StreamReader,
        conn: _Connection,
        tasks: List[asyncio.Task],
    ) -> None:
        kind = request.get("kind")
        request_id = request.get("id")
        if kind == "submit":
            # the query stack rides in the next frame, read before handing
            # off so the reader loop stays frame-aligned
            try:
                array_kind, array_body = await self._read_frame(reader)
                if array_kind != _KIND_ARRAY:
                    raise ValueError(
                        f"submit must be followed by an array frame, got {array_kind!r}"
                    )
                queries, _ = decode_array(array_body)
            except (ValueError, CorruptFrame) as exc:
                # a lost connection propagates; a bad body is this request's
                # error only — the outer length prefix kept the stream aligned
                await conn.send_json(
                    {"kind": "error", "id": request_id, "error": str(exc)}
                )
                return
            tasks[:] = [t for t in tasks if not t.done()]
            tasks.append(
                asyncio.get_running_loop().create_task(
                    self._do_submit(conn, request, queries)
                )
            )
        elif kind == "stats":
            self.metrics.inc("requests_served")
            await conn.send_json(
                {"kind": "stats", "id": request_id, "stats": self.stats_payload()}
            )
        elif kind == "healthz":
            self.metrics.inc("requests_served")
            await conn.send_json(
                {"kind": "healthz", "id": request_id, "healthz": self.healthz_payload()}
            )
        else:
            await conn.send_json(
                {"kind": "error", "id": request_id, "error": f"unknown request {kind!r}"}
            )

    async def _do_submit(
        self, conn: _Connection, request: Dict[str, object], queries: np.ndarray
    ) -> None:
        request_id = request.get("id")
        model = str(request.get("model", ""))
        try:
            # a stack the pool would refuse, or one that could never fit
            # the budget, is an error: a retry hint would be a lie
            queries = self.pool._checked(model, queries)
            count = len(queries)
            if count > self.queue_budget:
                raise ValueError(
                    f"a stack of {count} queries exceeds the queue budget of "
                    f"{self.queue_budget} per model"
                )
        except (KeyError, ValueError) as exc:
            self.metrics.inc("client_failures")
            await conn.send_json(
                {"kind": "error", "id": request_id, "error": f"{type(exc).__name__}: {exc}"}
            )
            return
        # no await from this read to submit_many: every submission runs on
        # this thread and the pool's workers only ever shrink the depth
        depth = self.pool.queue_depth(model)
        admitted = depth + count <= self.queue_budget
        self.admission.inc("jobs_admitted" if admitted else "jobs_shed", count)
        self.admission.observe("queue_depth", depth + count if admitted else depth)
        if not admitted:
            # the explicit shed verdict: never a silent drop, never an
            # unbounded queue — the client backs off and retries
            await conn.send_json(
                {
                    "kind": "backpressure",
                    "id": request_id,
                    "error": (
                        f"queue for {model!r} holds {depth} queries; {count} "
                        f"more exceed its budget of {self.queue_budget}"
                    ),
                    "model": model,
                    "batch_size": count,
                    "queue_depth": depth,
                    "queue_budget": self.queue_budget,
                    "retry_after_ms": self._retry_after_ms(depth),
                }
            )
            return
        started = time.perf_counter()
        try:
            futures = self.pool.submit_many(model, queries)
            results = await asyncio.gather(
                *[asyncio.wrap_future(f) for f in futures]
            )
        except Exception as exc:
            self.metrics.inc("client_failures")
            await conn.send_json(
                {
                    "kind": "error",
                    "id": request_id,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            return
        elapsed = time.perf_counter() - started
        self.metrics.inc("requests_served")
        logits = np.stack([r.logits for r in results])
        await conn.send_frames(
            (
                _KIND_JSON,
                json.dumps(
                    {
                        "kind": "result",
                        "id": request_id,
                        "model": model,
                        "count": count,
                        "predicted_classes": [r.predicted_class for r in results],
                        "job_seeds": [r.job_seed for r in results],
                        "shards": [r.shard for r in results],
                        "latency_ms": 1e3 * elapsed,
                    }
                ).encode("utf-8"),
            ),
            (_KIND_ARRAY, encode_array(logits, ring=self.pool.ring)),
        )

    def _retry_after_ms(self, depth: int) -> float:
        """When ``depth`` queued rows are expected to drain: the measured
        busy time per query, spread over the live shards."""
        live = max(1, self.pool.live_shards)
        estimate = 1e3 * depth * self.pool.seconds_per_query() / live
        return max(RETRY_FLOOR_MS, estimate)


# --------------------------------------------------------------------------- #
# Blocking client
# --------------------------------------------------------------------------- #
class DaemonClient:
    """Synchronous client for the daemon's framed protocol.

    One TCP connection, blocking request/response; safe for one thread at a
    time (benchmarks open one client per load thread).  Shed submissions
    raise :class:`~repro.serve.frontend.BackpressureError` with the
    daemon's ``retry_after_ms`` hint attached.
    """

    def __init__(self, host: str, port: int, timeout: float = 300.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()
        self._next_id = 0

    # -- framing -------------------------------------------------------------- #
    def _write_frame(self, kind: bytes, body: bytes) -> None:
        self._sock.sendall(LEN_PREFIX.pack(len(kind) + len(body)) + kind + body)

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self) -> Tuple[bytes, bytes]:
        body = self._recv_exact(frame_length(self._recv_exact(4)))
        return body[:1], body[1:]

    def _recv_json(self) -> Dict[str, object]:
        while True:
            kind, body = self._read_frame()
            if kind == _KIND_HEARTBEAT:
                continue  # liveness chatter, not a response
            if kind != _KIND_JSON:
                raise ValueError(f"expected a JSON frame, got {kind!r}")
            return json.loads(body.decode("utf-8"))

    # -- API ------------------------------------------------------------------ #
    def infer(self, model: str, queries: np.ndarray) -> DaemonResult:
        """Submit a query stack; blocks until logits or an explicit verdict.

        Raises :class:`BackpressureError` when shed (with ``retry_after_ms``),
        :class:`RuntimeError` on any other daemon-side failure.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 3:
            queries = queries[None]
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            self._write_frame(
                _KIND_JSON,
                json.dumps(
                    {"kind": "submit", "id": request_id, "model": model}
                ).encode("utf-8"),
            )
            self._write_frame(_KIND_ARRAY, encode_array(queries))
            reply = self._recv_json()
            if reply.get("kind") == "backpressure":
                raise BackpressureError(
                    str(reply.get("error")),
                    model=model,
                    batch_size=int(reply.get("batch_size", 0)),
                    queue_depth=int(reply.get("queue_depth", 0)),
                    queue_budget=int(reply.get("queue_budget", 0)),
                    retry_after_ms=float(reply.get("retry_after_ms", 0.0)),
                )
            if reply.get("kind") != "result":
                raise RuntimeError(f"inference failed: {reply.get('error')}")
            kind, body = self._read_frame()
            if kind != _KIND_ARRAY:
                raise ValueError(f"expected the logits frame, got {kind!r}")
            logits, _ = decode_array(body)
        return DaemonResult(
            logits=logits,
            predicted_classes=list(reply["predicted_classes"]),
            job_seeds=list(reply["job_seeds"]),
            shards=list(reply["shards"]),
            model=model,
            latency_ms=float(reply["latency_ms"]),
        )

    def stats(self) -> Dict[str, object]:
        with self._lock:
            self._next_id += 1
            self._write_frame(
                _KIND_JSON,
                json.dumps({"kind": "stats", "id": self._next_id}).encode("utf-8"),
            )
            return self._recv_json()["stats"]

    def healthz(self) -> Dict[str, object]:
        with self._lock:
            self._next_id += 1
            self._write_frame(
                _KIND_JSON,
                json.dumps({"kind": "healthz", "id": self._next_id}).encode("utf-8"),
            )
            return self._recv_json()["healthz"]

    def ping(self) -> bool:
        """A heartbeat round trip: proof the daemon's event loop is live."""
        with self._lock:
            self._write_frame(_KIND_HEARTBEAT, b"")
            kind, _ = self._read_frame()
            return kind == _KIND_HEARTBEAT

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def http_get(host: str, port: int, path: str, timeout: float = 10.0) -> Dict[str, object]:
    """Tiny dependency-free HTTP GET against the daemon's JSON endpoints."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    body = response.partition(b"\r\n\r\n")[2]
    return json.loads(body.decode("utf-8"))
