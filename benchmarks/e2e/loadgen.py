"""The load generator: two closed-loop client threads over ``DaemonClient``.

The paper's client is a data owner who submits a query and waits for the
logits, so the honest traffic shape is a closed loop; with two blocking
connections an open loop could not build a queue anyway.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from workloads import CLIENTS, Workload, request_stream, warmup_requests

HOST = "127.0.0.1"


@dataclass
class Record:
    """One timed client request."""

    client: int
    model: str
    queries: np.ndarray
    start: float  # perf_counter at submit
    latency_s: float = 0.0
    result: object = None  # DaemonResult, or None when the request failed
    error: str = ""


def connect_and_warm(workload: Workload, port: int) -> List[object]:
    """Open the client connections and run the untimed warm-up requests."""
    from repro.serve import DaemonClient

    clients = [DaemonClient(HOST, port) for _ in range(CLIENTS)]

    def warm(index: int) -> None:
        for model, queries in warmup_requests(workload, index):
            clients[index].infer(model, queries)

    _run_threads(warm, len(clients))
    return clients


def _run_threads(target, count: int) -> None:
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(index,), daemon=True) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(
    workload: Workload, clients: List[object], seed: int, seconds: float
) -> Tuple[List[Record], float]:
    """Every client submits, waits, submits again, for ``seconds``.

    Returns the records and the window length (start barrier to the last
    response).  A client looks at the clock only between whole model
    cycles, so every client serves each model equally often and per-query
    counts do not depend on where the window happened to end.  A failed
    request is recorded, never raised: it counts against ``failed`` and the
    client carries on, unless its connection is gone.
    """
    per_client: List[List[Record]] = [[] for _ in clients]
    barrier = threading.Barrier(len(clients) + 1)
    cycle = len(workload.backbones)

    def drive(index: int) -> None:
        stream = request_stream(workload, seed, index)
        records = per_client[index]
        barrier.wait()
        deadline = time.perf_counter() + seconds
        while len(records) % cycle or time.perf_counter() < deadline:
            model, queries = next(stream)
            record = Record(index, model, queries, time.perf_counter())
            connection_lost = False
            try:
                record.result = clients[index].infer(model, queries)
            except (RuntimeError, ValueError, OSError) as exc:
                record.error = f"{type(exc).__name__}: {exc}"
                connection_lost = isinstance(exc, OSError)
            record.latency_s = time.perf_counter() - record.start
            records.append(record)
            if connection_lost:
                break  # every further request on this connection would fail too

    threads = [
        threading.Thread(target=drive, args=(index,), daemon=True)
        for index in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return [r for records in per_client for r in records], time.perf_counter() - start
