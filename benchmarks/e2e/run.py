"""End-to-end benchmark: client submit to logits, on four named workloads.

One command measures the production serving path — a ``ServingDaemon`` in
its own subprocess and session, driven over TCP by ``DaemonClient.infer``
from two closed-loop client threads — and prints every metric by name with
its unit, checking sampled answers bit for bit against the in-process
engine.  ``--trace 1`` runs the separate traced pass that fills the
per-layer ledger instead (see ``traced.py``).  README.md documents the
workloads, the metrics and how to read the ledger.

    python benchmarks/e2e/run.py --workload poly_tiny_loopback --seed 3

The last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from itertools import permutations
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import ledger  # noqa: E402
import procs  # noqa: E402
from loadgen import HOST, Record, closed_loop, connect_and_warm  # noqa: E402
from workloads import WORKLOADS, Workload, build_servables  # noqa: E402

#: measured seconds per run when ``--seconds`` is not given (BENCHMARK.json's
#: ``run_seconds``)
RUN_SECONDS = 20
#: server boots per end-to-end run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: a workload still measuring after this long is abandoned; with the worst
#: case of teardown on top the process still exits within 180 s
HARD_TIMEOUT_SECONDS = 120
#: a sampled response in this many (at least REPLAY_MIN) is replayed
REPLAY_EVERY = 20
REPLAY_MIN = 10


class HardTimeout(Exception):
    """The per-workload alarm fired; teardown runs on the way out."""


# --------------------------------------------------------------------------- #
# The server subprocess
# --------------------------------------------------------------------------- #
class Server:
    """The system under test, in its own process *and session*.

    ``stop`` is the only way out and is safe on every path: it asks for a
    graceful daemon close, then kills the whole session and reports what a
    ``/proc`` scan still finds in it.
    """

    def __init__(self, workload: Workload) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_main.py"), "--workload", workload.name],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        self.sid = self.proc.pid
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 100.0) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(
                f"server subprocess did not become ready (exit code {self.proc.poll()})"
            )
        self.port = int(json.loads(line)["port"])

    def pids(self) -> List[int]:
        return procs.session_pids(self.sid)

    def stats(self) -> Dict[str, object]:
        with urllib.request.urlopen(f"http://{HOST}:{self.port}/stats", timeout=30) as reply:
            return json.load(reply)

    def stop(self, graceful_timeout: float = 10.0) -> List[int]:
        """Close the daemon, kill the session, return surviving pids."""
        try:
            if self.proc.poll() is None:
                try:
                    self.proc.stdin.close()  # EOF on stdin: close the daemon
                    self.proc.wait(timeout=graceful_timeout)
                except (subprocess.TimeoutExpired, OSError):
                    pass
        finally:
            survivors = procs.reap_session(self.sid)
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                survivors.append(self.proc.pid)
            self.proc.stdout.close()
        return survivors


class Harness:
    """Owns every process the run starts, so one ``teardown`` ends them all."""

    def __init__(self) -> None:
        self.servers: List[Server] = []
        self.pools: List[object] = []  # in-process pools of the traced run
        self.leaked: List[int] = []

    def boot(self, workload: Workload) -> Server:
        server = Server(workload)
        self.servers.append(server)
        server.wait_ready()
        return server

    def stop(self, server: Server) -> None:
        self.servers.remove(server)
        self.leaked += server.stop()

    def teardown(self) -> List[int]:
        """Stop everything still running; the list of leaked pids (want [])."""
        for pool in self.pools:
            # close() waits for an in-flight job; a wedged one must not keep
            # teardown from reaching the reapers below, which unblock it
            closer = threading.Thread(target=pool.close, kwargs={"timeout": 10.0}, daemon=True)
            closer.start()
            closer.join(timeout=15.0)
        self.pools.clear()
        for server in list(self.servers):
            self.stop(server)
        self.leaked += procs.reap_own_children()
        return self.leaked


# --------------------------------------------------------------------------- #
# Correctness: replay sampled responses on the in-process engine
# --------------------------------------------------------------------------- #
def replay_sample(
    servables: Dict[str, object], records: List[Record], seed: int
) -> Tuple[int, int]:
    """Replay 1 in ``REPLAY_EVERY`` responses; ``(jobs checked, mismatches)``.

    The daemon coalesces queries of concurrent requests into one job, and a
    job's logits depend on the whole batch in order.  So a response is
    checked job by job: all rows (of any request) that report the job's
    seed are gathered, and the engine at that seed must reproduce them for
    one ordering of the contributing requests.
    """
    from repro.crypto import make_context
    from repro.crypto.secure_model import SecureInferenceEngine

    answered = [r for r in records if r.result is not None]
    if not answered:
        return 0, 0
    jobs: Dict[Tuple[str, int], Dict[int, List[int]]] = {}
    for position, record in enumerate(answered):
        for row, job_seed in enumerate(record.result.job_seeds):
            jobs.setdefault((record.model, job_seed), {}).setdefault(position, []).append(row)
    count = min(len(answered), max(REPLAY_MIN, len(answered) // REPLAY_EVERY))
    chosen = np.random.default_rng(seed).choice(len(answered), size=count, replace=False)
    wanted = sorted(
        {(answered[p].model, s) for p in chosen for s in answered[p].result.job_seeds}
    )

    compiler = SecureInferenceEngine(make_context())
    plans: Dict[Tuple[str, int], object] = {}
    mismatches = 0
    for model, job_seed in wanted:
        members = jobs[(model, job_seed)]
        servable = servables[model]
        batch = sum(len(rows) for rows in members.values())
        if (model, batch) not in plans:
            plans[(model, batch)] = compiler.compile(servable.spec, batch_size=batch)
        plan = plans[(model, batch)]
        matched = False
        for order in permutations(sorted(members)):
            inputs = np.concatenate([answered[p].queries[members[p]] for p in order])
            served = np.concatenate([answered[p].result.logits[members[p]] for p in order])
            engine = SecureInferenceEngine(make_context(seed=job_seed))
            reference = engine.execute(
                plan, servable.weights, inputs, pool=engine.preprocess(plan)
            )
            if np.array_equal(served, reference.logits):
                matched = True
                break
        mismatches += not matched
    return len(wanted), mismatches


# --------------------------------------------------------------------------- #
# The end-to-end run
# --------------------------------------------------------------------------- #
def run_end_to_end(
    harness: Harness, workload: Workload, seed: int, seconds: float
) -> Dict[str, object]:
    setups: List[float] = []
    server, clients = None, []
    for _ in range(SETUP_REPEATS):
        if server is not None:  # only the last boot serves the timed window
            for client in clients:
                client.close()
            harness.stop(server)
        start = time.perf_counter()
        server = harness.boot(workload)
        clients = connect_and_warm(workload, server.port)
        setups.append(time.perf_counter() - start)

    pids = server.pids()
    before = server.stats()["pool"]
    cpu_before = procs.cpu_seconds(pids)
    records, window = closed_loop(workload, clients, seed, seconds)
    cpu_after = procs.cpu_seconds(pids)
    stats = server.stats()
    rss = procs.peak_rss_mb(server.pids())
    for client in clients:
        client.close()
    harness.stop(server)

    answered = [r for r in records if r.result is not None]
    latencies_ms = [1e3 * r.latency_s for r in answered]
    queries = sum(len(r.queries) for r in answered)
    after = stats["pool"]
    served = after["queries_served"] - before["queries_served"]
    checked, mismatches = replay_sample(build_servables(workload), records, seed)

    metrics = {}
    if answered and served:
        metrics = {
            "latency_p50_ms": ledger.percentile(latencies_ms, 50),
            "latency_p90_ms": ledger.percentile(latencies_ms, 90),
            "throughput_qps": queries / window,
            "payload_bytes_per_query": (after["payload_bytes"] - before["payload_bytes"])
            / served,
            "cpu_s_per_query": sum(
                cpu_after[pid] - cpu_before[pid] for pid in cpu_before if pid in cpu_after
            )
            / queries,
            "peak_rss_mb": rss,
            "setup_s": ledger.median(setups),
        }
    return {
        "attempted": len(records),
        "failed": (len(records) - len(answered)) + mismatches,
        "metrics": metrics,
        "detail": {
            "window_s": window,
            "latency_samples": len(answered),
            "samples_beyond_p90": ledger.samples_beyond(len(answered), 90),
            "highest_supported_percentile": (
                ledger.highest_supported_percentile(len(answered))
                if len(answered) >= 20
                else None
            ),
            "queries": queries,
            "replayed_jobs": checked,
            "replay_mismatches": mismatches,
            "shed": stats["admission"]["jobs_shed"],
            "errors": sorted({r.error for r in records if r.error})[:5],
            "setup_runs_s": setups,
            "process_count": len(pids),
        },
    }


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #
def _warm_import() -> None:
    """Untimed ``import repro.serve`` so bytecode and page cache are hot
    before the first timed set-up (cold imports tripled ``setup_s``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import repro.serve"], env=env, check=True)


def _raise(exc_type):
    def handler(signum, frame):
        raise exc_type(f"signal {signum}")

    return handler


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Measure one workload; never returns with a process still running."""
    workload = WORKLOADS[name]
    units = {n: u for n, u, *_ in (ledger.PER_LAYER if trace else ledger.END_TO_END)}
    harness = Harness()
    signal.alarm(HARD_TIMEOUT_SECONDS)
    try:
        if trace:
            from traced import run_traced

            report = run_traced(harness, workload, seed, seconds)
        else:
            report = run_end_to_end(harness, workload, seed, seconds)
    finally:
        signal.alarm(0)
        leaked = harness.teardown()
    report["workload"] = name
    report["leaked_processes"] = leaked
    missing = [n for n in units if n not in report["metrics"]]
    for n in missing:
        print(f"note: {n} omitted (its source was not available)")
    report["correct"] = report["failed"] == 0 and not leaked and (trace or not missing)
    report["metrics"] = {
        n: {"value": float(v), "unit": units[n]}
        for n, v in report["metrics"].items()
        if n in units
    }
    return report


def print_report(report: Dict[str, object]) -> None:
    print(f"== {report['workload']} ==")
    for name, metric in report["metrics"].items():
        print(f"{name:48s} {metric['value']:16.6g} {metric['unit']}")
    for key, value in report.get("detail", {}).items():
        print(f"  {key}: {value}")
    for name, value in report.get("ledger", {}).items():
        print(f"  ledger {name:44s} {value:10.3f} ms")
    if report["leaked_processes"]:
        print(f"leaked_processes: {report['leaked_processes']}")
    print(
        json.dumps(
            {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
        ),
        flush=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives query tensors and request order only")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced per-layer run instead of the end-to-end run")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also write the full report (with spans) to this file")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the system under test is missing: no {SRC / 'repro'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _raise(HardTimeout))
    signal.signal(signal.SIGTERM, _raise(KeyboardInterrupt))
    _warm_import()
    reports = []
    for name in [args.workload] if args.workload else list(WORKLOADS):
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        reports.append(report)
        print_report(report)
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(reports, handle, indent=1, default=str)
    return 0 if all(report["correct"] for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
