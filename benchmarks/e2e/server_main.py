"""The system under test: one ``ServingDaemon`` in its own process.

Launched by ``run.py`` with ``start_new_session=True`` so the daemon and
every party process it spawns share one session the harness can account
for and reap.  Protocol: one JSON line ``{"port": ..., "pid": ...}`` on
stdout once the daemon accepts connections, then the process blocks on
stdin — a line, EOF (the launcher died) or SIGTERM closes the daemon
gracefully and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    from repro.serve import ServingDaemon
    from workloads import DAEMON_SEED, WORKLOADS, build_servables

    def _terminate(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    with ServingDaemon(
        build_servables(workload), seed=DAEMON_SEED, **workload.daemon_kwargs
    ) as daemon:
        print(json.dumps({"port": daemon.port, "pid": os.getpid()}), flush=True)
        sys.stdin.readline()


if __name__ == "__main__":
    main()
