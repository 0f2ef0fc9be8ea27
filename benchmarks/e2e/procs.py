"""Process accounting and leak-free teardown, read from ``/proc``.

The server under test runs in its own session (``start_new_session=True``),
so "every process the benchmark started" is exactly "every process whose
session id is the server's pid" — one ``/proc`` scan answers CPU time, peak
RSS and, after teardown, whether anything survived.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Dict, List

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` fields after the parenthesised command name
    (index 0 is the state, 3 the session id, 11/12 utime/stime)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        data = handle.read().decode("ascii", "replace")
    return data[data.rindex(")") + 2 :].split()


def session_pids(sid: int, include_zombies: bool = False) -> List[int]:
    """Pids of the live processes in session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue  # exited between listdir and open
        if int(fields[3]) == sid and (include_zombies or fields[0] not in "ZX"):
            pids.append(int(entry))
    return sorted(pids)


def cpu_seconds(pids: List[int]) -> Dict[int, float]:
    """utime + stime of each pid, in seconds (missing pids are skipped)."""
    out = {}
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue
        out[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return out


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "rb") as handle:
                for line in handle:
                    if line.startswith(b"VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024.0


def reap_session(sid: int, grace: float = 3.0) -> List[int]:
    """Kill every process of session ``sid``; return the pids that survived.

    SIGTERM to the group, then SIGKILL to each straggler found by the
    ``/proc`` scan (which also reaches a process that left the group but
    not the session).  An empty return value is the proof of a leak-free
    teardown; the caller treats anything else as a failed run.
    """
    if not session_pids(sid):
        return []
    try:
        os.killpg(sid, signal.SIGTERM)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline and session_pids(sid):
        time.sleep(0.02)
    for pid in session_pids(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline and session_pids(sid):
        time.sleep(0.02)
    return session_pids(sid)


def reap_own_children(grace: float = 3.0) -> List[int]:
    """Kill this process's ``multiprocessing`` children; return survivors."""
    for child in multiprocessing.active_children():
        child.kill()
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline and multiprocessing.active_children():
        time.sleep(0.02)
    return [child.pid for child in multiprocessing.active_children()]
