"""One metrics registry: counters, gauges and sample windows by flat name.

Every count the serving stack keeps is a dotted name in a :class:`Metrics`
(a flat table of names): ``inc`` bumps a counter, ``set`` pins a gauge,
``observe`` appends to the name's bounded sample window and ``percentile``
reads it back.  Each component owns one registry and its
``stats_snapshot()`` — one branch of the daemon's ``/stats`` — is a
rendering of it; :func:`merge` sums snapshots, :func:`nest` turns dotted
names into the tree.  Sample windows and percentiles live here only.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Iterable, Mapping

import numpy as np

#: samples kept per observed name — a sliding window, so a long-lived
#: process stays O(1) in memory under any traffic
WINDOW = 10_000


class Metrics:
    """Thread-safe counters, gauges and sample windows keyed by flat name.

    The constructor declares the counters a snapshot carries, at 0, before
    anything is recorded; a gauge appears with its first ``set``.
    """

    def __init__(self, *counters: str) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, float] = dict.fromkeys(counters, 0)
        self._windows: Dict[str, Deque[float]] = {}

    def inc(self, name: str, delta: float = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + delta

    def set(self, name: str, value: float) -> None:
        with self._lock:
            self._values[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            window = self._windows.get(name)
            if window is None:
                window = self._windows[name] = deque(maxlen=WINDOW)
            window.append(value)

    def get(self, name: str, default=0):
        with self._lock:
            return self._values.get(name, default)

    def percentile(self, name: str, q: float) -> float:
        """The ``q``-th percentile of the name's window (0.0 while empty)."""
        with self._lock:
            samples = list(self._windows.get(name, ()))
        return float(np.percentile(samples, q)) if samples else 0.0

    def snapshot(self) -> Dict[str, float]:
        """A consistent copy of every counter and gauge."""
        with self._lock:
            return dict(self._values)


def merge(snapshots: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Sum snapshots name by name (a name missing from one counts as 0)."""
    total: Dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            total[name] = total.get(name, 0) + value
    return total


def nest(flat: Mapping[str, object]) -> Dict[str, object]:
    """``{"a.b": 1, "a.c": 2}`` → ``{"a": {"b": 1, "c": 2}}``."""
    tree: Dict[str, object] = {}
    for name, value in flat.items():
        *branches, leaf = name.split(".")
        node = tree
        for branch in branches:
            node = node.setdefault(branch, {})
        node[leaf] = value
    return tree
