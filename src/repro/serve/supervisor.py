"""Shard supervision: heartbeat sweeps and evict-and-respawn.

The pool already heals itself *reactively* — a shard that dies mid-job is
evicted by its own worker thread and its job replays elsewhere.  The
:class:`ShardSupervisor` adds the *proactive* half:

- a background sweep reads every shard's heartbeat ages
  (:meth:`~repro.runtime.shard.WorkerShard.heartbeat_ages`) — each party
  writes a beat into a shared block at a constant period, so the sweep
  touches no pipe and an idle shard's liveness is always current;
- a shard whose party went silent past the heartbeat deadline, or whose
  party *process* died while idle, is evicted and respawned **before** the
  next job finds out the hard way — the respawn continues the dead shard's
  seed stream exactly as the reactive path does;
- per-slot respawn cooldowns keep a crash-looping shard (bad host, poisoned
  core file, OOM loop) from turning into a respawn storm.

The fleet is the one the pool booted: a respawn refills a slot, nothing
adds or removes one.

The supervisor is optional and composable: the pool works without it, the
daemon runs one per pool.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.obs import Metrics
from repro.runtime.shard import WorkerShard
from repro.serve.pool import ShardedServingPool


class ShardSupervisor:
    """Background liveness sweeps over one serving pool.

    Args:
        pool: the pool to supervise.  Its ``heartbeat_deadline`` governs
            when a silent party counts as wedged; the supervisor also
            treats a dead party *process* (detected while the shard idles)
            as an eviction trigger immediately.
        interval: seconds between sweeps.
        respawn_cooldown: minimum seconds between evictions of the same
            shard slot — the respawn-storm brake.
    """

    def __init__(
        self,
        pool: ShardedServingPool,
        interval: float = 0.25,
        respawn_cooldown: float = 2.0,
    ) -> None:
        self.pool = pool
        self.interval = interval
        self.respawn_cooldown = respawn_cooldown
        self.metrics = Metrics("heartbeats_missed", "shards_evicted")
        self._evicted_at: Dict[int, float] = {}  # slot index → last eviction
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------ #
    def start(self) -> "ShardSupervisor":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="shard-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- the sweep ------------------------------------------------------------ #
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sweep()
            except Exception:
                # supervision must never die with the patient; the next
                # sweep sees current state and acts on it
                continue

    def sweep(self) -> None:
        """One supervision pass: liveness, then eviction."""
        now = time.monotonic()
        for shard in self.pool.shards_view():
            if not shard.alive:
                continue
            reason = self._eviction_reason(shard, shard.heartbeat_ages())
            if reason is None:
                continue
            with self._lock:
                last = self._evicted_at.get(shard.index, -1e9)
                if now - last < self.respawn_cooldown:
                    continue  # storm brake: let the previous respawn settle
                self._evicted_at[shard.index] = now
            self.metrics.inc("heartbeats_missed", int(reason == "heartbeat"))
            self.metrics.inc("shards_evicted")
            self.pool._respawn_shard_async(shard)  # replaces, then kills

    def _eviction_reason(
        self, shard: WorkerShard, ages: Dict[int, Optional[float]]
    ) -> Optional[str]:
        deadline = self.pool.heartbeat_deadline
        if deadline > 0:
            for party, age in ages.items():
                # enforce only after a first beat: a slow boot never trips
                # the sweep
                if age is not None and age > deadline:
                    return "heartbeat"
        if any(code is not None for code in shard.exitcodes):
            return "process-death"
        return None

    # -- observability --------------------------------------------------------- #
    def stats_snapshot(self) -> Dict[str, object]:
        """The registry plus the supervision settings, rendered for ``/stats``."""
        return {
            **self.metrics.snapshot(),
            "respawn_cooldown_s": self.respawn_cooldown,
        }


__all__ = ["ShardSupervisor"]
