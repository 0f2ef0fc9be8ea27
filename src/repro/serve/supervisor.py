"""Shard supervision: heartbeat sweeps, evict-and-respawn, autoscaling.

The pool already heals itself *reactively* — a shard that dies mid-job is
evicted by the dispatcher that hit the failure and its job replays
elsewhere.  The :class:`ShardSupervisor` adds the *proactive* half:

- a background sweep drains every shard's heartbeat frames
  (:meth:`~repro.runtime.shard.WorkerShard.poll_heartbeats`), so idle shards'
  liveness stays fresh and their pipes never fill up;
- a shard whose party went silent past the heartbeat deadline, or whose
  party *process* died while idle, is evicted and respawned **before** the
  next job finds out the hard way — the respawn continues the dead shard's
  seed stream exactly as the reactive path does;
- per-slot respawn cooldowns keep a crash-looping shard (bad host, poisoned
  core file, OOM loop) from turning into a respawn storm;
- an :class:`AutoscalePolicy` grows the pool when queued work per live
  shard stays high and shrinks it when the pool idles, within
  ``[min_shards, max_shards]`` and rate-limited by a cooldown.

The supervisor is optional and composable: the pool works without it (as
in PRs 3–9), the daemon runs one per pool.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.runtime.shard import WorkerShard
from repro.serve.admission import AdmissionController
from repro.serve.pool import ShardedServingPool


@dataclass(frozen=True)
class AutoscalePolicy:
    """When to grow or shrink the shard fleet.

    Decisions use *queued query-weight per live shard* (from the admission
    controller) so the thresholds are fleet-size invariant:

    - depth per live shard > ``scale_up_depth`` → add a shard (up to
      ``max_shards``);
    - depth per live shard < ``scale_down_depth`` for a full cooldown →
      retire an idle shard (down to ``min_shards``).

    ``cooldown_seconds`` rate-limits *all* scaling actions, so a burst
    cannot thrash the fleet up and down.
    """

    min_shards: int = 1
    max_shards: int = 4
    #: queued query-weight per live shard above which the pool grows
    scale_up_depth: float = 8.0
    #: queued query-weight per live shard below which the pool shrinks
    scale_down_depth: float = 1.0
    cooldown_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {self.min_shards}")
        if self.max_shards < self.min_shards:
            raise ValueError(
                f"max_shards ({self.max_shards}) must be >= "
                f"min_shards ({self.min_shards})"
            )
        if self.scale_down_depth >= self.scale_up_depth:
            raise ValueError(
                "scale_down_depth must be < scale_up_depth "
                f"({self.scale_down_depth} >= {self.scale_up_depth})"
            )


class ShardSupervisor:
    """Background liveness sweeps + autoscaling over one serving pool.

    Args:
        pool: the pool to supervise.  Its ``heartbeat_deadline`` governs
            when a silent party counts as wedged; the supervisor also
            treats a dead party *process* (detected while the shard idles)
            as an eviction trigger immediately.
        admission: the admission controller whose queue depth steers
            autoscaling (``None`` disables autoscaling; supervision still
            runs).
        policy: the autoscaling policy (``None`` disables autoscaling).
        interval: seconds between sweeps.
        respawn_cooldown: minimum seconds between evictions of the same
            shard slot — the respawn-storm brake.
    """

    def __init__(
        self,
        pool: ShardedServingPool,
        admission: Optional[AdmissionController] = None,
        policy: Optional[AutoscalePolicy] = None,
        interval: float = 0.25,
        respawn_cooldown: float = 2.0,
    ) -> None:
        self.pool = pool
        self.admission = admission
        self.policy = policy
        self.interval = interval
        self.respawn_cooldown = respawn_cooldown
        self.heartbeats_missed = 0
        self.shards_autoscaled_up = 0
        self.shards_autoscaled_down = 0
        self.shards_evicted = 0
        self._evicted_at: Dict[int, float] = {}  # slot index → last eviction
        self._last_scale_at = 0.0
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
        """One supervision pass: liveness, eviction, autoscaling."""
        now = time.monotonic()
        for shard in self.pool.shards_view():
            if not shard.alive:
                continue
            ages = shard.poll_heartbeats()
            reason = self._eviction_reason(shard, ages)
            if reason is None:
                continue
            with self._lock:
                last = self._evicted_at.get(shard.index, -1e9)
                if now - last < self.respawn_cooldown:
                    continue  # storm brake: let the previous respawn settle
                self._evicted_at[shard.index] = now
                if reason == "heartbeat":
                    self.heartbeats_missed += 1
                self.shards_evicted += 1
            shard.kill()
            self.pool._respawn_shard_async(shard)
        self._autoscale(now)

    def _eviction_reason(
        self, shard: WorkerShard, ages: Dict[int, Optional[float]]
    ) -> Optional[str]:
        deadline = self.pool.heartbeat_deadline
        if deadline > 0:
            for party, age in ages.items():
                # enforce only after a first heartbeat: a slow boot or a
                # disabled emitter never trips the sweep
                if age is not None and age > deadline:
                    return "heartbeat"
        for process in shard.processes:
            if not process.is_alive():
                return "process-death"
        return None

    # -- autoscaling ---------------------------------------------------------- #
    def _autoscale(self, now: float) -> None:
        policy = self.policy
        if policy is None or self.admission is None:
            return
        with self._lock:
            if now - self._last_scale_at < policy.cooldown_seconds:
                return
        live = self.pool.live_shards
        booting = self.pool.booting_shards()
        if live == 0:
            return  # eviction/respawn in flight; scaling waits for a fleet
        depth_per_shard = self.admission.queue_depth() / live
        if (
            depth_per_shard > policy.scale_up_depth
            and live + booting < policy.max_shards
        ):
            # boot off-thread: the sweep must keep supervising during the
            # multi-second boot
            self.pool.add_shard(wait=False)
            with self._lock:
                self.shards_autoscaled_up += 1
                self._last_scale_at = now
        elif (
            depth_per_shard < policy.scale_down_depth
            and live > policy.min_shards
            and booting == 0
        ):
            if self.pool.retire_shard() is not None:
                with self._lock:
                    self.shards_autoscaled_down += 1
                    self._last_scale_at = now

    # -- observability --------------------------------------------------------- #
    def stats_snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "heartbeats_missed": self.heartbeats_missed,
                "shards_evicted": self.shards_evicted,
                "shards_autoscaled_up": self.shards_autoscaled_up,
                "shards_autoscaled_down": self.shards_autoscaled_down,
                "respawn_cooldown_s": self.respawn_cooldown,
                "autoscale": {
                    "min_shards": self.policy.min_shards,
                    "max_shards": self.policy.max_shards,
                    "scale_up_depth": self.policy.scale_up_depth,
                    "scale_down_depth": self.policy.scale_down_depth,
                    "cooldown_seconds": self.policy.cooldown_seconds,
                }
                if self.policy
                else None,
            }


__all__ = ["AutoscalePolicy", "ShardSupervisor"]
