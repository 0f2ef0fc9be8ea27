"""Shard supervision: heartbeat sweeps, evict-and-respawn, autoscaling.

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
  core file, OOM loop) from turning into a respawn storm;
- an :class:`AutoscalePolicy` grows the pool when the pool's queue depth
  per live shard stays high and shrinks it when the pool idles, within
  ``[min_shards, max_shards]`` and rate-limited by a cooldown.

The supervisor is optional and composable: the pool works without it, the
daemon runs one per pool.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.obs import Metrics
from repro.runtime.shard import WorkerShard
from repro.serve.pool import ShardedServingPool


@dataclass(frozen=True)
class AutoscalePolicy:
    """When to grow or shrink the shard fleet.

    Decisions use *queued plus running query rows per live shard* (the
    pool's :meth:`~repro.serve.pool.ShardedServingPool.queue_depth`, the
    same depth the daemon admits against) so the thresholds are fleet-size
    invariant:

    - depth per live shard > ``scale_up_depth`` → add a shard (up to
      ``max_shards``);
    - depth per live shard < ``scale_down_depth`` for a full cooldown →
      retire an idle shard (down to ``min_shards``).

    ``cooldown_seconds`` rate-limits *all* scaling actions, so a burst
    cannot thrash the fleet up and down.
    """

    min_shards: int = 1
    max_shards: int = 4
    #: queue depth per live shard above which the pool grows
    scale_up_depth: float = 8.0
    #: queue depth per live shard below which the pool shrinks
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
        policy: the autoscaling policy, steered by the pool's queue depth
            (``None`` disables autoscaling; supervision still runs).
        interval: seconds between sweeps.
        respawn_cooldown: minimum seconds between evictions of the same
            shard slot — the respawn-storm brake.
    """

    def __init__(
        self,
        pool: ShardedServingPool,
        policy: Optional[AutoscalePolicy] = None,
        interval: float = 0.25,
        respawn_cooldown: float = 2.0,
    ) -> None:
        self.pool = pool
        self.policy = policy
        self.interval = interval
        self.respawn_cooldown = respawn_cooldown
        self.metrics = Metrics(
            "heartbeats_missed", "shards_evicted", "shards_autoscaled_up", "shards_autoscaled_down"
        )
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
        self._autoscale(now)

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

    # -- autoscaling ---------------------------------------------------------- #
    def _autoscale(self, now: float) -> None:
        policy = self.policy
        if policy is None:
            return
        with self._lock:
            if now - self._last_scale_at < policy.cooldown_seconds:
                return
        live = self.pool.live_shards
        booting = self.pool.booting_shards()
        if live == 0:
            return  # eviction/respawn in flight; scaling waits for a fleet
        depth_per_shard = self.pool.queue_depth() / live
        if (
            depth_per_shard > policy.scale_up_depth
            and live + booting < policy.max_shards
        ):
            # boot off-thread: the sweep must keep supervising during the
            # multi-second boot
            self.pool.add_shard(wait=False)
            self.metrics.inc("shards_autoscaled_up")
            with self._lock:
                self._last_scale_at = now
        elif (
            depth_per_shard < policy.scale_down_depth
            and live > policy.min_shards
            and booting == 0
        ):
            if self.pool.retire_shard() is not None:
                self.metrics.inc("shards_autoscaled_down")
                with self._lock:
                    self._last_scale_at = now

    # -- observability --------------------------------------------------------- #
    def stats_snapshot(self) -> Dict[str, object]:
        """The registry plus the supervision settings, rendered for ``/stats``."""
        return {
            **self.metrics.snapshot(),
            "respawn_cooldown_s": self.respawn_cooldown,
            "autoscale": asdict(self.policy) if self.policy else None,
        }


__all__ = ["AutoscalePolicy", "ShardSupervisor"]
