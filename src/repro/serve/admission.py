"""Admission control for the serving control plane: bounded queues, explicit
backpressure, and the load signals the autoscaler steers by.

The pool's coalescing frontend accepts every submitted query — under a
sustained overload that means an unbounded queue, collapsing latency for
everyone and an eventual OOM.  The :class:`AdmissionController` sits in
front of it and enforces a *bounded* amount of queued work per
``(model, batch)`` key:

- every accepted query **admits** against the key's queue budget and
  **releases** when its future resolves (success or failure — the budget
  tracks in-flight work, not outcomes);
- a query that would push the key past its budget is **shed** with an
  explicit verdict carrying a ``retry_after_ms`` hint computed from the
  current depth and the key's EWMA service time (the daemon's client
  raises it as a :class:`BackpressureError`) — the client is told *when*
  capacity is expected, never silently dropped;
- per-key depth and EWMA service time feed the backpressure hints and the
  supervisor's autoscaling decisions; admitted/shed counters and the
  queue-depth windows are names in the controller's
  :class:`~repro.obs.Metrics`, which :meth:`AdmissionController.snapshot`
  renders for ``/stats``.

All operations are quick lock-held bookkeeping — safe to call from the
daemon's event loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs import Metrics


class BackpressureError(RuntimeError):
    """The serving queue is full; the query was shed, not dropped silently.

    ``retry_after_ms`` is the controller's estimate of when capacity frees
    up (current queued work times the key's per-query EWMA service time) —
    a well-behaved client backs off at least that long before resubmitting.
    """

    def __init__(
        self,
        message: str,
        model: str = "",
        batch_size: int = 0,
        queue_depth: int = 0,
        queue_budget: int = 0,
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.model = model
        self.batch_size = batch_size
        self.queue_depth = queue_depth
        self.queue_budget = queue_budget
        self.retry_after_ms = retry_after_ms


@dataclass
class AdmissionDecision:
    """What the controller decided for one submission."""

    admitted: bool
    model: str
    batch_size: int
    #: queued query-weight for the key at decision time (this query included
    #: when admitted)
    queue_depth: int
    queue_budget: int
    #: backoff hint handed to shed clients (0 when admitted)
    retry_after_ms: float = 0.0


@dataclass
class _KeyState:
    """The policy inputs of one (model, batch) admission key."""

    depth: int = 0  # queued + in-flight query weight
    ewma_service_s: float = 0.0


class AdmissionController:
    """Bounded-queue admission with backpressure hints and EWMA load signals.

    Args:
        queue_budget: max queued + in-flight query weight per (model, batch)
            key before submissions are shed.
        ewma_alpha: smoothing factor of the per-key service-time EWMA
            (higher = reacts faster to load shifts).
        retry_floor_ms: minimum ``retry_after_ms`` handed to shed clients,
            so a cold key (no service-time estimate yet) still spreads its
            retry storm out.
    """

    def __init__(
        self,
        queue_budget: int = 64,
        ewma_alpha: float = 0.2,
        retry_floor_ms: float = 25.0,
    ) -> None:
        if queue_budget < 1:
            raise ValueError(f"queue_budget must be >= 1, got {queue_budget}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.queue_budget = queue_budget
        self.ewma_alpha = ewma_alpha
        self.retry_floor_ms = retry_floor_ms
        self._keys: Dict[Tuple[str, int], _KeyState] = {}
        self._lock = threading.Lock()
        #: ``jobs_admitted`` / ``jobs_shed`` and the ``queue_depth`` window,
        #: each also per key as ``<name>.<model>/b<batch>``
        self.metrics = Metrics("jobs_admitted", "jobs_shed")

    # -- admission ----------------------------------------------------------- #
    def try_admit(self, model: str, batch_size: int = 1) -> AdmissionDecision:
        """Admit ``batch_size`` query-weight for the key, or shed it.

        The caller owns the admitted weight and must :meth:`release` it
        exactly once when the work resolves (whatever the outcome).
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        key = (model, batch_size)
        with self._lock:
            state = self._keys.setdefault(key, _KeyState())
            admitted = state.depth + batch_size <= self.queue_budget
            state.depth += batch_size if admitted else 0
            counter = "jobs_admitted" if admitted else "jobs_shed"
            for suffix in ("", f".{model}/b{batch_size}"):
                self.metrics.inc(counter + suffix, batch_size)
                self.metrics.observe("queue_depth" + suffix, state.depth)
            return AdmissionDecision(
                admitted=admitted,
                model=model,
                batch_size=batch_size,
                queue_depth=state.depth,
                queue_budget=self.queue_budget,
                retry_after_ms=0.0 if admitted else self._retry_after_ms_locked(state),
            )

    def release(
        self,
        model: str,
        batch_size: int = 1,
        service_seconds: Optional[float] = None,
    ) -> None:
        """Return admitted query-weight; optionally record the service time.

        ``service_seconds`` (wall time from admission to resolution, per
        admission) updates the key's EWMA — pass it on success so the
        backpressure hints and the autoscaler track reality.
        """
        key = (model, batch_size)
        with self._lock:
            state = self._keys.get(key)
            if state is None:
                return
            state.depth = max(0, state.depth - batch_size)
            if service_seconds is not None and service_seconds >= 0:
                per_query = service_seconds / batch_size
                if state.ewma_service_s == 0.0:
                    state.ewma_service_s = per_query
                else:
                    state.ewma_service_s += self.ewma_alpha * (
                        per_query - state.ewma_service_s
                    )

    def _retry_after_ms_locked(self, state: _KeyState) -> float:
        # expected drain time of the work already queued ahead, with a floor
        # so cold keys still spread their retry storm
        estimate = 1e3 * state.depth * state.ewma_service_s
        return max(estimate, self.retry_floor_ms)

    # -- load signals --------------------------------------------------------- #
    def queue_depth(self, model: Optional[str] = None) -> int:
        """Current queued query-weight (one key, or the whole controller)."""
        with self._lock:
            return sum(
                state.depth
                for (name, _), state in self._keys.items()
                if model is None or name == model
            )

    def ewma_service_seconds(self) -> float:
        """Depth-weighted mean of the per-key service-time EWMAs."""
        with self._lock:
            states = [s for s in self._keys.values() if s.ewma_service_s > 0]
            if not states:
                return 0.0
            total = sum(max(s.depth, 1) for s in states)
            return (
                sum(s.ewma_service_s * max(s.depth, 1) for s in states) / total
            )

    def snapshot(self) -> Dict[str, object]:
        """The registry plus the per-key policy inputs, rendered for ``/stats``."""
        m = self.metrics
        per_key = {}
        with self._lock:
            for (model, batch_size), state in sorted(self._keys.items()):
                label = f"{model}/b{batch_size}"
                per_key[label] = {
                    "queue_depth": state.depth,
                    "admitted": m.get(f"jobs_admitted.{label}"),
                    "shed": m.get(f"jobs_shed.{label}"),
                    "ewma_service_ms": 1e3 * state.ewma_service_s,
                    "queue_depth_p95": m.percentile(f"queue_depth.{label}", 95),
                }
        return {
            "queue_budget": self.queue_budget,
            "queue_depth": self.queue_depth(),
            "jobs_admitted": m.get("jobs_admitted"),
            "jobs_shed": m.get("jobs_shed"),
            "queue_depth_p95": m.percentile("queue_depth", 95),
            "ewma_service_ms": 1e3 * self.ewma_service_seconds(),
            "per_key": per_key,
        }
