"""Optimizer passes over the plan IR: from op graph to round schedule.

The compiler (:func:`repro.crypto.plan.compile_plan`) emits a dependency DAG
of :class:`~repro.crypto.plan.PlanOp`; this module runs an ordered pass
pipeline over it and produces a :class:`ScheduledPlan` — the one artifact
the runtime layers execute:

1. **dead-op elimination** (:func:`dead_op_elimination`) — drop every op
   whose output is unreachable from the plan output (shrinking the manifest
   with it);
2. **topological levelization** (:func:`levelize`) — partition the ops into
   depth levels; ops in one level have no dataflow edges between them and
   may execute concurrently;
3. **round-coalescing scheduling** (:func:`schedule_rounds`) — zip the round
   groups of the independent ops of each level into shared
   :class:`ScheduledRound`\\ s, so messages of independent openings ride one
   framed wire message per direction.  Intra-op parallelism (the stacked
   digit OT and the per-level stacked AND of the log-depth comparison tree,
   the E/F openings of a Beaver multiply) is already expressed by the ops'
   round groups; this pass adds the cross-op dimension.

The scheduled plan preserves the base plan's byte accounting exactly — only
the round structure changes — and
:attr:`ScheduledPlan.manifest` recomputes the exact per-round byte trace for
the optimized schedule.  Executing a scheduled plan
(:func:`repro.crypto.scheduler.run_scheduled_plan`) is bit-identical to the
sequential oracle (:func:`repro.crypto.events.run_reference`) for
chain-structured models (every model in the zoo): the dealer stream is
partitioned per op in manifest order, so each op consumes exactly the
randomness it would have drawn sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.crypto.plan import (
    InferencePlan,
    PlanOp,
    PreprocessingManifest,
    RoundTrace,
    round_trace_messages,
)
from repro.crypto.protocols.registry import group_direction_totals, trace_rounds

#: serialization format tag of :meth:`ScheduledPlan.to_dict`
SCHEDULED_PLAN_FORMAT = "scheduled-plan/v1"


# --------------------------------------------------------------------------- #
# Plan-rewriting passes
# --------------------------------------------------------------------------- #
def dead_op_elimination(plan: InferencePlan) -> InferencePlan:
    """Drop ops whose output cannot reach the plan output.

    The compiler's sequential lowering never produces dead ops for the
    model zoo (the activation chain threads through every layer), but plans
    assembled or transformed by other passes may; running DCE first keeps
    the manifest — and therefore the offline phase — minimal.
    """
    if not plan.ops:
        return plan
    live = set()
    stack = [len(plan.ops) - 1]
    while stack:
        index = stack.pop()
        if index in live:
            continue
        live.add(index)
        stack.extend(plan.ops[index].deps)
    if len(live) == len(plan.ops):
        return plan
    kept = [op for op in plan.ops if op.index in live]
    remap = {op.index: new_index for new_index, op in enumerate(kept)}
    ops = tuple(
        dc_replace(
            op,
            index=remap[op.index],
            deps=tuple(remap[dep] for dep in op.deps),
        )
        for op in kept
    )
    return dc_replace(plan, ops=ops)


#: registry of plan-rewriting passes, applied in pipeline order
PLAN_PASSES: Dict[str, Callable[[InferencePlan], InferencePlan]] = {
    "dead-op-elimination": dead_op_elimination,
}

#: the default rewrite pipeline (levelization + scheduling always follow)
DEFAULT_PASSES: Tuple[str, ...] = ("dead-op-elimination",)


# --------------------------------------------------------------------------- #
# Analysis passes: levelization and round scheduling
# --------------------------------------------------------------------------- #
def levelize(plan: InferencePlan) -> Tuple[Tuple[int, ...], ...]:
    """Topological depth levels of the plan DAG.

    ``depth(op) = 1 + max(depth(dep))``; ops sharing a depth have no
    dataflow edges between them (a dep always has strictly smaller depth)
    and may execute concurrently.  Within a level ops keep their plan order,
    which the executor follows so randomness consumption stays
    deterministic.
    """
    depth: List[int] = []
    for op in plan.ops:
        if any(dep >= op.index for dep in op.deps):
            raise ValueError(
                f"op {op.name!r} (index {op.index}) depends on a later op — "
                "the plan is not in topological order"
            )
        depth.append(1 + max((depth[dep] for dep in op.deps), default=-1))
    levels: Dict[int, List[int]] = {}
    for index, d in enumerate(depth):
        levels.setdefault(d, []).append(index)
    return tuple(tuple(levels[d]) for d in sorted(levels))


@dataclass(frozen=True)
class ScheduledRound:
    """One coalesced communication round of a scheduled plan.

    ``entries`` names the ``(op_index, group_index)`` round groups that ride
    this round; their events share one framed message per direction.
    """

    level: int
    entries: Tuple[Tuple[int, int], ...]
    bytes_from_0: int
    bytes_from_1: int

    @property
    def online_bytes(self) -> int:
        return self.bytes_from_0 + self.bytes_from_1


@dataclass(frozen=True)
class PlanSchedule:
    """The compile-time round schedule of one plan."""

    levels: Tuple[Tuple[int, ...], ...]
    rounds: Tuple[ScheduledRound, ...]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def messages(self) -> List[Tuple[int, int]]:
        """Canonical per-direction message stream of the schedule."""
        return round_trace_messages(self.round_trace())

    def round_trace(self) -> Tuple[RoundTrace, ...]:
        return tuple((r.bytes_from_0, r.bytes_from_1) for r in self.rounds)


def schedule_rounds(
    plan: InferencePlan, levels: Optional[Tuple[Tuple[int, ...], ...]] = None
) -> PlanSchedule:
    """Zip the round groups of each level's independent ops into shared rounds.

    Round ``g`` of a level carries group ``g`` of every op in the level that
    has one — the same alignment the executor realizes by stepping all the
    level's phase generators once per round.  Levels with a single
    interactive op keep that op's intra-op coalescing; levels with several
    merge their traffic.
    """
    levels = levels if levels is not None else levelize(plan)
    rounds: List[ScheduledRound] = []
    for level_index, level in enumerate(levels):
        max_groups = max((len(plan.ops[i].round_groups) for i in level), default=0)
        for g in range(max_groups):
            entries: List[Tuple[int, int]] = []
            totals = [0, 0]
            for op_index in level:
                groups = plan.ops[op_index].round_groups
                if g >= len(groups):
                    continue
                entries.append((op_index, g))
                from_0, from_1 = group_direction_totals(groups[g])
                totals[0] += from_0
                totals[1] += from_1
            if entries:
                rounds.append(
                    ScheduledRound(
                        level=level_index,
                        entries=tuple(entries),
                        bytes_from_0=totals[0],
                        bytes_from_1=totals[1],
                    )
                )
    return PlanSchedule(levels=levels, rounds=tuple(rounds))


# --------------------------------------------------------------------------- #
# The scheduled plan artifact
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScheduledPlan:
    """An optimized plan: the op graph plus its compile-time round schedule.

    Exposes the :class:`InferencePlan` surface the runtime layers consume
    (``ops``, shapes, byte predictions, ``manifest``) with the round
    predictions recomputed for the coalesced schedule, which is what
    :func:`repro.runtime.party.verify_against_plan` checks every execution
    against.
    """

    plan: InferencePlan
    schedule: PlanSchedule
    applied_passes: Tuple[str, ...] = ()

    # -- delegated plan surface --------------------------------------------- #
    @property
    def model_name(self) -> str:
        return self.plan.model_name

    @property
    def batch_size(self) -> int:
        return self.plan.batch_size

    @property
    def ring(self):
        return self.plan.ring

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return self.plan.input_shape

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return self.plan.output_shape

    @property
    def ops(self) -> Tuple[PlanOp, ...]:
        return self.plan.ops

    def __iter__(self) -> Iterator[PlanOp]:
        return iter(self.plan.ops)

    def __len__(self) -> int:
        return len(self.plan.ops)

    def op(self, name: str) -> PlanOp:
        return self.plan.op(name)

    def per_op_bytes(self) -> Dict[str, int]:
        return self.plan.per_op_bytes()

    def per_op_summary(self) -> List[Dict[str, object]]:
        return self.plan.per_op_summary()

    # -- predictions --------------------------------------------------------- #
    @property
    def online_bytes(self) -> int:
        return self.plan.online_bytes

    @property
    def online_rounds(self) -> int:
        """Scheduled round count (the coalesced execution's log)."""
        return trace_rounds(self.schedule.messages())

    @property
    def oracle_rounds(self) -> int:
        """The sequential count of the unoptimized plan — what the oracle logs."""
        return self.plan.oracle_rounds

    @property
    def manifest(self) -> PreprocessingManifest:
        """The base manifest with the round trace recomputed for the
        optimized schedule — byte totals unchanged, rounds coalesced."""
        base = self.plan.manifest
        return PreprocessingManifest(
            requests=base.requests,
            ring=base.ring,
            messages=base.messages,
            round_trace=self.schedule.round_trace(),
        )

    # -- (de)serialization --------------------------------------------------- #
    def to_dict(self) -> Dict:
        return {
            "format": SCHEDULED_PLAN_FORMAT,
            "plan": self.plan.to_dict(),
            "applied_passes": list(self.applied_passes),
            "schedule": {
                "levels": [list(level) for level in self.schedule.levels],
                "rounds": [
                    {
                        "level": r.level,
                        "entries": [list(entry) for entry in r.entries],
                        "bytes_from_0": r.bytes_from_0,
                        "bytes_from_1": r.bytes_from_1,
                    }
                    for r in self.schedule.rounds
                ],
            },
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ScheduledPlan":
        if data.get("format") != SCHEDULED_PLAN_FORMAT:
            raise ValueError(
                f"unsupported scheduled-plan format {data.get('format')!r}; "
                f"expected {SCHEDULED_PLAN_FORMAT!r}"
            )
        schedule_data = data["schedule"]
        schedule = PlanSchedule(
            levels=tuple(tuple(level) for level in schedule_data["levels"]),
            rounds=tuple(
                ScheduledRound(
                    level=int(entry["level"]),
                    entries=tuple(
                        (int(op), int(group)) for op, group in entry["entries"]
                    ),
                    bytes_from_0=int(entry["bytes_from_0"]),
                    bytes_from_1=int(entry["bytes_from_1"]),
                )
                for entry in schedule_data["rounds"]
            ),
        )
        return cls(
            plan=InferencePlan.from_dict(data["plan"]),
            schedule=schedule,
            applied_passes=tuple(data.get("applied_passes", ())),
        )


def lower_plan(splan: ScheduledPlan) -> ScheduledPlan:
    """Identity.  Kernels are bound by the executor, not by a plan type; the
    name survives only because ``benchmarks/e2e/traced.py`` imports it (that
    tree is frozen for this change) — a later benchmark PR drops the import
    and this function with it."""
    return splan


def optimize_plan(
    plan: InferencePlan, passes: Optional[Tuple[str, ...]] = None
) -> ScheduledPlan:
    """Run the pass pipeline and return the scheduled plan.

    ``passes`` names the plan-rewriting passes (see :data:`PLAN_PASSES`) in
    application order; levelization and round scheduling always run last —
    they are what turns the op graph into an executable schedule.
    """
    names = DEFAULT_PASSES if passes is None else tuple(passes)
    for name in names:
        try:
            plan_pass = PLAN_PASSES[name]
        except KeyError as exc:
            raise KeyError(
                f"unknown plan pass {name!r}; registered: {sorted(PLAN_PASSES)}"
            ) from exc
        plan = plan_pass(plan)
    levels = levelize(plan)
    schedule = schedule_rounds(plan, levels)
    return ScheduledPlan(
        plan=plan,
        schedule=schedule,
        applied_passes=names + ("levelize", "schedule-rounds"),
    )
