"""End-to-end 2PC private inference over a derived PASNet architecture.

The :class:`SecureInferenceEngine` is the in-process face of the one runtime
path, dispatching every layer through the protocol registry
(:mod:`repro.crypto.protocols.registry`):

- :meth:`~SecureInferenceEngine.compile` lowers the spec into a graph plan
  and runs the optimizer pass pipeline once, returning the
  :class:`~repro.crypto.passes.ScheduledPlan` every runtime layer executes;
- :meth:`~SecureInferenceEngine.preprocess` pre-generates *all* correlated
  randomness from the plan's manifest in an offline phase;
- :meth:`~SecureInferenceEngine.execute` runs the low-latency online phase —
  batched over N client queries, rounds coalesced, local compute on the
  fused kernels — against the resulting randomness pool with **zero** dealer
  generation calls.  This is the executable counterpart of the paper's
  offline/online deployment split (Fig. 3) and amortizes both compilation
  and preprocessing across batched traffic;
- :meth:`~SecureInferenceEngine.run` is the one-shot convenience:
  ``execute(compile(spec, len(inputs)), weights, inputs)``.

The sequential, kernel-free reference semantics live in one place —
:func:`repro.crypto.events.run_reference`, the oracle the tests compare this
engine against bit for bit.

The client secret-shares its query between the two servers; the model
weights live with the model vendor (server 0) and are therefore evaluated
with the "public weight" protocol variants (no weight-sharing triples), which
matches Delphi-style deployments and the paper's latency model where weight
transfers are not part of the online communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.crypto.context import TwoPartyContext, make_context
from repro.crypto.dealer import RandomnessPool
from repro.crypto.events import bytes_saved_pct as _bytes_saved_pct
from repro.crypto.passes import ScheduledPlan, optimize_plan
from repro.crypto.plan import compile_plan
from repro.crypto.scheduler import run_scheduled_plan
from repro.crypto.sharing import reconstruct, share
from repro.models.specs import ModelSpec


@dataclass
class SecureInferenceResult:
    """Outputs of a private-inference run.

    ``communication_bytes`` / ``communication_rounds`` cover the **online**
    phase only; the offline cost is reported separately as the randomness
    material volume and the per-kind element counts.
    """

    logits: np.ndarray
    communication_bytes: int
    communication_rounds: int
    per_layer_bytes: Dict[str, int] = field(default_factory=dict)
    batch_size: int = 1
    offline_material_bytes: int = 0
    offline_triple_elements: int = 0
    offline_square_pair_elements: int = 0
    offline_bit_triple_elements: int = 0
    offline_dabit_elements: int = 0
    #: frame-format-v1 equivalent of ``communication_bytes`` (no sub-byte
    #: packing) — what the same execution would have shipped before the
    #: packed wire format
    communication_unpacked_bytes: int = 0
    #: local-compute time of the online phase (protocol handler time, wire
    #: waits excluded), summed over ops
    cpu_time_ns: int = 0
    #: per-op local-compute attribution of ``cpu_time_ns``
    per_op_cpu_ns: Dict[str, int] = field(default_factory=dict)
    #: fused-kernel invocations of the online phase
    fused_kernel_calls: int = 0

    @property
    def online_bytes_per_query(self) -> float:
        return self.communication_bytes / max(self.batch_size, 1)

    @property
    def bytes_saved_pct(self) -> float:
        """Percent of online payload the packed wire format saves (0-100)."""
        return _bytes_saved_pct(
            self.communication_bytes, self.communication_unpacked_bytes
        )


class SecureInferenceEngine:
    """Runs a :class:`repro.models.specs.ModelSpec` under simulated 2PC."""

    def __init__(self, ctx: Optional[TwoPartyContext] = None) -> None:
        self.ctx = ctx or make_context()

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def compile(self, spec: ModelSpec, batch_size: int = 1) -> ScheduledPlan:
        """Lower ``spec`` into the scheduled plan for this engine's ring.

        Compiles the spec into a graph plan and runs the optimizer pass
        pipeline (:func:`repro.crypto.passes.optimize_plan`); executing the
        result coalesces independent openings into shared rounds.
        """
        return optimize_plan(
            compile_plan(spec, batch_size=batch_size, ring=self.ctx.ring)
        )

    def preprocess(self, plan: ScheduledPlan) -> RandomnessPool:
        """Generate the plan's correlated randomness from the live dealer."""
        return self.ctx.dealer.preprocess(plan)

    # ------------------------------------------------------------------ #
    # Online phase
    # ------------------------------------------------------------------ #
    def execute(
        self,
        plan: ScheduledPlan,
        weights: Dict[str, Dict[str, np.ndarray]],
        inputs: np.ndarray,
        pool: Optional[RandomnessPool] = None,
    ) -> SecureInferenceResult:
        """Execute the online phase of a compiled plan on a query batch.

        Args:
            plan: the scheduled plan (see :meth:`compile`).
            weights: mapping layer-name -> parameter dict as produced by
                :func:`repro.models.builder.export_layer_weights`.
            inputs: plaintext client queries, NCHW float array whose batch
                dimension must equal ``plan.batch_size``.
            pool: the preprocessed randomness (see :meth:`preprocess`).
                When omitted, preprocessing runs implicitly first — the
                result is the same, only un-amortized.

        Returns:
            A :class:`SecureInferenceResult`; its communication counters are
            pure online cost (the dealer performs zero generation calls).
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape[0] != plan.batch_size:
            raise ValueError(
                f"plan was compiled for batch size {plan.batch_size}, "
                f"got a batch of {inputs.shape[0]}"
            )
        if tuple(inputs.shape) != plan.input_shape:
            raise ValueError(
                f"plan expects input shape {plan.input_shape}, got {inputs.shape}"
            )
        if pool is None:
            pool = self.preprocess(plan)

        ctx = self.ctx
        dealer = ctx.dealer
        ctx.dealer = pool  # online phase: serve randomness, never generate
        profile: Dict[str, object] = {}
        try:
            ctx.reset_communication()
            shared = share(inputs, ctx.ring, ctx.rng)
            shared, per_layer = run_scheduled_plan(
                ctx, plan, weights, shared, profile=profile
            )
            logits = reconstruct(shared)
        finally:
            ctx.dealer = dealer

        manifest = plan.manifest
        return SecureInferenceResult(
            logits=logits,
            communication_bytes=ctx.communication_bytes,
            communication_rounds=ctx.communication_rounds,
            per_layer_bytes=per_layer,
            batch_size=plan.batch_size,
            offline_material_bytes=manifest.material_bytes,
            offline_triple_elements=manifest.triple_elements,
            offline_square_pair_elements=manifest.square_pair_elements,
            offline_bit_triple_elements=manifest.bit_triple_elements,
            offline_dabit_elements=manifest.dabit_elements,
            communication_unpacked_bytes=ctx.channel.log.total_unpacked_bytes,
            cpu_time_ns=profile["cpu_time_ns"],
            per_op_cpu_ns=profile["per_op_cpu_ns"],
            fused_kernel_calls=profile["fused_kernel_calls"],
        )

    def run(
        self,
        spec: ModelSpec,
        weights: Dict[str, Dict[str, np.ndarray]],
        inputs: np.ndarray,
    ) -> SecureInferenceResult:
        """One-shot private inference: compile for this batch, then execute.

        ``spec`` is a *derived* architecture (every activation concretely
        ReLU or X^2act); ``weights`` and ``inputs`` are as in :meth:`execute`.
        Nothing is amortized — serving code compiles and preprocesses once.
        """
        return self.execute(self.compile(spec, len(inputs)), weights, inputs)
