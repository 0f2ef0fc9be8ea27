"""End-to-end 2PC private inference over a derived PASNet architecture.

The :class:`SecureInferenceEngine` is the in-process face of the one runtime
path, dispatching every layer through the protocol registry
(:mod:`repro.crypto.protocols.registry`):

- :meth:`~SecureInferenceEngine.compile` lowers the spec into the
  :class:`~repro.crypto.plan.InferencePlan` every runtime layer executes;
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

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.crypto.context import TwoPartyContext, make_context
from repro.crypto.dealer import RandomnessPool
from repro.crypto.plan import InferencePlan, compile_plan
from repro.crypto.scheduler import PlanExecution, run_scheduled_plan
from repro.crypto.sharing import reconstruct, share
from repro.models.specs import ModelSpec


@dataclass(frozen=True)
class SecureInferenceResult:
    """Reconstructed logits of an in-process run and the executor's record.

    The counters cover the **online** phase only; the offline cost is the
    plan's :attr:`~repro.crypto.plan.InferencePlan.manifest`.
    """

    logits: np.ndarray
    execution: PlanExecution
    batch_size: int

    @property
    def communication_bytes(self) -> int:
        return self.execution.communication_bytes

    @property
    def communication_rounds(self) -> int:
        return self.execution.communication_rounds

    @property
    def per_op_cpu_ns(self) -> Dict[str, int]:
        return self.execution.per_op_cpu_ns

    @property
    def fused_kernel_calls(self) -> int:
        return self.execution.fused_kernel_calls

    @property
    def online_bytes_per_query(self) -> float:
        return self.communication_bytes / max(self.batch_size, 1)


class SecureInferenceEngine:
    """Runs a :class:`repro.models.specs.ModelSpec` under simulated 2PC."""

    def __init__(self, ctx: Optional[TwoPartyContext] = None) -> None:
        self.ctx = ctx or make_context()

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def compile(self, spec: ModelSpec, batch_size: int = 1) -> InferencePlan:
        """Lower ``spec`` into the plan for this engine's ring
        (:func:`repro.crypto.plan.compile_plan`)."""
        return compile_plan(spec, batch_size=batch_size, ring=self.ctx.ring)

    def preprocess(self, plan: InferencePlan) -> RandomnessPool:
        """Generate the plan's correlated randomness from the live dealer."""
        return self.ctx.dealer.preprocess(plan)

    # ------------------------------------------------------------------ #
    # Online phase
    # ------------------------------------------------------------------ #
    def execute(
        self,
        plan: InferencePlan,
        weights: Dict[str, Dict[str, np.ndarray]],
        inputs: np.ndarray,
        pool: Optional[RandomnessPool] = None,
    ) -> SecureInferenceResult:
        """Execute the online phase of a compiled plan on a query batch.

        Args:
            plan: the compiled plan (see :meth:`compile`).
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

        shared = share(inputs, self.ctx.ring, self.ctx.rng)
        execution = run_scheduled_plan(self.ctx, plan, weights, shared, pool)
        return SecureInferenceResult(
            logits=reconstruct(execution.output),
            execution=execution,
            batch_size=plan.batch_size,
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
