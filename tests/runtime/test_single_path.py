"""Guard: one executor, one oracle — and no way to ask for anything else.

The scheduled, kernel-bound plan is the only runtime path.  These checks
fail if a mode parameter comes back on any public signature, or if a runtime
or serving module starts importing the test-only sequential oracle.
"""

from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path

import pytest

import repro.crypto
import repro.crypto.secure_model
import repro.offline
import repro.runtime
import repro.runtime.party
import repro.serve
from repro.crypto.kernels import KernelContext
from repro.crypto.passes import lower_plan, optimize_plan
from repro.crypto.plan import compile_plan
from repro.crypto.protocols.registry import ProtocolHandler
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.vgg import vgg_tiny
from repro.runtime import run_two_process_inference
from repro.runtime.party import PartyJob
from repro.runtime.server import ServerConfig
from repro.serve import PlanPoolCache, ShardedServingPool, WorkerShard

MODE_PARAMETERS = {
    "optimize",
    "lower",
    "coalesce_rounds",
    "lower_local_compute",
    "enabled",
}


@pytest.mark.parametrize(
    "signature_of",
    [
        SecureInferenceEngine.compile,
        optimize_plan,
        PartyJob,
        run_two_process_inference,
        ServerConfig,
        WorkerShard,
        ShardedServingPool,
        PlanPoolCache,
        KernelContext,
    ],
    ids=lambda obj: obj.__qualname__,
)
def test_no_mode_parameter_on_any_signature(signature_of):
    parameters = set(inspect.signature(signature_of).parameters)
    assert not parameters & MODE_PARAMETERS


def test_protocol_handlers_expose_phases_only():
    fields = {field.name for field in dataclasses.fields(ProtocolHandler)}
    assert "phases" in fields and "execute" not in fields


@pytest.mark.parametrize("package", [repro.runtime, repro.serve], ids=lambda p: p.__name__)
def test_runtime_and_serving_never_import_the_oracle(package):
    modules = sorted(Path(package.__file__).parent.glob("*.py"))
    assert modules
    for module in modules:
        assert "run_reference" not in module.read_text(encoding="utf-8"), module


@pytest.mark.parametrize(
    "module", [repro.crypto.secure_model, repro.runtime.party], ids=lambda m: m.__name__
)
def test_engine_and_party_hold_no_second_executor(module):
    source = inspect.getsource(module)
    assert "isinstance(plan" not in source
    assert "handler.execute" not in source and "plan.ops:" not in source


def test_lower_plan_is_the_identity_the_benchmark_still_imports():
    splan = optimize_plan(compile_plan(vgg_tiny(input_size=8)))
    assert lower_plan(splan) is splan


@pytest.mark.parametrize(
    "package",
    [repro.crypto, repro.runtime, repro.serve, repro.offline],
    ids=lambda p: p.__name__,
)
def test_every_exported_name_resolves(package):
    """Names were deleted from ``__all__`` by hand (no ruff in the sandbox)."""
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing
