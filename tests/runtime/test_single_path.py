"""Guard: one executor, one oracle — and no way to ask for anything else.

The scheduled, kernel-bound plan is the only runtime path.  These checks
fail if a mode parameter comes back on any public signature, or if a runtime
or serving module starts importing the test-only sequential oracle.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro.crypto
import repro.crypto.secure_model
import repro.crypto.transport
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
from repro.runtime import ServerConfig, WorkerShard, run_two_process_inference
from repro.serve import BatchingFrontend, ShardedServingPool

SRC = Path(repro.crypto.__file__).parents[1]
RUNTIME_AND_SERVE = sorted(
    path for package in ("runtime", "serve") for path in (SRC / package).glob("*.py")
)
CRYPTO = sorted((SRC / "crypto").rglob("*.py"))


def _parameter_and_field_names(node) -> set:
    """Names a function takes, or a class body annotates (dataclass fields)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = node.args
        return {
            a.arg for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        }
    if isinstance(node, ast.ClassDef):
        return {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
    return set()


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
        run_two_process_inference,
        ServerConfig,
        WorkerShard,
        ShardedServingPool,
        BatchingFrontend,
        KernelContext,
    ],
    ids=lambda obj: obj.__qualname__,
)
def test_no_mode_parameter_on_any_signature(signature_of):
    parameters = set(inspect.signature(signature_of).parameters)
    assert not parameters & MODE_PARAMETERS


def test_constant_knobs_are_not_parameters_or_fields_anywhere():
    """``verify`` is always on and the two tuning values are module
    constants: no signature or dataclass in runtime/serve may re-grow them."""
    banned = {"verify", "factory_announce_ahead", "retry_backoff"}
    for path in RUNTIME_AND_SERVE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = _parameter_and_field_names(node)
            assert not names & banned, (path.name, node.name, names & banned)


def test_link_latency_is_spelled_once_and_injected_by_the_fault_plan_only():
    """One parameter left in ``src/`` — the pool's shorthand for a
    latency-only ``link_shape`` — and none below it."""
    holders = [
        (path.name, node.name)
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "link_latency" in _parameter_and_field_names(node)
    ]
    assert holders == [("pool.py", "__init__")]
    for path in CRYPTO + sorted((SRC / "runtime").glob("*.py")):
        assert "link_latency" not in path.read_text(encoding="utf-8"), path.name


def test_a_transport_implements_one_frame_primitive():
    transport = repro.crypto.transport
    concrete = [
        cls
        for cls in vars(transport).values()
        if inspect.isclass(cls)
        and issubclass(cls, transport.Transport)
        and cls not in (transport.Transport, transport.FaultyTransport)
    ]
    assert len(concrete) == 3
    for cls in concrete:
        assert "_transfer" in vars(cls), cls.__name__
    # the fault wrapper only hooks the funnel its round indices hang on
    assert {"_put_frame", "_take_frame"} <= set(vars(transport.FaultyTransport))
    assert "_transfer" not in vars(transport.FaultyTransport)
    for cls in [transport.Transport, transport.FaultyTransport, *concrete]:
        for gone in (
            "send_array", "recv_array", "exchange_array",
            "_send_frame", "_recv_frame", "_exchange_frame",
        ):
            assert not hasattr(cls, gone), (cls.__name__, gone)
    party_channel = vars(repro.crypto.PartyChannel)
    assert not {"exchange", "_swap", "_log"} & set(party_channel)


def test_each_constructor_keeps_its_reduced_option_count():
    def count(target):
        return len(inspect.signature(target).parameters)

    assert count(WorkerShard) <= 9 and "config" in inspect.signature(WorkerShard).parameters
    assert count(ShardedServingPool) <= 20
    assert count(BatchingFrontend) <= 5
    assert len(dataclasses.fields(ServerConfig)) <= 11


def test_one_provision_request_and_one_process_spawner():
    definitions = [
        path
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name == "ProvisionRequest"
    ]
    assert [path.name for path in definitions] == ["provisioning.py"]
    spawners = [
        path.name
        for path in RUNTIME_AND_SERVE
        if "mp.Process(" in path.read_text(encoding="utf-8")
    ]
    assert spawners == ["shard.py"]


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.runtime", "PartyJob"),
        ("repro.runtime", "PartyReport"),
        ("repro.runtime", "run_party_worker"),
        ("repro.runtime", "ProvisionRequest"),
        ("repro.runtime.party", "run_party_session"),
        ("repro.runtime.twoprocess", "_check_cross_party_consistency"),
        ("repro.serve", "PlanPoolCache"),
        ("repro.serve", "CacheStats"),
        ("repro.serve.pool", "_PoolFrontend"),
        ("repro.crypto.transport", "HEARTBEAT_MAGIC"),
        ("repro.crypto.transport", "heartbeat_payload"),
        ("repro.crypto.transport", "TransportEndpoint"),
        ("repro.crypto.transport", "free_port"),
        ("repro.crypto", "TransportEndpoint"),
    ],
)
def test_deleted_names_stay_deleted(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_deleted_module_and_method_stay_deleted():
    assert importlib.util.find_spec("repro.serve.cache") is None
    assert not hasattr(repro.crypto.transport.Transport, "send_heartbeat")
    assert not hasattr(repro.crypto.transport.TcpTransport, "listen")


def test_no_crypto_runtime_or_serve_module_exceeds_700_lines():
    sizes = {
        str(path.relative_to(SRC)): len(path.read_text(encoding="utf-8").splitlines())
        for path in CRYPTO + RUNTIME_AND_SERVE
    }
    assert {name: n for name, n in sizes.items() if n > 700} == {}


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
