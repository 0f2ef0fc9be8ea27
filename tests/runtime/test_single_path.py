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
import json
import re
import textwrap
from pathlib import Path

import pytest

import repro.crypto
import repro.crypto.faults
import repro.crypto.secure_model
import repro.crypto.transport
import repro.runtime
import repro.runtime.party
import repro.serve
from repro.crypto import make_context
from repro.crypto.channel import Channel
from repro.crypto.kernels import KernelContext
from repro.crypto.protocols.arithmetic import multiply, multiply_phases
from repro.crypto.protocols.registry import ProtocolHandler, register_protocol
from repro.crypto.scheduler import run_scheduled_plan
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.vgg import vgg_tiny
from repro.runtime import ServerConfig, WorkerShard, run_two_process_inference
from repro.runtime.party import execute_plan_as_party
from repro.serve import ServingDaemon, ShardedServingPool

SRC = Path(repro.crypto.__file__).parents[1]
REPO = Path(__file__).resolve().parents[2]
E2E = REPO / "benchmarks" / "e2e"
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
        run_two_process_inference,
        ServerConfig,
        WorkerShard,
        ShardedServingPool,
        KernelContext,
        execute_plan_as_party,
    ],
    ids=lambda obj: obj.__qualname__,
)
def test_no_mode_parameter_on_any_signature(signature_of):
    parameters = set(inspect.signature(signature_of).parameters)
    assert not parameters & MODE_PARAMETERS


def test_a_party_execution_is_always_handed_its_restricted_pool():
    """No default: a party never falls back to generating both worlds."""
    pool = inspect.signature(execute_plan_as_party).parameters["pool"]
    assert pool.default is inspect.Parameter.empty


def test_the_executor_is_handed_its_pool_and_fills_no_out_dict():
    """The pool is an argument without a default and the run's account is
    the record it returns: no ``profile=`` out-dict, and neither the engine
    nor a party swaps ``ctx.dealer`` around the call."""
    parameters = inspect.signature(run_scheduled_plan).parameters
    assert list(parameters) == ["ctx", "plan", "weights", "shared", "pool"]
    assert parameters["pool"].default is inspect.Parameter.empty
    for module in (repro.crypto.secure_model, repro.runtime.party):
        assert "ctx.dealer =" not in inspect.getsource(module)


def test_constant_knobs_are_not_parameters_or_fields_anywhere():
    """``verify`` is always on, the tuning values are module constants and
    the factory is gone: no signature or dataclass in runtime/serve may
    re-grow them."""
    banned = {
        "verify", "factory_announce_ahead", "retry_backoff",
        "factory_address", "low_water", "high_water", "heartbeat_interval",
        "ewma_alpha", "retry_floor_ms", "warm_batch_sizes",
    }
    for path in RUNTIME_AND_SERVE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = _parameter_and_field_names(node)
            assert not names & banned, (path.name, node.name, names & banned)


def test_link_latency_is_spelled_once_and_injected_by_the_fault_plan_only():
    """One parameter left in ``src/`` — the pool's, which builds the
    latency-only ``FaultPlan`` both parties run — and none below it."""
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
    transport, faults = repro.crypto.transport, repro.crypto.faults
    concrete = {
        cls
        for module in (transport, faults)
        for cls in vars(module).values()
        if inspect.isclass(cls)
        and issubclass(cls, transport.Transport)
        and cls not in (transport.Transport, faults.FaultyTransport)
    }
    assert len(concrete) == 3
    for cls in concrete:
        assert "_transfer" in vars(cls), cls.__name__
    # the fault wrapper only hooks the funnel its round indices hang on
    assert {"_put_frame", "_take_frame"} <= set(vars(faults.FaultyTransport))
    assert "_transfer" not in vars(faults.FaultyTransport)
    for cls in [transport.Transport, faults.FaultyTransport, *concrete]:
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
    assert count(ShardedServingPool) <= 13
    assert count(ServingDaemon) <= 6
    assert len(dataclasses.fields(ServerConfig)) <= 6


def test_the_party_server_receives_plans_and_never_compiles():
    """The pool compiles each key once and ships the plan: the party
    server imports no compiler, and its config holds plans, not specs."""
    tree = ast.parse((SRC / "runtime" / "server.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"compile_plan", "trace_op", "record_phases"}
    fields = {field.name for field in dataclasses.fields(ServerConfig)}
    assert "plans" in fields and "models" not in fields


def test_one_queue_and_one_worker_per_shard():
    """A free shard's worker pulls its next batch from the pool's queue:
    no dispatcher thread or executor in front of it, and the daemon always
    builds the pool it serves."""
    for path in sorted((SRC / "serve").glob("*.py")):
        assert "ThreadPoolExecutor" not in path.read_text(encoding="utf-8"), path.name
    assert "pool" not in inspect.signature(ServingDaemon).parameters


def test_one_provision_request_and_one_process_spawner():
    """The last ``ProvisionRequest`` left with the factory: none remains,
    and one module spawns processes."""
    mentions = [
        path.name
        for path in SRC.rglob("*.py")
        if "ProvisionRequest" in path.read_text(encoding="utf-8")
    ]
    assert mentions == []
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
        ("repro.serve", "ServingStats"),
        ("repro.serve.frontend", "ServingStats"),
        ("repro.serve", "ShardStats"),
        ("repro.runtime", "ShardStats"),
        ("repro.runtime.shard", "ShardStats"),
        ("repro.runtime", "ServerStats"),
        ("repro.runtime.messages", "ServerStats"),
        ("repro.serve.daemon", "_DaemonCounters"),
        ("repro.runtime", "RefillRequest"),
        ("repro.runtime", "RefillReport"),
        ("repro.runtime.messages", "RefillRequest"),
        ("repro.runtime.messages", "RefillReport"),
        ("repro.runtime.server", "FACTORY_ANNOUNCE_AHEAD"),
        ("repro.serve", "ShardedServingPool.warm_up"),
        ("repro.serve", "ShardedServingPool.restart_shard"),
        ("repro.runtime", "WorkerShard.provision"),
        ("repro.crypto", "clear_executors"),
        ("repro.crypto.kernels", "clear_executors"),
        ("repro.crypto.kernels", "default_thread_workers"),
        ("repro.crypto.kernels", "KernelContext.thread_workers"),
        ("repro.crypto.kernels", "_fanout_submit"),
        ("repro.crypto.kernels", "_EXECUTOR"),
        ("repro.crypto.kernels", "_EXECUTOR_WORKERS"),
        ("repro.crypto.kernels", "_EXECUTOR_LOCK"),
        ("repro.crypto.kernels", "FANOUT_MIN_ELEMENTS"),
        ("repro.crypto.kernels", "_batched_matmul"),
        ("repro.crypto", "ScheduledPlan"),
        ("repro.crypto", "PlanSchedule"),
        ("repro.crypto", "ScheduledRound"),
        ("repro.crypto", "levelize"),
        ("repro.crypto", "schedule_rounds"),
        ("repro.crypto", "dead_op_elimination"),
        ("repro.crypto", "optimize_plan"),
        ("repro.crypto", "PLAN_INPUT"),
        ("repro.crypto.passes", "ScheduledPlan"),
        ("repro.crypto.passes", "PlanSchedule"),
        ("repro.crypto.passes", "ScheduledRound"),
        ("repro.crypto.passes", "levelize"),
        ("repro.crypto.passes", "schedule_rounds"),
        ("repro.crypto.passes", "dead_op_elimination"),
        ("repro.crypto.passes", "PLAN_PASSES"),
        ("repro.crypto.passes", "DEFAULT_PASSES"),
        ("repro.crypto.passes", "SCHEDULED_PLAN_FORMAT"),
        ("repro.crypto.plan", "PLAN_FORMAT"),
        ("repro.crypto.plan", "PLAN_INPUT"),
        ("repro.crypto.plan", "InferencePlan.to_dict"),
        ("repro.crypto.plan", "InferencePlan.from_dict"),
        ("repro.crypto.plan", "_op_to_dict"),
        ("repro.crypto.plan", "_op_from_dict"),
        ("repro.crypto.plan", "PlanOp.uses"),
        ("repro.crypto.plan", "PlanOp.deps"),
        ("repro.crypto.plan", "PlanOp.defines"),
        ("repro.serve", "BatchingFrontend"),
        ("repro.serve", "BatchOutcome"),
        ("repro.serve.frontend", "BatchingFrontend"),
        ("repro.serve", "ShardedServingPool._acquire_shard"),
        ("repro.serve", "ShardedServingPool._run_coalesced"),
        ("repro.crypto.protocols", "secure_xor"),
        ("repro.crypto.protocols", "secure_not"),
        ("repro.crypto.protocols.comparison", "secure_xor"),
        ("repro.crypto.protocols.comparison", "secure_not"),
        ("repro.crypto", "ProtocolStatistics"),
        ("repro.crypto", "collect_statistics"),
        ("repro.crypto", "OTFlowCost"),
        ("repro.crypto", "OTFlow"),
        ("repro.runtime", "PartyExecution"),
        ("repro.runtime", "TwoProcessResult"),
        ("repro.crypto.wire", "CODEC_STATS"),
        ("repro.crypto.dealer", "GROUP_FIELDS"),
        ("repro.crypto.dealer", "items_from_group"),
        ("repro.crypto.dealer", "TrustedDealer.random_shared_bit"),
        ("repro.crypto.dealer", "TrustedDealer.random_shared_ring"),
        ("repro.crypto.dealer", "RandomnessPool.group_buffers"),
        ("repro.runtime.messages", "Heartbeat"),
        ("repro.runtime.server", "_PipeSender"),
        ("repro.runtime", "WorkerShard.poll_heartbeats"),
        ("repro.serve.admission", "AdmissionController.admit_or_raise"),
        ("repro.serve.admission", "AdmissionDecision.raise_if_shed"),
        ("repro.serve", "AdmissionController"),
        ("repro.serve", "AdmissionDecision"),
        ("repro.serve", "HeartbeatMiss"),
        ("repro.runtime", "HeartbeatMiss"),
        ("repro.runtime", "PartyServer"),
        ("repro.serve", "JobTicket"),
        ("repro.serve", "PoolBatchResult"),
        ("repro.serve", "ShardFailure"),
        ("repro.serve", "WorkerShard"),
        ("repro.crypto", "WorkspaceArena"),
        ("repro.crypto", "clear_arenas"),
        ("repro.crypto", "register_kernel"),
        ("repro.crypto", "one_of_four_ot"),
        ("repro.crypto", "reconstruct_ring"),
        ("repro.crypto", "PlanOp"),
        ("repro.crypto", "neg_shares"),
        ("repro.crypto", "scale_shares_integer"),
        ("repro.crypto.sharing", "neg_shares"),
        ("repro.crypto.sharing", "scale_shares_integer"),
        ("repro.crypto.protocols", "bit_to_arithmetic"),
        ("repro.crypto.protocols.comparison", "bit_to_arithmetic"),
        ("repro.crypto.protocols.comparison", "bit_to_arithmetic_phases"),
        ("repro.crypto.protocols.comparison", "bit_to_arithmetic_trace"),
        ("repro.crypto.kernels", "b2a_finish"),
        ("repro.crypto.kernels", "and_finish"),
        ("repro.crypto.dealer", "BitTriple"),
        ("repro.crypto.dealer", "fan_out_rows"),
        ("repro.crypto.dealer", "TrustedDealer.bit_triple"),
        ("repro.crypto.dealer", "RandomnessPool.bit_triple"),
        ("repro.crypto.protocols.comparison", "_tree_level_widths"),
        ("repro.crypto.protocols.comparison", "millionaire_trace"),
        ("repro.crypto.protocols.comparison", "drelu_trace"),
        ("repro.crypto.protocols.comparison", "select_trace"),
        ("repro.crypto.protocols.comparison", "secure_and_trace"),
        ("repro.crypto.protocols.comparison", "_and_trace"),
        ("repro.crypto.protocols.arithmetic", "square_trace"),
        ("repro.crypto.protocols.arithmetic", "multiply_trace"),
        ("repro.crypto.protocols.activation", "_relu_trace"),
        ("repro.crypto.protocols.activation", "_x2act_trace"),
        ("repro.crypto.protocols.pooling", "_maxpool_trace"),
        ("repro.crypto.protocols.registry", "no_trace"),
        ("repro.crypto.protocols.registry", "TraceFn"),
        ("repro.crypto.protocols.registry", "open_trace_event"),
        ("repro.crypto.protocols.registry", "send_trace_event"),
        ("repro.crypto.protocols.registry", "open_bits_trace_event"),
        ("repro.crypto.protocols.registry", "packed_payload_bytes"),
        ("repro.crypto.protocols.registry", "element_bytes"),
        ("repro.crypto.protocols.registry", "OpTrace.request"),
        ("repro.crypto.protocols.registry", "OpTrace.send"),
        ("repro.crypto.protocols.registry", "OpTrace.exchange"),
        ("repro.crypto.protocols.registry", "OpTrace.group"),
        ("repro.crypto.protocols.registry", "OpTrace.extend"),
        ("repro.crypto.events", "perform_event"),
        ("repro.crypto.channel", "Channel.send"),
        ("repro.crypto.channel", "Channel.exchange"),
        ("repro.crypto.channel", "Channel.open_ring"),
        ("repro.crypto.channel", "Channel.open_bits"),
        ("repro.crypto.channel", "Channel.transfer"),
        ("repro.crypto.channel", "Channel._payload_bytes"),
        ("repro.crypto.channel", "PartyChannel.send"),
        ("repro.crypto.channel", "PartyChannel.open_ring"),
        ("repro.crypto.channel", "PartyChannel.open_bits"),
        ("repro.crypto.channel", "PartyChannel.transfer"),
        ("repro.crypto.channel", "CommunicationLog.bytes_by_tag"),
        ("repro.crypto.channel", "Message.tag"),
        ("repro.crypto.dealer", "TrustedDealer.elementwise_triple"),
        ("repro.crypto.dealer", "TrustedDealer.square_pair"),
        ("repro.crypto.dealer", "TrustedDealer.and_masks"),
        ("repro.crypto.dealer", "TrustedDealer.dabit"),
        ("repro.crypto.dealer", "TrustedDealer._draw_item"),
        ("repro.crypto.dealer", "TrustedDealer._count_group"),
        ("repro.crypto.dealer", "RandomnessPool.square_pair"),
        ("repro.crypto.dealer", "RandomnessPool.and_masks"),
        ("repro.crypto.dealer", "RandomnessPool.dabit"),
        ("repro.crypto.dealer", "RandomnessPool._pop"),
        ("repro.crypto.dealer", "BeaverTriple"),
        ("repro.crypto.dealer", "BeaverPair"),
        ("repro.crypto.dealer", "AndMasks"),
        ("repro.crypto.dealer", "DaBit"),
        ("repro.crypto.dealer", "_item"),
        ("repro.crypto.dealer", "TrustedDealer().triples_generated"),
        ("repro.crypto.dealer", "TrustedDealer().and_planes_generated"),
        ("repro.crypto.dealer", "TrustedDealer().dabits_generated"),
        ("repro.serve", "AutoscalePolicy"),
        ("repro.serve.supervisor", "AutoscalePolicy"),
        ("repro.serve", "ShardedServingPool.add_shard"),
        ("repro.serve", "ShardedServingPool.retire_shard"),
        ("repro.serve", "ShardSupervisor._autoscale"),
        ("repro.serve", "ShardSupervisor"),
        ("repro.serve", "ShardedServingPool._respawn_shard_async"),
        ("repro.serve", "ShardedServingPool.shards_view"),
        ("repro.crypto.protocols", "secure_argmax"),
        ("repro.crypto.protocols", "secure_max"),
        ("repro.crypto.protocols", "secure_batchnorm_public"),
        ("repro.crypto.protocols", "secure_batchnorm_shared"),
        ("repro.crypto.protocols", "secure_square_activation"),
        ("repro.crypto.protocols", "secure_conv2d"),
        ("repro.crypto.protocols", "secure_linear"),
        ("repro.crypto.dealer", "TrustedDealer.triple"),
        ("repro.crypto.dealer", "RandomnessPool.triple"),
        ("repro.runtime.party", "PartyExecution"),
        ("repro.crypto.channel", "Message.unpacked_bytes"),
        ("repro.crypto.channel", "CommunicationLog.total_unpacked_bytes"),
        ("repro.crypto.channel", "CommunicationLog.bytes_saved_pct"),
        ("repro.crypto.events", "bytes_saved_pct"),
        ("repro.crypto.events", "event_direction_bytes"),
        ("repro.crypto.plan", "RoundTrace"),
        ("repro.crypto.plan", "round_trace_messages"),
        ("repro.crypto.plan", "PreprocessingManifest.messages"),
        ("repro.crypto.plan", "PreprocessingManifest.round_trace"),
        ("repro.crypto.plan", "PreprocessingManifest.online_bytes"),
        ("repro.crypto.plan", "PreprocessingManifest.online_rounds"),
        ("repro.crypto.plan", "PreprocessingManifest.oracle_rounds"),
        ("repro.crypto.secure_model", "SecureInferenceResult.offline_material_bytes"),
        ("repro.crypto.secure_model", "SecureInferenceResult.offline_triple_elements"),
        ("repro.crypto.secure_model", "SecureInferenceResult.offline_square_pair_elements"),
        ("repro.crypto.secure_model", "SecureInferenceResult.offline_bit_triple_elements"),
        ("repro.crypto.secure_model", "SecureInferenceResult.offline_dabit_elements"),
        ("repro.crypto.secure_model", "SecureInferenceResult.communication_unpacked_bytes"),
        ("repro.crypto.secure_model", "SecureInferenceResult.bytes_saved_pct"),
        ("repro.crypto.secure_model", "SecureInferenceResult.per_layer_bytes"),
        ("repro.crypto.secure_model", "SecureInferenceResult.cpu_time_ns"),
        ("repro.runtime.messages", "JobReport.unpacked_payload_bytes"),
        ("repro.runtime.shard", "PoolBatchResult.unpacked_payload_bytes"),
        ("repro.runtime.shard", "PoolBatchResult.bytes_saved_pct"),
        ("repro.runtime.twoprocess", "TwoProcessResult.unpacked_payload_bytes"),
        ("repro.runtime.twoprocess", "TwoProcessResult.bytes_saved_pct"),
        ("repro.crypto.ring", "FixedPointRing.matmul"),
        # a job's header rides its first round frame as a digest
        ("repro.runtime.server", "PartyServer._sync_job_header"),
        ("repro.runtime.server", "_PlanEntry.plan_hash"),
    ],
)
def test_deleted_names_stay_deleted(module, name):
    if importlib.util.find_spec(module) is None:
        return  # the whole module went, and its names with it
    owner = importlib.import_module(module)
    *parents, leaf = name.split(".")
    for parent in parents:
        # ``Cls()`` names an instance attribute: look on a default instance
        owner = getattr(owner, parent.removesuffix("()"), None)
        if owner is None:
            return  # the whole class went, and its names with it
        owner = owner() if parent.endswith("()") else owner
    assert not hasattr(owner, leaf)
    # a dataclass field without a default is no class attribute
    if dataclasses.is_dataclass(owner):
        assert leaf not in {field.name for field in dataclasses.fields(owner)}


def test_deleted_module_and_method_stay_deleted():
    assert importlib.util.find_spec("repro.serve.cache") is None
    # the daemon admits against the pool's own queue
    assert importlib.util.find_spec("repro.serve.admission") is None
    # the stream layout lives in the dealer: one randomness module
    assert importlib.util.find_spec("repro.offline") is None
    assert importlib.util.find_spec("repro.crypto.stats") is None
    # the OT simulator only tests called: the comparison runs its own OT
    assert importlib.util.find_spec("repro.crypto.ot") is None
    # each shard's worker supervises its own shard
    assert importlib.util.find_spec("repro.serve.supervisor") is None
    assert not hasattr(repro.crypto.transport.Transport, "send_heartbeat")
    # a channel derives its element width from its ring; run_round is its verb
    assert list(inspect.signature(Channel.__init__).parameters) == ["self", "ring"]
    assert not hasattr(repro.crypto.transport.TcpTransport, "listen")
    # the one-round select replaced the daBit B2A and its finish kernel
    assert "b2a-finish" not in repro.crypto.kernels.KERNELS
    # the multi-input AND table's finish replaced the fan-out AND finish
    assert "and-finish" not in repro.crypto.kernels.KERNELS
    # a plan runs the public-weight linear layers and no argmax or batch
    # norm; the only Beaver multiply is elementwise
    assert importlib.util.find_spec("repro.crypto.protocols.argmax") is None
    assert importlib.util.find_spec("repro.crypto.protocols.normalization") is None
    assert "product" not in inspect.signature(multiply).parameters
    assert "product" not in inspect.signature(multiply_phases).parameters


def test_runtime_and_serving_keep_no_sample_window_of_their_own():
    """Percentiles and bounded windows have one owner, ``repro/obs.py``."""
    for path in RUNTIME_AND_SERVE:
        source = path.read_text(encoding="utf-8")
        assert "np.percentile(" not in source, path.name
        assert "deque(maxlen=" not in source, path.name
    assert "deque(maxlen=" in (SRC / "obs.py").read_text(encoding="utf-8")


def test_no_crypto_runtime_or_serve_module_exceeds_700_lines():
    sizes = {
        str(path.relative_to(SRC)): len(path.read_text(encoding="utf-8").splitlines())
        for path in CRYPTO + RUNTIME_AND_SERVE
    }
    assert {name: n for name, n in sizes.items() if n > 700} == {}


def test_protocol_handlers_expose_phases_only():
    fields = {field.name for field in dataclasses.fields(ProtocolHandler)}
    assert "phases" in fields and "execute" not in fields
    # the compiler records an op's trace from its phases: no second copy
    assert "trace" not in fields
    assert "trace" not in inspect.signature(register_protocol).parameters


def test_no_crypto_module_defines_a_hand_written_trace():
    """A ``*_trace`` function would be a second description of a protocol
    that must be kept in step with its phase generator by hand.  A property
    that derives a view of the recorded trace (``InferencePlan.round_trace``)
    describes no protocol."""
    for path in CRYPTO:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.endswith("_trace")
            and not any(
                isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list
            )
        ]
        assert defined == [], path.name


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


def test_the_benchmark_runs_the_compiled_plan_and_src_never_imports_its_shim(
    monkeypatch,
):
    """``benchmarks/e2e/traced.py`` still routes through the identity shim
    ``repro.crypto.passes``; what it times must be the plan the engine
    compiles, and nothing in ``src/`` may lean on the shim."""
    monkeypatch.syspath_prepend(str(E2E))
    traced = importlib.import_module("traced")
    engine = SecureInferenceEngine(make_context(seed=0))
    spec = vgg_tiny(input_size=8)
    plan, compiled = traced.production_plan(engine, spec, 1), engine.compile(spec, 1)
    assert plan.ops == compiled.ops
    assert plan.online_rounds == compiled.online_rounds
    assert plan.num_rounds == compiled.num_rounds
    assert plan.manifest == compiled.manifest

    importers = [
        path.name
        for path in SRC.rglob("*.py")
        if "repro.crypto.passes" in path.read_text(encoding="utf-8")
    ]
    assert importers == []


@pytest.mark.parametrize(
    "package",
    [repro.crypto, repro.runtime, repro.serve],
    ids=lambda p: p.__name__,
)
def test_every_exported_name_resolves(package):
    """Names were deleted from ``__all__`` by hand (no ruff in the sandbox)."""
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing


#: ``pool.<name>`` citations in the docs whose ``pool`` is not the serving pool
NOT_THE_SERVING_POOL = {
    ("docs/protocols.md", "remaining"),  # a RandomnessPool from dealer.preprocess
    ("docs/serving.md", "frontend"),  # the /stats path pool.batching renders as
}


def test_every_pool_attribute_the_docs_cite_exists():
    """The docs name ``pool.<name>`` as operational API; a deleted method
    must leave the docs with it."""
    cited = {
        (path.relative_to(REPO).as_posix(), name)
        for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
        for name in re.findall(r"(?<![\w./])pool\.([A-Za-z_]\w*)", path.read_text("utf-8"))
    }
    assert NOT_THE_SERVING_POOL <= cited  # an entry whose citation went goes too
    init = ast.parse(textwrap.dedent(inspect.getsource(ShardedServingPool.__init__)))
    attributes = set(dir(ShardedServingPool)) | {
        node.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    missing = {(doc, name) for doc, name in cited - NOT_THE_SERVING_POOL if name not in attributes}
    assert missing == set()


def _resolve(owners, parts):
    """The first owner on which the ``::``-separated ``parts`` resolve."""
    for owner in owners:
        target = owner
        try:
            for part in parts:
                target = getattr(target, part)
        except AttributeError:
            continue
        return owner
    raise AttributeError("::".join(parts))


def test_every_citation_in_what_is_gated_where_resolves():
    """Each test id "What is gated where" in docs/serving.md cites exists,
    and each ``workload/metric`` names a metric of ``BENCHMARK.json``.  A relative
    ``::a::b`` resolves on the class of the id before it in the same cell,
    else on that id's module."""
    text = (REPO / "docs" / "serving.md").read_text(encoding="utf-8")
    section = text.split("## What is gated where", 1)[1].split("\n## ", 1)[0]
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {workload["name"] for workload in bench["workloads"]}
    metrics = {metric["name"] for metric in bench["end_to_end"] + bench["per_layer"]}
    cited_metrics = []
    for line in section.splitlines():
        for cell in line.split("|"):
            module = cls = None
            for token in re.findall(r"`([^`]+)`", cell):
                if token.startswith("tests/") and "::" in token:
                    path, *parts = token.split("::")
                    module = importlib.import_module(path.removesuffix(".py").replace("/", "."))
                    owner = _resolve([module], parts)
                elif token.startswith("::"):
                    assert module is not None, f"{token} follows no test id"
                    parts = token[2:].split("::")
                    owner = _resolve([o for o in (cls, module) if o is not None], parts)
                else:
                    workload, slash, metric = token.partition("/")
                    if slash and workload in workloads:
                        cited_metrics.append(metric)
                    continue
                # the class a following relative id resolves on, if any
                first = getattr(owner, parts[0])
                cls = first if inspect.isclass(first) else (cls if owner is cls else None)
    assert cited_metrics and set(cited_metrics) <= metrics, set(cited_metrics) - metrics
