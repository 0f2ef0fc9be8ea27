"""Shared fixtures for the chaos suite: fault schedules, tiny zoo, recorder.

Every chaos test drives the real serving stack (two OS processes per shard,
TCP transport) through a scripted :class:`~repro.crypto.faults.FaultPlan`
and asserts the recovery contract: recovered logits are bit-identical to the
fault-free run, and no client future fails while retry budget remains.

The ``record_fault_schedule`` fixture logs every schedule a test ran to
``tests/chaos/chaos_fault_schedules.json`` (written at session end) so a CI
failure uploads the exact seeds and round indices needed to replay it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.crypto.faults import FaultPlan
from repro.models.builder import build_model, export_layer_weights
from repro.models.mobilenet import mobilenetv2_tiny
from repro.models.resnet import resnet_tiny
from repro.models.specs import ModelSpec
from repro.models.vgg import vgg_tiny
from repro.serve import ServableModel

#: the executable tiny zoo the chaos tests sweep (name -> spec builder);
#: all-polynomial variants keep the per-job round count low enough that a
#: whole-zoo sweep stays inside the tier-1 time budget
TINY_ZOO = {
    "vgg-tiny": vgg_tiny,
    "resnet-tiny": resnet_tiny,
    "mobilenetv2-tiny": mobilenetv2_tiny,
}

#: fixed base seed of every chaos pool — the clean-run reference and the
#: faulted run must derive identical job seed streams
CHAOS_POOL_SEED = 2023

_SCHEDULE_LOG: list = []
_SCHEDULE_PATH = Path(__file__).parent / "chaos_fault_schedules.json"


def _train_servable(spec: ModelSpec) -> ServableModel:
    from repro.nn.tensor import Tensor

    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):  # move BN running stats off their init values
        net(
            Tensor(
                rng.normal(
                    size=(4, spec.in_channels, spec.input_size, spec.input_size)
                )
            )
        )
    net.eval()
    return ServableModel(spec, export_layer_weights(net))


@pytest.fixture(scope="session")
def tiny_zoo() -> Dict[str, ServableModel]:
    """All-polynomial tiny backbones, trained-ish and export-ready."""
    return {
        name: _train_servable(build(input_size=8).with_all_polynomial())
        for name, build in TINY_ZOO.items()
    }


@pytest.fixture(scope="session")
def relu_servable() -> ServableModel:
    """A ReLU-bearing model: its jobs traverse the OT comparison tree."""
    return _train_servable(vgg_tiny(input_size=8))


@pytest.fixture
def query_batch():
    """A fixed 2-query batch reused by clean and faulted runs."""

    def _make(servable: ServableModel, batch_size: int = 2) -> np.ndarray:
        spec = servable.spec
        return np.random.default_rng(42).normal(
            size=(batch_size, spec.in_channels, spec.input_size, spec.input_size)
        )

    return _make


@pytest.fixture
def drop_plan():
    """Factory for drop-at-round schedules (seeded, one-shot by default)."""

    def _make(round_index: int, direction: str = "send", seed: int = 0) -> FaultPlan:
        return FaultPlan(
            seed=seed,
            drop_at_round=round_index,
            drop_direction=direction,
            max_drops=1,
        )

    return _make


@pytest.fixture
def stall_plan():
    """Factory for stall-at-round schedules (job survives, latency suffers)."""

    def _make(
        round_index: int,
        stall_ms: float,
        direction: str = "send",
        seed: int = 0,
        jitter_ms: float = 0.0,
    ) -> FaultPlan:
        return FaultPlan(
            seed=seed,
            jitter_ms=jitter_ms,
            stall_at_round=round_index,
            stall_ms=stall_ms,
            stall_direction=direction,
        )

    return _make


def make_chaos_pool(name: str, servable: ServableModel, **kwargs):
    """A 1-shard pool with the chaos suite's fixed seed and config.

    Clean reference runs and faulted runs boot through the same helper, so
    the only difference between them is the fault schedule — any logit
    mismatch is a recovery bug, never a configuration drift.
    """
    from repro.serve import ShardedServingPool

    defaults = dict(
        num_shards=1,
        provision_pools=0,
        seed=CHAOS_POOL_SEED,
        job_timeout=120,
    )
    defaults.update(kwargs)
    return ShardedServingPool({name: servable}, **defaults)


@pytest.fixture(scope="session")
def clean_logits(tiny_zoo):
    """Fault-free reference logits per model, computed once per session.

    Returns a getter: ``_get(name, batch, n_jobs)`` boots a clean pool with
    the chaos seed, runs ``n_jobs`` identical batches and caches the logits
    — the bit-identity target for every recovered run of that model.
    """
    cache: Dict[tuple, list] = {}

    def _get(name: str, batch: np.ndarray, n_jobs: int = 2) -> list:
        key = (name, batch.shape[0], n_jobs)
        if key not in cache:
            with make_chaos_pool(name, tiny_zoo[name]) as pool:
                cache[key] = [
                    pool.run_batch(name, batch).logits for _ in range(n_jobs)
                ]
        return cache[key]

    return _get


@pytest.fixture
def record_fault_schedule(request):
    """Log the fault schedule a test ran, for the CI failure artifact."""

    def _record(plans: Dict[int, Dict[int, FaultPlan]], **extra) -> None:
        _SCHEDULE_LOG.append(
            {
                "test": request.node.nodeid,
                "pool_seed": CHAOS_POOL_SEED,
                "plans": {
                    f"shard{shard}/party{party}": plan.to_dict()
                    for shard, per_party in plans.items()
                    for party, plan in per_party.items()
                },
                **extra,
            }
        )

    return _record


def pytest_sessionfinish(session, exitstatus):
    if _SCHEDULE_LOG:
        _SCHEDULE_PATH.write_text(json.dumps(_SCHEDULE_LOG, indent=2) + "\n")
