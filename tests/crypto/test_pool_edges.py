"""Edge-case tests for :class:`RandomnessPool`: installation, restriction,
partitioning and contextual exhaustion diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import compile_plan
from repro.crypto.dealer import (
    PreprocessingExhausted,
    RandomnessPool,
    TrustedDealer,
    draw_group,
    substream,
)
from repro.crypto.protocols.registry import RandomnessRequest
from repro.crypto.ring import DEFAULT_RING
from repro.crypto.sharing import SharePair
from repro.models.resnet import resnet_tiny
from repro.models.vgg import vgg_tiny


def _arrays(item):
    """Every share array of an item, in field order."""
    out = []
    for value in item.values():
        out += [value.share0, value.share1] if isinstance(value, SharePair) else [value]
    return out


@pytest.fixture()
def plan():
    return compile_plan(vgg_tiny(input_size=8), batch_size=2)


@pytest.fixture()
def pool(plan):
    return TrustedDealer(DEFAULT_RING, seed=13).preprocess(plan)


class TestInstall:
    def test_install_group_twice_for_the_same_key_raises(self):
        def group():
            rng = np.random.default_rng(substream(1, DEFAULT_RING, "triple", (2,)))
            return draw_group(DEFAULT_RING, rng, "triple", (2,), 3)

        pool = RandomnessPool(DEFAULT_RING)
        pool.install_group("triple", (2,), group())
        with pytest.raises(ValueError, match="already holds"):
            pool.install_group("triple", [2], group())
        assert pool.remaining == 3


class TestRestriction:
    def test_restrict_is_idempotent_for_the_same_party(self, plan):
        pool = TrustedDealer(DEFAULT_RING, seed=13).preprocess(plan)
        once = pool.restrict_to_party(0)
        kind, shape, _ = plan.manifest.grouped_requests()[0]
        snapshot = {name: stack.copy() for name, stack in once.group(kind, shape).items()}
        twice = pool.restrict_to_party(0)
        assert twice is pool
        after = twice.group(kind, shape)
        for name, stack in snapshot.items():
            assert np.array_equal(after[name], stack)

    def test_restrict_to_conflicting_party_raises(self, pool):
        pool.restrict_to_party(1)
        with pytest.raises(ValueError, match="already restricted to party 1"):
            pool.restrict_to_party(0)

    def test_restrict_rejects_invalid_party(self, pool):
        with pytest.raises(ValueError, match="party must be 0 or 1"):
            pool.restrict_to_party(2)


class TestPartition:
    def test_empty_request_groups_yield_empty_sub_pools(self, pool):
        total = pool.remaining
        subs = pool.partition([[], [], []])
        assert [sub.remaining for sub in subs] == [0, 0, 0]
        assert pool.remaining == total  # nothing moved

    def test_partition_moves_views_not_copies(self, plan, pool):
        """Sub-pool items stay views into the parent pool's group buffers —
        the no-intermediate-copies contract of the vectorized fill."""
        kind, shape, _count = next(
            g for g in plan.manifest.grouped_requests() if g[0] == "dabit"
        )
        stacks = pool.group(kind, shape)
        (sub,) = pool.partition([[RandomnessRequest(kind=kind, shape=shape)]])
        item = sub.draw(kind, shape)
        assert np.shares_memory(item["a"].share0, stacks["a0"])
        assert np.shares_memory(item["ra"].share1, stacks["ra1"])
        assert np.shares_memory(item["r0"], stacks["r0"])

    def test_partition_preserves_identity_and_restriction(self, plan, pool):
        pool.restrict_to_party(1)
        subs = pool.partition([op.requests for op in plan.ops])
        assert len(subs) == len(plan.ops)
        for sub in subs:
            assert sub.manifest_hash == plan.manifest.content_hash
            assert sub.restricted_to == 1
        assert pool.remaining == 0  # fully drained into the sub-pools

    def test_partition_exhaustion_is_contextual(self, plan, pool):
        request = RandomnessRequest(kind="dabit", shape=(999, 999))
        with pytest.raises(PreprocessingExhausted) as excinfo:
            pool.partition([[request]])
        error = excinfo.value
        assert error.kind == "dabit"
        assert error.shape == (999, 999)
        assert error.manifest_hash == plan.manifest.content_hash
        assert error.remaining_by_kind.get("bit", 0) > 0

    def test_failed_partition_leaves_the_pool_untouched(self, plan, pool):
        """All or nothing: the requests that fit move no cursor when a later
        group of the same call does not."""
        remaining, by_kind = pool.remaining, pool.remaining_by_kind
        fits = next(op.requests for op in plan.ops if op.requests)
        missing = RandomnessRequest(kind="dabit", shape=(999, 999))
        with pytest.raises(PreprocessingExhausted) as excinfo:
            pool.partition([fits, [missing]])
        assert excinfo.value.remaining_by_kind == by_kind
        assert (pool.remaining, pool.served) == (remaining, 0)
        # the intact pool still serves the whole plan
        subs = pool.partition([op.requests for op in plan.ops])
        assert sum(sub.remaining for sub in subs) == remaining

    def test_partitioned_pops_equal_sequential_pops(self, plan):
        """Drained in any order, each op's sub-pool serves exactly the items a
        sequential run popping in manifest order draws for that op."""
        sequential = TrustedDealer(DEFAULT_RING, seed=13).preprocess(plan)
        expected = [[sequential.draw(r.kind, r.shape) for r in op.requests] for op in plan.ops]
        fresh = TrustedDealer(DEFAULT_RING, seed=13).preprocess(plan)
        subs = fresh.partition([op.requests for op in plan.ops])
        for index in reversed(range(len(plan.ops))):
            for request, want in zip(plan.ops[index].requests, expected[index]):
                got = subs[index].draw(request.kind, request.shape)
                for ours, theirs in zip(_arrays(got), _arrays(want)):
                    assert np.array_equal(ours, theirs), (index, request)
            assert subs[index].remaining == 0

    def test_a_sub_pool_serves_only_its_window(self):
        """Consecutive windows over one stack: the first sub-pool gets row 0
        and nothing more, the second row 1, the parent resumes at row 2."""
        plan = compile_plan(resnet_tiny(input_size=8), batch_size=2)
        pool = TrustedDealer(DEFAULT_RING, seed=13).preprocess(plan)
        kind, shape, count = max(
            (g for g in plan.manifest.grouped_requests() if g[0] == "dabit"),
            key=lambda g: g[2],
        )
        assert count >= 3
        request = RandomnessRequest(kind=kind, shape=shape)
        stacks = pool.group(kind, shape)
        first, second = pool.partition([[request], [request]])
        assert np.shares_memory(first.draw(kind, shape)["a"].share0, stacks["a0"][0])
        with pytest.raises(PreprocessingExhausted):
            first.draw(kind, shape)
        assert np.shares_memory(second.draw(kind, shape)["a"].share0, stacks["a0"][1])
        assert np.shares_memory(pool.draw(kind, shape)["a"].share0, stacks["a0"][2])
        assert (first.remaining, second.remaining, pool.served) == (0, 0, 3)


class TestExhaustionDiagnostics:
    def _drain(self, pool, kind, shape):
        while True:
            pool.draw(kind, shape)

    @pytest.mark.parametrize("kind", ["bit", "dabit"])
    def test_mid_schedule_exhaustion_reports_context(self, plan, pool, kind):
        groups = [g for g in plan.manifest.grouped_requests() if g[0] == kind]
        assert groups, f"plan should consume {kind} randomness"
        _, shape, _count = groups[0]
        with pytest.raises(PreprocessingExhausted) as excinfo:
            self._drain(pool, kind, shape)
        error = excinfo.value
        assert error.kind == kind
        assert error.shape == tuple(shape)
        assert error.manifest_hash == plan.manifest.content_hash
        # the (kind, shape) FIFO is empty; the other kind is still stocked
        assert error.remaining_by_kind.get("dabit" if kind == "bit" else "bit", 0) > 0
        # deterministic: re-requesting reproduces the same diagnostics
        with pytest.raises(PreprocessingExhausted) as again:
            pool.draw(kind, shape)
        assert again.value.remaining_by_kind == error.remaining_by_kind

    def test_exhaustion_message_names_the_missing_request(self, pool):
        with pytest.raises(PreprocessingExhausted, match="shape \\(123,\\)"):
            pool.draw("dabit", (123,))

    def test_empty_pool_reports_empty_depth(self):
        pool = RandomnessPool(ring=DEFAULT_RING, manifest_hash="abc123")
        with pytest.raises(PreprocessingExhausted) as excinfo:
            pool.draw("square", (2,))
        assert excinfo.value.remaining_by_kind == {}
        assert excinfo.value.manifest_hash == "abc123"
        assert "empty" in str(excinfo.value)
