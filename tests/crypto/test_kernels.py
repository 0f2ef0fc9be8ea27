"""Tests for the fused local-compute kernel layer.

Key invariants:

- every fused kernel is bit-identical to the reference protocol chain it
  replaces (same uint64 values mod 2^64, per share lane);
- the protocol entry points take the fused path exactly when a
  :class:`~repro.crypto.kernels.KernelContext` is installed, and keep the
  reference path (bit-identically) when it is absent;
- the workspace arena reuses scratch buffers and encoded-constant caches
  across jobs with different seeds without leaking values between them.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.crypto import PartyChannel, make_context
from repro.crypto.dealer import TrustedDealer
from repro.crypto.events import run_phases, run_reference
from repro.crypto.kernels import (
    KERNELS,
    KernelContext,
    WorkspaceArena,
    arena_for,
    clear_arenas,
    dead_lane,
    register_kernel,
)
from repro.crypto.protocols.activation import secure_relu
from repro.crypto.protocols.arithmetic import (
    add_public,
    multiply,
    multiply_public,
    square,
)
from repro.crypto.protocols.comparison import drelu_phases, select_phases
from repro.crypto.protocols.pooling import secure_maxpool2d_phases
from repro.crypto.scheduler import arena_key
from repro.crypto.secure_model import SecureInferenceEngine
from repro.crypto.sharing import SharePair, share
from repro.crypto.transport import LoopbackTransport
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.runtime.party import execute_plan_as_party


def _trained_weights(spec):
    from repro.nn.tensor import Tensor

    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))))
    net.eval()
    return export_layer_weights(net)


def _paired_contexts(seed: int = 17):
    """Two contexts with identical randomness streams; one runs fused."""
    reference = make_context(seed=seed)
    fused = make_context(seed=seed)
    fused.kernels = KernelContext()
    return reference, fused


class TestRegistry:
    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            register_kernel("truncate-pair")(lambda: None)


class TestWorkspaceArena:
    def test_get_reuses_buffer_by_name_and_shape(self):
        arena = WorkspaceArena()
        first, fresh_first = arena.get("scratch", (4, 4))
        second, fresh_second = arena.get("scratch", (4, 4))
        assert fresh_first and not fresh_second
        assert first is second
        assert arena.misses == 1 and arena.hits == 1
        assert arena.bytes_held == first.nbytes

    def test_get_reallocates_on_shape_change(self):
        arena = WorkspaceArena()
        first, _ = arena.get("scratch", (4, 4))
        second, fresh = arena.get("scratch", (8, 4))
        assert fresh and second is not first
        assert arena.misses == 2

    def test_cached_revalidates_by_source_identity(self):
        arena = WorkspaceArena()
        source = np.arange(4.0)
        built = arena.cached("enc", (source,), lambda: source * 2)
        again = arena.cached("enc", (source,), lambda: source * 3)
        assert again is built  # identical refs -> memo hit, builder not re-run
        replaced = arena.cached("enc", (source.copy(),), lambda: source * 3)
        assert replaced is not built  # new source object -> rebuilt

    def test_cached_stale_entry_is_replaced_not_accumulated(self):
        # Fresh source arrays per job (e.g. deserialized per request) must
        # replace the stale entry for the key, not pin it forever.
        arena = WorkspaceArena()
        for _ in range(8):
            source = np.arange(4.0)
            arena.cached("w-enc", (source,), lambda: source * 2)
        assert len(arena._cache) == 1

    def test_cached_is_lru_bounded(self):
        arena = WorkspaceArena()
        cap = WorkspaceArena.CACHE_MAX_ENTRIES
        hot = np.arange(2.0)
        arena.cached("hot", (hot,), lambda: hot * 2)
        for i in range(cap + 10):
            arena.cached(("cold", i), (), lambda: i)
            arena.cached("hot", (hot,), lambda: hot * 3)  # touch keeps it warm
        assert len(arena._cache) <= cap
        before = arena.misses
        arena.cached("hot", (hot,), lambda: hot * 4)
        assert arena.misses == before  # hot entry survived the churn

    def test_arena_for_is_keyed_and_resettable(self):
        clear_arenas()
        a = arena_for(("model", 2))
        assert arena_for(("model", 2)) is a
        assert arena_for(("model", 4)) is not a
        clear_arenas()
        assert arena_for(("model", 2)) is not a


class TestFusedKernelsBitIdentical:
    """Each protocol entry point: fused output == reference output, per lane."""

    def test_multiply(self):
        reference, fused = _paired_contexts()
        values_x = np.random.default_rng(1).normal(size=(3, 5))
        values_y = np.random.default_rng(2).normal(size=(3, 5))
        outputs = []
        for ctx in (reference, fused):
            x = share(values_x, ctx.ring, ctx.rng)
            y = share(values_y, ctx.ring, ctx.rng)
            outputs.append(multiply(ctx, x, y))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)
        assert fused.kernels.fused_calls > 0

    def test_multiply_untruncated(self):
        reference, fused = _paired_contexts()
        values = np.random.default_rng(3).normal(size=(7,))
        outputs = []
        for ctx in (reference, fused):
            x = share(values, ctx.ring, ctx.rng)
            y = share(values, ctx.ring, ctx.rng)
            outputs.append(multiply(ctx, x, y, truncate=False))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)

    def test_square(self):
        reference, fused = _paired_contexts()
        values = np.random.default_rng(4).normal(size=(2, 6))
        outputs = []
        for ctx in (reference, fused):
            x = share(values, ctx.ring, ctx.rng)
            outputs.append(square(ctx, x))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)
        assert fused.kernels.fused_calls > 0

    def test_multiply_public_and_add_public(self):
        reference, fused = _paired_contexts()
        values = np.random.default_rng(5).normal(size=(4, 3))
        scale = np.array(0.729)
        offset = np.array(-1.25)
        outputs = []
        for ctx in (reference, fused):
            x = share(values, ctx.ring, ctx.rng)
            scaled = multiply_public(ctx, x, scale)
            outputs.append(add_public(ctx, scaled, offset))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)

    def test_secure_relu(self):
        """Exercises the and-table and select-finish kernels through the
        full comparison + mux flow."""
        reference, fused = _paired_contexts()
        values = np.random.default_rng(6).normal(size=(9,))
        outputs = []
        for ctx in (reference, fused):
            x = share(values, ctx.ring, ctx.rng)
            outputs.append(secure_relu(ctx, x))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)
        assert fused.kernels.fused_calls > 0

    def test_truncate_pair_kernel_matches_truncate_local(self):
        ring = make_context().ring
        rng = np.random.default_rng(7)
        raw = rng.integers(0, 2**64, size=(64,), dtype=np.uint64)
        expected0 = ring.truncate_local(raw, party=0)
        expected1 = ring.truncate_local(raw, party=1)
        got0, got1 = KERNELS["truncate-pair"](ring, raw.copy(), raw.copy())
        np.testing.assert_array_equal(got0, expected0)
        np.testing.assert_array_equal(got1, expected1)

    def test_stacked_matmul_matches_per_lane(self):
        rng = np.random.default_rng(8)
        share0 = rng.integers(0, 2**64, size=(3, 5), dtype=np.uint64)
        share1 = rng.integers(0, 2**64, size=(3, 5), dtype=np.uint64)
        w_t = rng.integers(0, 2**64, size=(5, 4), dtype=np.uint64)
        got0, got1 = KERNELS["stacked-matmul"](share0, share1, w_t)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(got0, np.matmul(share0, w_t))
            np.testing.assert_array_equal(got1, np.matmul(share1, w_t))

    @pytest.mark.parametrize(
        "stride,padding,groups", [(1, 1, 1), (2, 1, 1), (1, 0, 1), (1, 1, 4)]
    )
    def test_stacked_conv2d_matches_per_lane(self, stride, padding, groups):
        rng = np.random.default_rng(9)
        ic, oc = 4, 8
        share0 = rng.integers(0, 2**64, size=(2, ic, 6, 6), dtype=np.uint64)
        share1 = rng.integers(0, 2**64, size=(2, ic, 6, 6), dtype=np.uint64)
        w = rng.integers(0, 2**64, size=(oc, ic // groups, 3, 3), dtype=np.uint64)

        def reference(lane):
            pad = np.pad(lane, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
            n, _, hp, wp = pad.shape
            kh = kw = 3
            oh = (hp - kh) // stride + 1
            ow = (wp - kw) // stride + 1
            sn, sc, sh, sw = pad.strides
            windows = np.lib.stride_tricks.as_strided(
                pad,
                shape=(n, ic, kh, kw, oh, ow),
                strides=(sn, sc, sh, sw, sh * stride, sw * stride),
            )
            with np.errstate(over="ignore"):
                if groups == 1:
                    cols = np.ascontiguousarray(windows).reshape(n, ic * 9, oh * ow)
                    out = np.matmul(w.reshape(oc, -1)[None], cols)
                else:
                    icg, ocg = ic // groups, oc // groups
                    cols = np.ascontiguousarray(windows).reshape(
                        n, groups, icg * 9, oh * ow
                    )
                    out = np.matmul(w.reshape(groups, ocg, -1)[None], cols)
            return out.reshape(n, oc, oh, ow)

        for live in (None, 0, 1):
            got = KERNELS["stacked-conv2d"](
                share0, share1, w, stride=stride, padding=padding, groups=groups, live=live
            )
            for lane, share in enumerate((share0, share1)):
                if live is None or live == lane:
                    np.testing.assert_array_equal(got[lane], reference(share))
                else:
                    assert _is_dead_lane(got[lane])


def _is_dead_lane(lane: np.ndarray) -> bool:
    """The read-only, zero-strided all-zero placeholder of a lane not held."""
    return not lane.flags.writeable and not any(lane.strides) and not lane.any()


def _kernel_args(name: str):
    """Fresh ``(args, kwargs)`` for one kernel — identical on every call, so
    two calls of an in-place kernel see the same inputs."""
    ring = make_context().ring
    rng = np.random.default_rng(sorted(KERNELS).index(name))
    shape = (3, 4)

    def words(*dims):
        return rng.integers(0, 2**64, size=dims or shape, dtype=np.uint64)

    def bits(*dims):
        return rng.integers(0, 2, size=dims + shape, dtype=np.uint8)

    cases = {
        "truncate-pair": lambda: ((ring, words(), words()), {}),
        "beaver-recombine": lambda: (tuple(words() for _ in range(8)), {}),
        "square-recombine": lambda: (tuple(words() for _ in range(5)), {}),
        "scale-encoded": lambda: ((ring, words(), words(), ring.encode(np.array(0.729))), {}),
        "add-encoded": lambda: ((words(), words(), words(1, 4)), {}),
        "and-table": lambda: (
            (bits(7), words(29, 2).astype(np.uint8), words(29, 2).astype(np.uint8), 4, 2),
            {},
        ),
        "select-finish": lambda: ((bits(), *(words() for _ in range(7))), {}),
        "stacked-matmul": lambda: ((words(), words(), words(4, 5)), {}),
        "stacked-conv2d": lambda: (
            (words(2, 4, 6, 6), words(2, 4, 6, 6), words(8, 2, 3, 3)),
            {"padding": 1, "groups": 2},
        ),
    }
    return cases[name]()


@pytest.mark.parametrize("live", [0, 1])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_live_lane_kernel_returns_its_lane_and_a_dead_placeholder(name, live):
    """A party process's kernel call computes its own lane bit-identically to
    the two-lane call and hands back the read-only placeholder for the other."""
    args, kwargs = _kernel_args(name)
    both = KERNELS[name](*args, **kwargs)
    args, kwargs = _kernel_args(name)
    one = KERNELS[name](*args, live=live, **kwargs)
    np.testing.assert_array_equal(one[live], both[live])
    dead = one[1 - live]
    assert _is_dead_lane(dead)
    assert (dead.shape, dead.dtype) == (both[1 - live].shape, both[1 - live].dtype)
    with pytest.raises(ValueError, match="read-only"):
        dead[...] = 1


def _as_parties(run):
    """``{party: run(party, transport)}``, both parties as threads over one
    loopback link; the first party error is re-raised here."""
    transports = LoopbackTransport.pair(timeout=60.0)
    results, errors = {}, []

    def party_main(party):
        try:
            results[party] = run(party, transports[party])
        except BaseException as exc:
            errors.append(exc)
            transports[party].close()  # unblock the peer

    threads = [threading.Thread(target=party_main, args=(party,)) for party in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    if errors:
        raise errors[0]
    return results


def _relu_flow(ctx, x):
    """The DReLU bit and the multiplexed value, each as a lane pair."""
    bit = yield from drelu_phases(ctx, x)
    out = yield from select_phases(ctx, x, bit)
    return [bit, (out.share0, out.share1)]


def _maxpool_flow(ctx, x):
    out = yield from secure_maxpool2d_phases(ctx, x)
    return [(out.share0, out.share1)]


class TestLiveLaneComparison:
    """The comparison path in a party process: each party computes only its
    own side of the OT table, the AND tree and the select's openings."""

    SEED = 23

    @pytest.mark.parametrize(
        "flow,shape", [(_relu_flow, (3, 5)), (_maxpool_flow, (1, 2, 4, 4))], ids=["relu", "maxpool"]
    )
    def test_party_lanes_combine_to_the_in_process_result(self, flow, shape):
        values = np.random.default_rng(12).normal(size=shape)
        shared = share(values, make_context().ring, np.random.default_rng(13))

        both = make_context(seed=self.SEED)
        both.kernels = KernelContext()
        expected = run_phases(both, flow(both, shared))

        def party_run(party, transport):
            ctx = make_context(seed=self.SEED)
            ctx.channel = PartyChannel(transport, party, ring=ctx.ring)
            ctx.kernels = KernelContext(live=party)
            peer = dead_lane(shape)
            x = SharePair(shared.share0, peer) if party == 0 else SharePair(peer, shared.share1)
            return run_phases(ctx, flow(ctx, x))

        results = _as_parties(party_run)
        for output, pair in enumerate(expected):
            for party in (0, 1):
                mine = results[party][output]
                np.testing.assert_array_equal(mine[party], pair[party])
                assert _is_dead_lane(mine[1 - party])

    def test_only_the_sender_draws_the_ot_pads(self):
        """After a ReLU job, party 1's context RNG has drawn nothing past the
        sharing-mask burn; party 0's has drawn the OT pads."""
        spec = vgg_tiny(input_size=8)
        weights = _trained_weights(spec)
        x = np.random.default_rng(14).normal(size=(1, spec.in_channels, 8, 8))
        plan = SecureInferenceEngine().compile(spec, batch_size=1)
        ring = plan.ring
        shared = share(x, ring, np.random.default_rng(15))

        def party_job(party, transport):
            ctx = make_context(seed=self.SEED)
            ctx.channel = PartyChannel(transport, party, ring=ring)
            pool = TrustedDealer(ring=ring, seed=self.SEED).preprocess(plan)
            input_share = (shared.share0, shared.share1)[party]
            execute_plan_as_party(
                ctx, party, plan, weights, input_share, pool=pool.restrict_to_party(party)
            )
            return ctx.rng.bit_generator.state

        states = _as_parties(party_job)
        burned = make_context(seed=self.SEED).rng
        ring.random(plan.input_shape, burned)
        assert states[1] == burned.bit_generator.state
        assert states[0] != burned.bit_generator.state


class TestArenaReuseAcrossJobs:
    def test_warm_arena_serves_repeat_jobs_with_different_seeds(self):
        """Job 2 reuses job 1's scratch buffers and encoded-weight cache,
        and both jobs stay bit-identical to the oracle."""
        clear_arenas()
        spec = vgg_tiny(input_size=8)
        weights = _trained_weights(spec)
        x = np.random.default_rng(10).normal(size=(2, 3, 8, 8))
        plan = SecureInferenceEngine().compile(spec, batch_size=2)
        arena = arena_for(arena_key(plan))

        warm_misses = None
        for seed in (5, 6):
            engine = SecureInferenceEngine(make_context(seed=seed))
            result = engine.execute(plan, weights, x, pool=engine.preprocess(plan))
            reference, _, _ = run_reference(make_context(seed=seed), plan, weights, x)
            np.testing.assert_array_equal(result.logits, reference)
            assert result.fused_kernel_calls > 0
            if warm_misses is None:
                warm_misses = arena.misses
                assert warm_misses > 0  # job 1 populated the arena
        # job 2 allocated nothing new: same shapes, same weight objects
        assert arena.misses == warm_misses
        assert arena.hits > 0
        clear_arenas()
