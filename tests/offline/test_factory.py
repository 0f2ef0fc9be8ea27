"""Tests for the randomness factory: service core, TCP streaming, serving.

The contract under test: a pool fetched from the factory — spooled or
cold, restricted or not — is bit-identical to what a local
:class:`TrustedDealer` at the same seed generates, so the runtime can mix
factory provisioning and local fallback freely without perturbing logits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import compile_plan
from repro.crypto.dealer import TrustedDealer
from repro.crypto.transport import TcpTransport
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.offline.factory import FactoryClient, FactoryServer, RandomnessFactory
from repro.offline.generation import GROUP_FIELDS, PARTY_FIELDS
from repro.offline.inventory import InventoryStore
from repro.offline.provisioning import decode_frame, encode_frame


@pytest.fixture(scope="module")
def manifest():
    return compile_plan(vgg_tiny(input_size=8), batch_size=2).manifest


def _local_pool(manifest, seed, party=None):
    pool = TrustedDealer(manifest.ring, seed=seed).preprocess(manifest)
    if party is not None:
        pool.restrict_to_party(party)
    return pool


def _assert_pools_equal(manifest, ours, theirs):
    for kind, shape, _count in manifest.grouped_requests():
        our_buffers = ours.group_buffers(kind, shape)
        their_buffers = theirs.group_buffers(kind, shape)
        assert len(our_buffers) == len(their_buffers) == 1
        for name in GROUP_FIELDS[kind]:
            assert np.array_equal(our_buffers[0][name], their_buffers[0][name]), (
                kind,
                shape,
                name,
            )


class TestFactoryCore:
    def test_announce_produce_and_fetch_from_inventory(self, manifest, tmp_path):
        factory = RandomnessFactory(InventoryStore(str(tmp_path)))
        hash_, ring, groups = FactoryClient.manifest_wire_form(manifest)
        queued = factory.announce(hash_, ring, groups, [10, 11, 10])
        assert queued == 2  # duplicate seed skipped
        assert factory.pending_count == 2
        assert factory.produce_pending() == 2
        assert factory.pending_count == 0
        assert factory.store.depth(hash_) == 2
        # re-announcing a spooled seed queues nothing
        assert factory.announce(hash_, ring, groups, [10]) == 0

        from repro.offline.provisioning import ProvisionRequest

        request = ProvisionRequest(
            manifest_hash=hash_, seed=10, ring=ring, groups=groups, party=None
        )
        bundle, source = factory.fetch_bundle(request)
        assert source == "inventory"
        # an unrestricted fetch consumes the spooled bundle immediately
        assert factory.store.depth(hash_) == 1
        assert bundle.seed == 10

        request.seed = 999  # never announced: cold generation
        bundle, source = factory.fetch_bundle(request)
        assert source == "cold"
        assert bundle.seed == 999
        assert factory.cold_fetches == 1 and factory.inventory_fetches == 1

    def test_spooled_bundle_survives_until_both_parties_fetch(self, manifest, tmp_path):
        factory = RandomnessFactory(InventoryStore(str(tmp_path)))
        hash_, ring, groups = FactoryClient.manifest_wire_form(manifest)
        factory.announce(hash_, ring, groups, [7])
        factory.produce_pending()

        from repro.offline.provisioning import ProvisionRequest

        for party, depth_after in ((0, 1), (1, 0)):
            request = ProvisionRequest(
                manifest_hash=hash_, seed=7, ring=ring, groups=groups, party=party
            )
            _bundle, source = factory.fetch_bundle(request)
            assert source == "inventory"
            assert factory.store.depth(hash_) == depth_after


class TestFactoryOverTcp:
    def test_fetch_pool_bit_identical_to_local(self, manifest, tmp_path):
        factory = RandomnessFactory(InventoryStore(str(tmp_path)), keep_consumed=True)
        with FactoryServer(factory, "127.0.0.1", 0, produce=False) as server:
            with FactoryClient(server.address) as client:
                # cold path first (nothing announced yet)
                pool = client.fetch_pool(manifest, seed=31)
                assert client.last_source == "cold"
                _assert_pools_equal(manifest, pool, _local_pool(manifest, 31))

                # then the spooled path, party-restricted both ways
                assert client.announce(manifest, [32]) == 1
                assert factory.produce_pending() == 1
                for party in (0, 1):
                    pool = client.fetch_pool(manifest, seed=32, party=party)
                    assert client.last_source == "inventory"
                    assert pool.restricted_to == party
                    _assert_pools_equal(
                        manifest, pool, _local_pool(manifest, 32, party=party)
                    )

    def test_restricted_fetch_ships_only_one_share_world(self, manifest, tmp_path):
        """The wire carries the party's fields; the zeroed world is local."""
        factory = RandomnessFactory(InventoryStore(str(tmp_path)))
        with FactoryServer(factory, "127.0.0.1", 0, produce=False) as server:
            with FactoryClient(server.address) as client:
                pool = client.fetch_pool(manifest, seed=1, party=1)
        for kind, shape, _count in manifest.grouped_requests():
            arrays = pool.group_buffers(kind, shape)[0]
            for name in PARTY_FIELDS[kind][0]:  # party 0's world: synthesized
                assert not arrays[name].any()

    def test_fetched_pool_is_restrictable_in_place(self, manifest, tmp_path):
        """Received buffers must be writable (restriction memsets stacks)."""
        factory = RandomnessFactory(InventoryStore(str(tmp_path)))
        with FactoryServer(factory, "127.0.0.1", 0, produce=False) as server:
            with FactoryClient(server.address) as client:
                pool = client.fetch_pool(manifest, seed=2)
        pool.restrict_to_party(0)  # must not raise on read-only arrays
        _assert_pools_equal(manifest, pool, _local_pool(manifest, 2, party=0))

    def test_stats_and_error_frames(self, manifest, tmp_path):
        factory = RandomnessFactory(InventoryStore(str(tmp_path)))
        with FactoryServer(factory, "127.0.0.1", 0, produce=False) as server:
            with FactoryClient(server.address) as client:
                client.fetch_pool(manifest, seed=3)
                stats = client.stats()
                assert stats["schema"] == "offline-factory/v1"
                assert stats["cold_fetches"] == 1
                assert manifest.content_hash in stats["registered_manifests"]

            # a malformed frame gets an error reply, not a dead session
            raw = TcpTransport.connect(host=server.host, port=server.port)
            try:
                raw.send_control(encode_frame({"type": "bogus"}))
                header, _ = decode_frame(raw.recv_control())
                assert header["type"] == "error"
                assert "bogus" in header["message"]
                # session still serves after the error
                raw.send_control(encode_frame({"type": "stats"}))
                header, _ = decode_frame(raw.recv_control())
                assert header["type"] == "stats-ack"
            finally:
                raw.close()


    def test_oversized_length_prefix_ends_the_session_not_the_server(self, tmp_path):
        """The factory's sessions ride ``TcpTransport``: a hostile 4 GiB
        prefix must close that one session promptly (no blocked reader
        waiting for bytes that never come) and leave the server serving."""
        import socket
        import struct

        factory = RandomnessFactory(InventoryStore(str(tmp_path)))
        with FactoryServer(factory, "127.0.0.1", 0, produce=False) as server:
            with socket.create_connection(server.address, timeout=5.0) as hostile:
                hostile.sendall(struct.pack("<I", 0xFFFFFFFF))
                assert hostile.recv(16) == b""  # server hung up on us
            with FactoryClient(server.address) as client:
                assert client.stats()["schema"] == "offline-factory/v1"


class TestServingIntegration:
    """Factory-provisioned serving matches local provisioning bit for bit."""

    @pytest.fixture(scope="class")
    def servable(self):
        from repro.nn.tensor import Tensor
        from repro.serve import ServableModel

        spec = vgg_tiny(input_size=8).with_all_polynomial()
        net = build_model(spec)
        rng = np.random.default_rng(0)
        for _ in range(2):
            net(Tensor(rng.normal(size=(4, 3, 8, 8))))
        net.eval()
        return ServableModel(spec, export_layer_weights(net))

    def test_pool_with_factory_matches_and_surfaces_stats(self, servable, tmp_path):
        from repro.serve import ShardedServingPool

        inputs = np.random.default_rng(8).normal(size=(2, 3, 8, 8))
        kwargs = dict(
            num_shards=1,
            max_batch=2,
            provision_pools=1,
            warm_batch_sizes=(2,),
            seed=3,
        )
        with ShardedServingPool({"vgg": servable}, **kwargs) as pool:
            reference = pool.run_batch("vgg", inputs)

        factory = RandomnessFactory(InventoryStore(str(tmp_path)))
        with FactoryServer(factory, "127.0.0.1", 0) as server:
            with ShardedServingPool(
                {"vgg": servable}, factory_address=server.address, **kwargs
            ) as pool:
                result = pool.run_batch("vgg", inputs)
                pool.warm_up(count=2)
                snapshot = pool.stats_snapshot()
        assert np.array_equal(reference.logits, result.logits)
        assert snapshot["pools_from_factory"] > 0
        assert snapshot["factory_fallbacks"] == 0
        assert snapshot["factory_inventory_depth"] >= 0
        stats = factory.stats_snapshot()
        # every provisioned pool crossed the factory (spooled or cold)
        assert stats["inventory_fetches"] + stats["cold_fetches"] > 0

    def test_pool_falls_back_when_factory_unreachable(self, servable):
        from repro.serve import ShardedServingPool

        inputs = np.random.default_rng(8).normal(size=(2, 3, 8, 8))
        kwargs = dict(
            num_shards=1,
            max_batch=2,
            provision_pools=1,
            warm_batch_sizes=(2,),
            seed=3,
        )
        with ShardedServingPool({"vgg": servable}, **kwargs) as pool:
            reference = pool.run_batch("vgg", inputs)
        with ShardedServingPool(
            {"vgg": servable}, factory_address=("127.0.0.1", 1), **kwargs
        ) as pool:
            result = pool.run_batch("vgg", inputs)
            pool.warm_up(count=1)
            snapshot = pool.stats_snapshot()
        assert np.array_equal(reference.logits, result.logits)
        assert snapshot["factory_fallbacks"] >= 1
        assert snapshot["pools_from_factory"] == 0
