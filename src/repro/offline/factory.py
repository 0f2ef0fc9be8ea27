"""The correlated-randomness factory: producer service + streaming client.

Three layers, composable from in-process tests up to a standalone
producer process:

- :class:`RandomnessFactory` — the service core: a disk-backed
  :class:`~repro.offline.inventory.InventoryStore`, an announced-seed
  production queue, and the fetch path (inventory hit or cold
  vectorized generation);
- :class:`FactoryServer` — serves the factory over TCP using the typed
  control frames of :mod:`repro.offline.provisioning`; one session thread
  per connected party server;
- :class:`FactoryClient` — the party-server side: fetch a
  party-restricted :class:`~repro.crypto.dealer.RandomnessPool` at an
  exact job seed, announce upcoming seeds, read stats.

Because generation is deterministic per (manifest, seed) substream, a
fetch served from the spool, a cold generation on the factory, and a
local fallback generation on the party server all yield bit-identical
share arrays — the runtime can fail over freely without breaking the
zoo-wide logit identity.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.dealer import RandomnessPool
from repro.crypto.ring import FixedPointRing
from repro.crypto.transport import TcpListener, TcpTransport, Transport
from repro.offline.generation import GROUP_FIELDS, PARTY_FIELDS
from repro.offline.inventory import InventoryStore, PoolBundle
from repro.offline.provisioning import (
    AnnounceRequest,
    ProvisionChunk,
    ProvisionDone,
    ProvisionRequest,
    WireGroups,
    decode_frame,
    encode_frame,
)


class RandomnessFactory:
    """Service core: announced-seed producer + inventory-backed fetch."""

    def __init__(self, store: InventoryStore, *, keep_consumed: bool = False) -> None:
        self.store = store
        self.keep_consumed = keep_consumed
        self._lock = threading.Lock()
        self._specs: Dict[str, Tuple[FixedPointRing, WireGroups]] = {}
        self._pending: Dict[str, List[int]] = {}
        self._fetched_parties: Dict[Tuple[str, int], set] = {}
        self.inventory_fetches = 0
        self.cold_fetches = 0

    # -- production ----------------------------------------------------------- #
    def announce(
        self, manifest_hash: str, ring: FixedPointRing, groups: WireGroups, seeds: List[int]
    ) -> int:
        """Queue upcoming (manifest, seed) pairs for pre-generation.

        Returns how many seeds were newly queued (already-spooled or
        already-pending seeds are skipped).
        """
        queued = 0
        with self._lock:
            self._specs[manifest_hash] = (ring, list(groups))
            pending = self._pending.setdefault(manifest_hash, [])
            for seed in seeds:
                seed = int(seed)
                if seed in pending or self.store.contains(manifest_hash, seed):
                    continue
                pending.append(seed)
                queued += 1
        return queued

    @property
    def pending_count(self) -> int:
        with self._lock:
            return sum(len(seeds) for seeds in self._pending.values())

    def _next_pending(self) -> Optional[Tuple[str, int]]:
        with self._lock:
            for manifest_hash, seeds in self._pending.items():
                if seeds:
                    return manifest_hash, seeds.pop(0)
        return None

    def produce_one(self) -> Optional[str]:
        """Generate and spool one announced bundle; returns its path."""
        item = self._next_pending()
        if item is None:
            return None
        manifest_hash, seed = item
        with self._lock:
            spec = self._specs.get(manifest_hash)
        if spec is None:
            return None
        ring, groups = spec
        started = time.monotonic()
        bundle = PoolBundle.from_groups(ring, manifest_hash, groups, seed)
        return self.store.put(bundle, generation_seconds=time.monotonic() - started)

    def produce_pending(self, max_bundles: Optional[int] = None) -> int:
        """Drain the announced queue (up to ``max_bundles``); returns count."""
        produced = 0
        while max_bundles is None or produced < max_bundles:
            if self.produce_one() is None:
                break
            produced += 1
        return produced

    # -- consumption ---------------------------------------------------------- #
    def fetch_bundle(
        self, request: ProvisionRequest
    ) -> Tuple[PoolBundle, str]:
        """The bundle of one request: inventory hit or cold generation."""
        bundle = self.store.load(request.manifest_hash, request.seed)
        if bundle is not None:
            self._mark_fetched(request)
            with self._lock:
                self.inventory_fetches += 1
            return bundle, "inventory"
        started = time.monotonic()
        bundle = PoolBundle.from_groups(
            request.ring, request.manifest_hash, request.groups, request.seed
        )
        with self._lock:
            self.cold_fetches += 1
            self._specs.setdefault(request.manifest_hash, (request.ring, list(request.groups)))
        # A cold fetch still teaches the store its production cost, so the
        # refill-lead-time accounting works for purely reactive factories.
        self.store._lock.acquire()
        try:
            previous = self.store._generation_ewma.get(request.manifest_hash)
            cost = time.monotonic() - started
            self.store._generation_ewma[request.manifest_hash] = (
                cost if previous is None else 0.8 * previous + 0.2 * cost
            )
        finally:
            self.store._lock.release()
        return bundle, "cold"

    def _mark_fetched(self, request: ProvisionRequest) -> None:
        """Drop a spooled bundle once every consumer has pulled it.

        A party-restricted fetch marks its party; the bundle is removed
        after both parties fetched.  An unrestricted (simulation) fetch
        consumes it immediately.
        """
        if self.keep_consumed:
            return
        key = (request.manifest_hash, int(request.seed))
        with self._lock:
            if request.party is None:
                done = True
            else:
                fetched = self._fetched_parties.setdefault(key, set())
                fetched.add(int(request.party))
                done = fetched == {0, 1}
            if done:
                self._fetched_parties.pop(key, None)
        if done:
            self.store.remove(*key)

    # -- stats ---------------------------------------------------------------- #
    def stats_snapshot(self) -> Dict[str, object]:
        """JSON stats: the store snapshot plus factory-level counters."""
        snapshot = self.store.stats_snapshot()
        with self._lock:
            snapshot["schema"] = "offline-factory/v1"
            snapshot["registered_manifests"] = sorted(self._specs)
            snapshot["pending"] = sum(len(seeds) for seeds in self._pending.values())
            snapshot["inventory_fetches"] = self.inventory_fetches
            snapshot["cold_fetches"] = self.cold_fetches
        return snapshot


class FactoryServer:
    """Serves a :class:`RandomnessFactory` over framed TCP control messages.

    Runs an accept loop plus one session thread per connection and,
    optionally, a background producer thread draining announced seeds.
    """

    def __init__(
        self,
        factory: RandomnessFactory,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        produce: bool = True,
        produce_idle_sleep: float = 0.02,
    ) -> None:
        self.factory = factory
        self._listener = TcpListener(host=host, port=port, backlog=16)
        self.host = self._listener.host
        self.port = self._listener.port
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._producer_thread: Optional[threading.Thread] = None
        self._produce = produce
        self._produce_idle_sleep = produce_idle_sleep

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "FactoryServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="factory-accept", daemon=True
        )
        self._accept_thread.start()
        if self._produce:
            self._producer_thread = threading.Thread(
                target=self._producer_loop, name="factory-producer", daemon=True
            )
            self._producer_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                transport = self._listener.accept(timeout=0.2)
            except (TimeoutError, OSError):
                continue
            # The short timeout above only bounds accept() so the loop can
            # notice close(); sessions themselves block indefinitely.
            transport.timeout = None
            thread = threading.Thread(
                target=self._serve_session,
                args=(transport,),
                name="factory-session",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _producer_loop(self) -> None:
        while not self._stop.is_set():
            if self.factory.produce_one() is None:
                self._stop.wait(self._produce_idle_sleep)

    def _serve_session(self, transport: Transport) -> None:
        try:
            while not self._stop.is_set():
                frame = transport.recv_control()
                if frame is None:
                    break
                try:
                    header, payload = decode_frame(frame)
                    self._handle(transport, header, payload)
                except Exception as error:  # reply, don't kill the session
                    transport.send_control(
                        encode_frame({"type": "error", "message": str(error)})
                    )
        except (ConnectionError, TimeoutError, OSError, ValueError):
            pass
        finally:
            transport.close()

    def _handle(
        self, transport: Transport, header: Dict[str, object], payload: bytes
    ) -> None:
        frame_type = header["type"]
        if frame_type == "provision-request":
            request = ProvisionRequest.from_header(header)
            bundle, source = self.factory.fetch_bundle(request)
            sent_bytes = 0
            for group in bundle.groups:
                if request.party is None:
                    fields = GROUP_FIELDS[group.kind]
                else:
                    fields = PARTY_FIELDS[group.kind][request.party]
                chunk = ProvisionChunk(
                    kind=group.kind,
                    shape=group.shape,
                    count=group.count,
                    arrays={name: group.arrays[name] for name in fields},
                )
                chunk_header, chunk_payload = chunk.header_and_payload()
                sent_bytes += len(chunk_payload)
                transport.send_control(encode_frame(chunk_header, chunk_payload))
            done = ProvisionDone(
                manifest_hash=request.manifest_hash,
                seed=request.seed,
                groups=len(bundle.groups),
                material_bytes=sent_bytes,
                source=source,
                inventory_depth=self.factory.store.depth(request.manifest_hash),
            )
            transport.send_control(encode_frame(done.header()))
        elif frame_type == "announce":
            announce = AnnounceRequest.from_header(header)
            queued = self.factory.announce(
                announce.manifest_hash, announce.ring, announce.groups, announce.seeds
            )
            transport.send_control(
                encode_frame({"type": "announce-ack", "queued": queued})
            )
        elif frame_type == "stats":
            transport.send_control(
                encode_frame({"type": "stats-ack", "stats": self.factory.stats_snapshot()})
            )
        else:
            raise ValueError(f"unknown provisioning frame type {frame_type!r}")

    def close(self) -> None:
        self._stop.set()
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self._producer_thread is not None:
            self._producer_thread.join(timeout=2.0)

    def __enter__(self) -> "FactoryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class FactoryClient:
    """Party-server side of the provisioning protocol (thread-safe)."""

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        timeout: float = 30.0,
        retries: int = 10,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self._transport = TcpTransport.connect(
            host=self.address[0],
            port=self.address[1],
            timeout=timeout,
            retries=retries,
        )
        self._lock = threading.RLock()
        self.last_inventory_depth: Optional[int] = None
        self.last_source: Optional[str] = None

    @staticmethod
    def manifest_wire_form(manifest) -> Tuple[str, FixedPointRing, WireGroups]:
        """(hash, ring, grouped requests) of a preprocessing manifest."""
        return manifest.content_hash, manifest.ring, manifest.grouped_requests()

    def fetch_pool(
        self,
        manifest,
        seed: int,
        party: Optional[int] = None,
    ) -> RandomnessPool:
        """Fetch the pool of ``(manifest, seed)``, restricted to ``party``.

        Bit-identical to ``TrustedDealer(ring, seed).preprocess(manifest)
        .restrict_to_party(party)`` — the streamed arrays come from the
        same per-group substreams.
        """
        manifest_hash, ring, groups = self.manifest_wire_form(manifest)
        request = ProvisionRequest(
            manifest_hash=manifest_hash, seed=int(seed), ring=ring, groups=groups, party=party
        )
        expected = {(kind, tuple(shape)): count for kind, shape, count in groups}
        pool = RandomnessPool(ring=ring, manifest_hash=manifest_hash)
        with self._lock:
            self._transport.send_control(encode_frame(request.header()))
            while True:
                frame = self._transport.recv_control()
                if frame is None:
                    raise ConnectionError("factory closed the session mid-provision")
                header, payload = decode_frame(frame)
                frame_type = header["type"]
                if frame_type == "provision-chunk":
                    chunk = ProvisionChunk.from_frame(header, payload)
                    key = (chunk.kind, tuple(chunk.shape))
                    if expected.get(key) != chunk.count:
                        raise ValueError(
                            f"factory sent group {key} x{chunk.count}, manifest "
                            f"{manifest_hash} expects x{expected.get(key)}"
                        )
                    arrays = dict(chunk.arrays)
                    if party is not None:
                        # Synthesize the zeroed other share-world the SPMD
                        # protocol program expects (garbage lanes only).
                        template = next(iter(arrays.values()))
                        for name in GROUP_FIELDS[chunk.kind]:
                            if name not in arrays:
                                reference = group_reference(arrays, chunk.kind, name)
                                arrays[name] = np.zeros_like(
                                    reference if reference is not None else template
                                )
                    pool.install_group(chunk.kind, chunk.shape, arrays)
                    expected.pop(key, None)
                elif frame_type == "provision-done":
                    done = ProvisionDone.from_header(header)
                    self.last_inventory_depth = done.inventory_depth
                    self.last_source = done.source
                    break
                elif frame_type == "error":
                    raise RuntimeError(f"factory error: {header.get('message')}")
                else:
                    raise ValueError(f"unexpected provisioning frame {frame_type!r}")
        if expected:
            raise ValueError(f"factory reply missing groups: {sorted(expected)}")
        if party is not None:
            pool.restricted_to = party
        return pool

    def announce(self, manifest, seeds: List[int]) -> int:
        """Advertise upcoming job seeds; returns how many were queued."""
        manifest_hash, ring, groups = self.manifest_wire_form(manifest)
        request = AnnounceRequest(
            manifest_hash=manifest_hash, seeds=list(seeds), ring=ring, groups=groups
        )
        with self._lock:
            self._transport.send_control(encode_frame(request.header()))
            header = self._expect_reply("announce-ack")
        return int(header["queued"])

    def stats(self) -> Dict[str, object]:
        """The factory's JSON stats snapshot."""
        with self._lock:
            self._transport.send_control(encode_frame({"type": "stats"}))
            header = self._expect_reply("stats-ack")
        return header["stats"]

    def _expect_reply(self, expected_type: str) -> Dict[str, object]:
        frame = self._transport.recv_control()
        if frame is None:
            raise ConnectionError("factory closed the session mid-reply")
        header, _payload = decode_frame(frame)
        if header["type"] == "error":
            raise RuntimeError(f"factory error: {header.get('message')}")
        if header["type"] != expected_type:
            raise ValueError(
                f"expected a {expected_type!r} reply, got {header['type']!r}"
            )
        return header

    def close(self) -> None:
        with self._lock:
            self._transport.close()

    def __enter__(self) -> "FactoryClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def group_reference(arrays, kind: str, missing_name: str):
    """The same-world counterpart of a missing field, if present.

    Zero stacks must match the dtype/shape of the field they replace; the
    counterpart of ``a1`` is ``a0`` (and vice versa), which always shares
    both.  Returns ``None`` when the counterpart is absent too.
    """
    if missing_name[-1] in "01":
        counterpart = missing_name[:-1] + ("1" if missing_name.endswith("0") else "0")
        return arrays.get(counterpart)
    return None

