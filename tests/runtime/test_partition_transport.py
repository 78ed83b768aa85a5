"""Transport-level partition semantics: blocked peers, purges, WAN delays.

The partition contract lives at the transport layer: frames towards a
blocked peer are dropped (never buffered for the heal), the backlog queued
before the rule landed is purged, and every drop is counted in
``transport.partition_drops``.  WAN emulation rides the same per-frame
due-time mechanism as straggler injection, but per destination.
"""

from __future__ import annotations

import asyncio
import random

from repro.runtime.codec import decode_envelopes
from repro.runtime.control import StatusRequest
from repro.runtime.framing import FrameError, FrameReader
from repro.runtime.transport import AsyncioTransport


def run(coro):
    return asyncio.run(coro)


class _Collector:
    """TCP server recording (arrival_time, payload) for every frame."""

    def __init__(self) -> None:
        self.received: list[tuple[float, bytes]] = []
        self.server: asyncio.Server | None = None
        self.port: int = 0
        self._got_frame = asyncio.Event()

    async def start(self) -> None:
        async def handle(reader, writer):
            frames = FrameReader(reader)
            loop = asyncio.get_running_loop()
            while True:
                try:
                    batch = await frames.read_batch()
                except FrameError:
                    break
                if batch is None:
                    break
                now = loop.time()
                for payload in batch:
                    self.received.append((now, payload))
                self._got_frame.set()

        self.server = await asyncio.start_server(handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def wait_for(self, count: int, timeout: float = 5.0) -> None:
        deadline = asyncio.get_running_loop().time() + timeout
        while len(self.received) < count:
            remaining = deadline - asyncio.get_running_loop().time()
            assert remaining > 0, f"timed out with {len(self.received)}/{count} frames"
            self._got_frame.clear()
            try:
                await asyncio.wait_for(self._got_frame.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    async def close(self) -> None:
        assert self.server is not None
        self.server.close()
        await self.server.wait_closed()

    def messages(self) -> list[tuple[float, int, object]]:
        """Flatten every frame (splitting super-frames) into messages."""
        out = []
        for arrival, payload in self.received:
            for sender, message in decode_envelopes(payload):
                out.append((arrival, sender, message))
        return out


class TestBlockedPeers:
    def test_send_to_blocked_peer_is_dropped_and_counted(self):
        async def scenario():
            collector = _Collector()
            await collector.start()
            transport = AsyncioTransport(
                0, {0: ("127.0.0.1", 1), 1: ("127.0.0.1", collector.port)}
            )
            transport.set_blocked_peers([1])
            for nonce in range(5):
                transport.send(1, StatusRequest(nonce=nonce))
            assert transport.partition_drops == 5
            # Nothing was even queued: the writer has nothing to flush after
            # the heal.
            transport.set_blocked_peers([])
            transport.send(1, StatusRequest(nonce=99))
            await collector.wait_for(2)  # hello + the post-heal frame
            await transport.close()
            await collector.close()
            nonces = [
                m.nonce
                for _, _, m in collector.messages()
                if isinstance(m, StatusRequest)
            ]
            assert nonces == [99]

        run(scenario())

    def test_new_rule_purges_already_queued_backlog(self):
        async def scenario():
            # Point peer 1 at a port nobody listens on: frames stay queued.
            transport = AsyncioTransport(
                0, {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 9)}
            )
            for nonce in range(7):
                transport.send(1, StatusRequest(nonce=nonce))
            assert transport.partition_drops == 0
            transport.set_blocked_peers([1])
            # The queued backlog (and nothing else) was purged and counted.
            assert transport.partition_drops == 7
            await transport.close()

        run(scenario())

    def test_set_blocked_peers_is_idempotent(self):
        async def scenario():
            transport = AsyncioTransport(
                0, {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 9)}
            )
            transport.send(1, StatusRequest(nonce=1))
            transport.set_blocked_peers([1])
            drops = transport.partition_drops
            transport.set_blocked_peers([1])  # replayed update: no-op
            assert transport.partition_drops == drops
            await transport.close()

        run(scenario())

    def test_broadcast_skips_blocked_targets_only(self):
        async def scenario():
            reachable = _Collector()
            await reachable.start()
            transport = AsyncioTransport(
                0,
                {
                    0: ("127.0.0.1", 1),
                    1: ("127.0.0.1", reachable.port),
                    2: ("127.0.0.1", 9),
                },
            )
            transport.set_blocked_peers([2])
            transport.broadcast(StatusRequest(nonce=5))
            assert transport.partition_drops == 1  # the copy towards peer 2
            await reachable.wait_for(2)  # hello + the broadcast copy
            await transport.close()
            await reachable.close()
            assert any(
                isinstance(m, StatusRequest) and m.nonce == 5
                for _, _, m in reachable.messages()
            )

        run(scenario())


class TestWanDelays:
    def test_peer_delay_defers_frames_per_destination(self):
        async def scenario():
            delay = 0.25
            collector = _Collector()
            await collector.start()
            transport = AsyncioTransport(
                0,
                {0: ("127.0.0.1", 1), 1: ("127.0.0.1", collector.port)},
                peer_delay={1: delay},
            )
            queued = asyncio.get_running_loop().time()
            transport.send(1, StatusRequest(nonce=1))
            await collector.wait_for(2)  # hello + the delayed frame
            await transport.close()
            await collector.close()
            arrivals = [
                arrival
                for arrival, _, m in collector.messages()
                if isinstance(m, StatusRequest)
            ]
            assert arrivals and arrivals[0] >= queued + delay - 0.01

        run(scenario())

    def test_peer_delay_composes_with_send_delay(self):
        async def scenario():
            collector = _Collector()
            await collector.start()
            transport = AsyncioTransport(
                0,
                {0: ("127.0.0.1", 1), 1: ("127.0.0.1", collector.port)},
                send_delay=0.1,
                peer_delay={1: 0.15},
            )
            queued = asyncio.get_running_loop().time()
            transport.send(1, StatusRequest(nonce=1))
            await collector.wait_for(2)
            await transport.close()
            await collector.close()
            arrivals = [
                arrival
                for arrival, _, m in collector.messages()
                if isinstance(m, StatusRequest)
            ]
            # Additive: 0.1 straggler + 0.15 WAN, not max() of the two.
            assert arrivals and arrivals[0] >= queued + 0.25 - 0.01

        run(scenario())

    def test_undelayed_destination_is_unaffected(self):
        async def scenario():
            collector = _Collector()
            await collector.start()
            transport = AsyncioTransport(
                0,
                {0: ("127.0.0.1", 1), 1: ("127.0.0.1", collector.port)},
                peer_delay={2: 5.0},  # a different destination entirely
            )
            queued = asyncio.get_running_loop().time()
            transport.send(1, StatusRequest(nonce=1))
            await collector.wait_for(2)
            await transport.close()
            await collector.close()
            arrivals = [
                arrival
                for arrival, _, m in collector.messages()
                if isinstance(m, StatusRequest)
            ]
            assert arrivals and arrivals[0] < queued + 1.0

        run(scenario())


class TestReconnectJitter:
    def test_same_node_id_draws_the_same_delays(self):
        async def scenario():
            peers = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}
            first, second, other = (
                AsyncioTransport(node_id, peers) for node_id in (1, 1, 0)
            )
            random.seed(1)
            drawn = [first.jittered(1.0) for _ in range(8)]
            random.seed(2)
            assert [second.jittered(1.0) for _ in range(8)] == drawn
            assert [other.jittered(1.0) for _ in range(8)] != drawn
            assert all(0.5 <= delay < 1.5 for delay in drawn)
            for transport in (first, second, other):
                await transport.close()

        run(scenario())
