"""Transport-level super-frame batching.

Every peer connection coalesces bursts into super-frames, while the hello
that opens it stays a plain frame.  Straggler injection (``send_delay``)
must survive coalescing: a frame is never written before its own due time,
even when the writer batches around it.
"""

from __future__ import annotations

import asyncio

from repro.runtime.codec import decode_envelopes
from repro.runtime.control import Hello, StatusRequest
from repro.runtime.framing import FrameError, FrameReader, is_super_frame
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
            assert remaining > 0, (
                f"timed out with {len(self.received)}/{count} frames"
            )
            self._got_frame.clear()
            try:
                await asyncio.wait_for(self._got_frame.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    async def close(self) -> None:
        assert self.server is not None
        self.server.close()
        await self.server.wait_closed()

    def payloads(self) -> list[bytes]:
        return [payload for _, payload in self.received]

    def messages(self) -> list[tuple[float, int, object]]:
        """Flatten every frame (splitting super-frames) into messages."""
        out = []
        for arrival, payload in self.received:
            for sender, message in decode_envelopes(payload):
                out.append((arrival, sender, message))
        return out


async def _transport_to(collector: _Collector, **kwargs) -> AsyncioTransport:
    return AsyncioTransport(
        0, {0: ("127.0.0.1", 1), 1: ("127.0.0.1", collector.port)}, **kwargs
    )


class TestSuperFrameCoalescing:
    def test_burst_to_v3_peer_arrives_as_one_super_frame(self):
        async def scenario():
            collector = _Collector()
            await collector.start()
            transport = await _transport_to(collector)
            for nonce in range(10):
                transport.send(1, StatusRequest(nonce=nonce))
            # hello + the batch (all 10 were queued before the dial finished)
            await collector.wait_for(2)
            await transport.close()
            await collector.close()

            payloads = collector.payloads()
            supers = [p for p in payloads if is_super_frame(p)]
            assert len(supers) == 1
            assert transport.super_frames_sent == 1
            nonces = [
                message.nonce
                for _, _, message in collector.messages()
                if isinstance(message, StatusRequest)
            ]
            assert nonces == list(range(10))

        run(scenario())

    def test_hello_is_a_plain_binary_frame(self):
        async def scenario():
            collector = _Collector()
            await collector.start()
            transport = await _transport_to(collector)
            transport.send(1, StatusRequest(nonce=1))
            await collector.wait_for(2)
            await transport.close()
            await collector.close()

            first = collector.payloads()[0]
            assert first[0] == 0xB2 and not is_super_frame(first)
            [(_, hello)] = decode_envelopes(first)
            assert hello == Hello(0, "replica")

        run(scenario())


class TestSendDelayDueTimes:
    def test_coalescing_never_writes_a_frame_before_its_due_time(self):
        """Two frames with staggered due times under send_delay: the first
        must not wait for the second, and the second must not ride the first
        frame's flush early."""

        async def scenario():
            delay = 0.25
            collector = _Collector()
            await collector.start()
            transport = await _transport_to(collector, send_delay=delay)
            loop = asyncio.get_running_loop()
            queued_first = loop.time()
            transport.send(1, StatusRequest(nonce=1))
            await asyncio.sleep(0.1)
            queued_second = loop.time()
            transport.send(1, StatusRequest(nonce=2))
            await collector.wait_for(3)  # hello + two delayed frames
            await transport.close()
            await collector.close()

            arrivals = {
                message.nonce: arrival
                for arrival, _, message in collector.messages()
                if isinstance(message, StatusRequest)
            }
            assert set(arrivals) == {1, 2}
            assert arrivals[1] >= queued_first + delay - 0.01
            assert arrivals[2] >= queued_second + delay - 0.01
            # Pipelined, not serialised: the second frame's extra wait is its
            # own queue offset, not first-delay + second-delay.
            assert arrivals[2] < queued_second + 2 * delay

        run(scenario())

    def test_frames_due_together_still_coalesce_under_delay(self):
        async def scenario():
            delay = 0.15
            collector = _Collector()
            await collector.start()
            transport = await _transport_to(collector, send_delay=delay)
            queued = asyncio.get_running_loop().time()
            for nonce in range(6):
                transport.send(1, StatusRequest(nonce=nonce))
            await collector.wait_for(2)  # hello + one super-frame
            await transport.close()
            await collector.close()

            supers = [p for p in collector.payloads() if is_super_frame(p)]
            assert len(supers) == 1
            for arrival, _, message in collector.messages():
                if isinstance(message, StatusRequest):
                    assert arrival >= queued + delay - 0.01

        run(scenario())
