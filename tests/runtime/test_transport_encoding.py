"""AsyncioTransport encode accounting.

The transport must not pay for serialisation when nothing will be sent
(closed transport, filtered message, unknown destination, empty broadcast),
and must encode a broadcast once rather than once per peer.
"""

from __future__ import annotations

import asyncio

from repro.runtime.codec import decode_envelope
from repro.runtime.transport import AsyncioTransport
from repro.sb.pbft.messages import Prepare


PEERS = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2), 2: ("127.0.0.1", 3), 3: ("127.0.0.1", 4)}


def run(coro):
    return asyncio.run(coro)


async def _make_transport(**kwargs) -> AsyncioTransport:
    return AsyncioTransport(0, dict(PEERS), **kwargs)


def _message() -> Prepare:
    return Prepare(instance=0, view=0, sender=0, sequence_number=1, digest="ab")


class TestEncodeCounting:
    def test_broadcast_encodes_once_for_uniform_versions(self):
        async def scenario():
            transport = await _make_transport()
            transport.broadcast(_message())
            assert transport.frames_encoded == 1
            # Three per-peer queues were still filled from the one encoding.
            frames = [q.get_nowait()[1] for q in transport._queues.values()]
            assert len(frames) == 3 and frames[0] is frames[1] is frames[2]
            assert decode_envelope(frames[0]) == (0, _message())
            await transport.close()

        run(scenario())

    def test_closed_transport_does_not_encode(self):
        async def scenario():
            transport = await _make_transport()
            await transport.close()
            transport.send(1, _message())
            transport.broadcast(_message())
            assert transport.frames_encoded == 0

        run(scenario())

    def test_filtered_message_does_not_encode(self):
        async def scenario():
            transport = await _make_transport()
            transport.outbound_filter = lambda message: False
            transport.send(1, _message())
            transport.broadcast(_message())
            assert transport.frames_encoded == 0
            assert transport.frames_filtered == 2
            await transport.close()

        run(scenario())

    def test_unknown_destination_does_not_encode(self):
        async def scenario():
            transport = await _make_transport()
            transport.send(99, _message())
            assert transport.frames_encoded == 0
            assert transport.frames_dropped == 1
            await transport.close()

        run(scenario())

    def test_empty_broadcast_does_not_encode(self):
        async def scenario():
            transport = AsyncioTransport(0, {0: ("127.0.0.1", 1)})
            transport.broadcast(_message())  # only peer is self
            assert transport.frames_encoded == 0
            await transport.close()

        run(scenario())
