"""Client reply matching counts replies by the connection they arrive on.

Four scripted replicas listen on localhost sockets.  Each answers every
request it receives with the :class:`ClientReply` frames its script names,
so a test can have one replica claim to be several.  ``f + 1`` matching
replies must come from ``f + 1`` distinct connections, whatever replica id
the replies claim.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.messages import ClientReply, ClientRequest
from repro.ledger.transactions import reset_transaction_counter
from repro.runtime.client import ClientConfig, ClientError, OrthrusClient
from repro.runtime.codec import decode_envelopes, encode_envelope
from repro.runtime.framing import FrameReader, encode_frame
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload

NUM_REPLICAS = 4


@pytest.fixture(autouse=True)
def _fresh_tx_ids():
    reset_transaction_counter()


async def _scripted_replica(replica_id: int, claims: tuple[int, ...]):
    """A listener answering each request with one reply per id in ``claims``."""

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        frames = FrameReader(reader)
        while (payloads := await frames.read_batch()) is not None:
            for payload in payloads:
                for _, message in decode_envelopes(payload):
                    if not isinstance(message, ClientRequest):
                        continue
                    for claimed in claims:
                        reply = ClientReply(message.tx.tx_id, claimed, True)
                        writer.write(encode_frame(encode_envelope(replica_id, reply)))
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _submit_one(scripts: dict[int, tuple[int, ...]]):
    """Submit one transaction to four scripted replicas; return its outcome."""

    async def scenario():
        servers = [
            await _scripted_replica(replica_id, scripts.get(replica_id, ()))
            for replica_id in range(NUM_REPLICAS)
        ]
        peers = [server.sockets[0].getsockname()[:2] for server in servers]
        tx = EthereumStyleWorkload(WorkloadConfig(num_accounts=64)).next_transaction()
        try:
            async with OrthrusClient(
                peers, ClientConfig(timeout=0.3, retries=0)
            ) as client:
                return await client.submit(tx)
        finally:
            for server in servers:
                server.close()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=10))


def test_one_replica_cannot_forge_a_reply_quorum():
    # Replica 0 claims to be replicas 0 and 1 on its own socket.
    with pytest.raises(ClientError, match="no reply quorum"):
        _submit_one({0: (0, 1)})


def test_replies_on_distinct_connections_form_the_quorum():
    result = _submit_one({0: (0,), 2: (2,)})
    assert result.committed
    assert result.replicas == (0, 2)
