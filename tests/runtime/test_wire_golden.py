"""Golden bytes for the one wire format.

Every registered message type (``Hello`` aside: its layout lost a field when
the wire became single-format) is pinned to the exact envelope bytes the
struct-packed codec produced before the JSON envelope and the version
negotiation were removed, plus one super-frame of three envelopes.  A layout
drift in any encoder fails here byte-for-byte.  The other half pins what the
decoder must refuse: a canonical-JSON envelope and a binary header carrying
any version byte but 2 — and a live replica must survive both, dropping the
bad frame and serving the next one on the same connection.
"""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro.cluster.messages import ClientReply, ClientRequest
from repro.crypto.signatures import Signature
from repro.ledger.blocks import Block, SystemState
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind
from repro.ledger.transactions import Transaction, TransactionType
from repro.runtime.codec import (
    WIRE_VERSION,
    WireCodecError,
    decode_envelope,
    decode_envelopes,
    encode_envelope,
    wire_tags,
)
from repro.runtime.cluster import free_port
from repro.runtime.config import ReplicaRuntimeConfig
from repro.runtime.control import (
    LinkUpdate,
    MetricsReply,
    MetricsRequest,
    RecoveryReply,
    RecoveryRequest,
    ShutdownRequest,
    StatusReply,
    StatusRequest,
)
from repro.runtime.framing import FrameReader, encode_frame, encode_super_frame
from repro.runtime.server import ReplicaServer
from repro.sb.pbft.messages import (
    CheckpointMessage,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.workload.config import WorkloadConfig


def _transaction(tx_id: str, *, signed: bool) -> Transaction:
    return Transaction(
        tx_id=tx_id,
        operations=(
            ObjectOperation("acct-1", OperationKind.DECREMENT, 25, ObjectType.OWNED),
            ObjectOperation("acct-2", OperationKind.INCREMENT, 25, ObjectType.SHARED),
        ),
        tx_type=TransactionType.PAYMENT if signed else TransactionType.CONTRACT,
        payload_size=500,
        client_id="client-7" if signed else None,
        signatures=(
            {"acct-1": Signature("acct-1", "0badc0de", "feedface")} if signed else None
        ),
        submitted_at=12.5 if signed else None,
        metadata={"lane": 3, "tag": "x"} if signed else None,
    )


def _block(sequence_number: int) -> Block:
    return Block(
        instance=1,
        sequence_number=sequence_number,
        transactions=(
            _transaction(f"tx-{sequence_number}-a", signed=True),
            _transaction(f"tx-{sequence_number}-b", signed=False),
        ),
        state=SystemState((3, -1, 7)),
        proposer=2,
        epoch=4,
        rank=9,
        signature=Signature("replica-2", "00ff00ff", "abcdef01"),
        metadata={"origin": "golden"},
    )


def golden_messages() -> dict[str, tuple[int, object]]:
    """One ``(sender, message)`` per registered wire tag except ``hello``."""
    return {
        "client_request": (1001, ClientRequest(_transaction("tx-c", signed=True), 1001)),
        "client_reply": (2, ClientReply("tx-c", 2, True, 99.25)),
        "pre_prepare": (
            2,
            PrePrepare(
                instance=1, view=0, sender=2, sequence_number=5,
                block=_block(5), digest="d5",
            ),
        ),
        "prepare": (
            3,
            Prepare(instance=1, view=0, sender=3, sequence_number=5, digest="d5"),
        ),
        "commit": (
            0,
            Commit(instance=1, view=2, sender=0, sequence_number=6, digest="d6"),
        ),
        "view_change": (
            3,
            ViewChange(
                instance=1, view=1, sender=3, last_delivered=4,
                pending=((5, _block(5)),),
            ),
        ),
        "new_view": (
            1,
            NewView(instance=1, view=1, sender=1, reproposals=((6, _block(6)),)),
        ),
        "checkpoint": (
            2,
            CheckpointMessage(
                instance=0, view=3, sender=2, epoch=8, state_digest="c0ffee"
            ),
        ),
        "status_request": (1001, StatusRequest(nonce=42)),
        "status_reply": (
            0,
            StatusReply(
                nonce=42, replica=0, committed=120, rejected=3,
                state_digest="beef", delivered_frontier=(4, -1),
                view_changes=1, stage_breakdown={"order": 1.5, "send": 0.25},
            ),
        ),
        "shutdown": (1001, ShutdownRequest("done")),
        "metrics_request": (1001, MetricsRequest(nonce=7)),
        "recovery_request": (3, RecoveryRequest(nonce=2, replica=3, frontier=(4, 5))),
        "recovery_reply": (
            0,
            RecoveryReply(
                nonce=2, replica=0, frontier=(9, 9), views=(1, 0),
                checkpoint_epoch=2, checkpoint_digest="aa",
                snapshot='{"k":1}', blocks=({"instance": 1, "seq": 7},),
            ),
        ),
        "link_update": (4, LinkUpdate(nonce=1, blocked=(0, 2))),
        "metrics_reply": (
            1,
            MetricsReply(
                nonce=7, replica=1, uptime=3.5,
                metrics={"transport.frames_sent": 10.0},
            ),
        ),
    }


#: ``encode_envelope(sender, message)`` for each entry of ``golden_messages``.
GOLDEN_ENVELOPES = {
    "client_request": (
        "b2020100000000000003e90100000000000003e90000000474782d6300000001f4010000"
        "0008636c69656e742d370140290000000000000000000200000006616363742d31010000"
        "0000000000190000000006616363742d3200000000000000001901000000010000000661"
        "6363742d3100000006616363742d31000000083062616463306465000000086665656466"
        "616365000000147b226c616e65223a332c22746167223a2278227d"
    ),
    "client_reply": (
        "b202010000000000000002020000000474782d63000000000000000201014058d0000000"
        "0000"
    ),
    "pre_prepare": (
        "b20201000000000000000203000000000000000100000000000000000000000000000002"
        "000000000000000501000000000000000100000000000000050000000000000002000000"
        "0000000004010000000000000009000000030000000000000003ffffffffffffffff0000"
        "00000000000701000000097265706c6963612d3200000008303066663030666600000008"
        "6162636465663031000000137b226f726967696e223a22676f6c64656e227d0000000200"
        "00000674782d352d6100000001f40100000008636c69656e742d37014029000000000000"
        "0000000200000006616363742d310100000000000000190000000006616363742d320000"
        "00000000000019010000000100000006616363742d3100000006616363742d3100000008"
        "3062616463306465000000086665656466616365000000147b226c616e65223a332c2274"
        "6167223a2278227d0000000674782d352d6201000001f400000000000200000006616363"
        "742d310100000000000000190000000006616363742d3200000000000000001901000000"
        "00000000027b7d000000026435"
    ),
    "prepare": (
        "b20201000000000000000304000000000000000100000000000000000000000000000003"
        "0000000000000005000000026435"
    ),
    "commit": (
        "b20201000000000000000005000000000000000100000000000000020000000000000000"
        "0000000000000006000000026436"
    ),
    "view_change": (
        "b20201000000000000000306000000000000000100000000000000010000000000000003"
        "000000000000000400000001000000000000000500000000000000010000000000000005"
        "000000000000000200000000000000040100000000000000090000000300000000000000"
        "03ffffffffffffffff000000000000000701000000097265706c6963612d320000000830"
        "30666630306666000000086162636465663031000000137b226f726967696e223a22676f"
        "6c64656e227d000000020000000674782d352d6100000001f40100000008636c69656e74"
        "2d370140290000000000000000000200000006616363742d310100000000000000190000"
        "000006616363742d32000000000000000019010000000100000006616363742d31000000"
        "06616363742d31000000083062616463306465000000086665656466616365000000147b"
        "226c616e65223a332c22746167223a2278227d0000000674782d352d6201000001f40000"
        "0000000200000006616363742d310100000000000000190000000006616363742d320000"
        "000000000000190100000000000000027b7d"
    ),
    "new_view": (
        "b20201000000000000000107000000000000000100000000000000010000000000000001"
        "000000010000000000000006000000000000000100000000000000060000000000000002"
        "0000000000000004010000000000000009000000030000000000000003ffffffffffffff"
        "ff000000000000000701000000097265706c6963612d3200000008303066663030666600"
        "0000086162636465663031000000137b226f726967696e223a22676f6c64656e227d0000"
        "00020000000674782d362d6100000001f40100000008636c69656e742d37014029000000"
        "0000000000000200000006616363742d310100000000000000190000000006616363742d"
        "32000000000000000019010000000100000006616363742d3100000006616363742d3100"
        "0000083062616463306465000000086665656466616365000000147b226c616e65223a33"
        "2c22746167223a2278227d0000000674782d362d6201000001f400000000000200000006"
        "616363742d310100000000000000190000000006616363742d3200000000000000001901"
        "00000000000000027b7d"
    ),
    "checkpoint": (
        "b20201000000000000000208000000000000000000000000000000030000000000000002"
        "000000000000000800000006633066666565"
    ),
    "status_request": "b2020100000000000003e911000000000000002a",
    "status_reply": (
        "b20201000000000000000012000000000000002a00000000000000000000000000000078"
        "000000000000000300000000000000010000000462656566000000020000000000000004"
        "ffffffffffffffff000000197b226f72646572223a312e352c2273656e64223a302e3235"
        "7d"
    ),
    "shutdown": "b2020100000000000003e91300000004646f6e65",
    "metrics_request": "b2020100000000000003e9140000000000000007",
    "recovery_request": (
        "b20201000000000000000316000000000000000200000000000000030000000200000000"
        "000000040000000000000005"
    ),
    "recovery_reply": (
        "b20201000000000000000017000000000000000200000000000000000000000000000002"
        "000000020000000000000009000000000000000900000002000000000000000100000000"
        "00000000000000026161000000077b226b223a317d000000237b22626c6f636b73223a5b"
        "7b22696e7374616e6365223a312c22736571223a377d5d7d"
    ),
    "link_update": (
        "b20201000000000000000418000000000000000100000002000000000000000000000000"
        "00000002"
    ),
    "metrics_reply": (
        "b2020100000000000000011500000000000000070000000000000001400c000000000000"
        "0000001e7b227472616e73706f72742e6672616d65735f73656e74223a31302e307d"
    ),
}

#: ``encode_super_frame`` over the first three golden envelopes.
GOLDEN_SUPER_FRAME = (
    "b300000003000000abb2020100000000000003e90100000000000003e90000000474782d"
    "6300000001f40100000008636c69656e742d370140290000000000000000000200000006"
    "616363742d310100000000000000190000000006616363742d3200000000000000001901"
    "0000000100000006616363742d3100000006616363742d31000000083062616463306465"
    "000000086665656466616365000000147b226c616e65223a332c22746167223a2278227d"
    "00000026b202010000000000000002020000000474782d63000000000000000201014058"
    "d0000000000000000199b202010000000000000002030000000000000001000000000000"
    "000000000000000000020000000000000005010000000000000001000000000000000500"
    "000000000000020000000000000004010000000000000009000000030000000000000003"
    "ffffffffffffffff000000000000000701000000097265706c6963612d32000000083030"
    "666630306666000000086162636465663031000000137b226f726967696e223a22676f6c"
    "64656e227d000000020000000674782d352d6100000001f40100000008636c69656e742d"
    "370140290000000000000000000200000006616363742d31010000000000000019000000"
    "0006616363742d32000000000000000019010000000100000006616363742d3100000006"
    "616363742d31000000083062616463306465000000086665656466616365000000147b22"
    "6c616e65223a332c22746167223a2278227d0000000674782d352d6201000001f4000000"
    "00000200000006616363742d310100000000000000190000000006616363742d32000000"
    "0000000000190100000000000000027b7d000000026435"
)


def test_golden_messages_cover_every_registered_type():
    assert set(golden_messages()) | {"hello"} == set(wire_tags())
    assert set(GOLDEN_ENVELOPES) == set(golden_messages())


@pytest.mark.parametrize("tag", sorted(GOLDEN_ENVELOPES))
def test_envelope_bytes_match_golden(tag):
    sender, message = golden_messages()[tag]
    encoded = encode_envelope(sender, message)
    assert encoded.hex() == GOLDEN_ENVELOPES[tag]
    assert decode_envelope(encoded) == (sender, message)


def test_super_frame_bytes_match_golden():
    trio = [encode_envelope(s, m) for s, m in list(golden_messages().values())[:3]]
    payload = encode_super_frame(trio)
    assert payload.hex() == GOLDEN_SUPER_FRAME
    assert decode_envelopes(payload) == list(golden_messages().values())[:3]


def test_canonical_json_envelope_is_rejected():
    envelope = {"v": 1, "t": "prepare", "s": 0, "p": {"instance": 0}}
    with pytest.raises(WireCodecError):
        decode_envelope(json.dumps(envelope, sort_keys=True).encode())


def test_binary_header_with_version_three_is_rejected():
    frame = bytearray(encode_envelope(0, Prepare(instance=0, view=0, sender=0)))
    assert frame[1] == WIRE_VERSION == 2
    frame[1] = 3
    with pytest.raises(WireCodecError, match="unsupported wire version"):
        decode_envelope(bytes(frame))


def test_live_replica_drops_a_json_frame_and_serves_the_next(caplog):
    async def scenario():
        peers = tuple(("127.0.0.1", free_port()) for _ in range(4))
        server = ReplicaServer(
            ReplicaRuntimeConfig(
                replica_id=0,
                peers=peers,
                num_instances=1,
                workload=WorkloadConfig(num_accounts=16, seed=1),
            )
        )
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(*peers[0])
            json_request = {"v": 1, "t": "status_request", "s": 1001, "p": {"nonce": 1}}
            writer.write(encode_frame(json.dumps(json_request).encode()))
            writer.write(encode_frame(encode_envelope(1001, StatusRequest(nonce=2))))
            await writer.drain()
            payloads = await asyncio.wait_for(FrameReader(reader).read_batch(), 5.0)
            writer.close()
            return [message for p in payloads for _, message in decode_envelopes(p)]
        finally:
            server.stop()
            await server._shutdown()

    with caplog.at_level(logging.WARNING, logger="repro.runtime.server"):
        replies = asyncio.run(scenario())
    assert [type(r) for r in replies] == [StatusReply]
    assert replies[0].nonce == 2
    assert any("dropping frame" in record.message for record in caplog.records)
