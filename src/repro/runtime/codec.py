"""Wire codec for all cluster and PBFT messages.

Every frame on a live connection carries one struct-packed envelope: a fixed
header ``magic(0xB2) version(2) mode sender(i64)`` followed by either a
*native* payload (one-byte type id, then positional struct-packed fields) or,
for message types registered without a native layout, their canonical-JSON
payload embedded verbatim (``mode`` distinguishes the two).  The decoder
rejects any other magic or version byte.  The native layout is positional,
so it is not field-extensible: a layout change means a new version byte.

Batching lives one layer down: a *super-frame* (see
:mod:`repro.runtime.framing`) packs many envelopes into one length-prefixed
frame, and :func:`decode_envelopes` accepts either.

The JSON *payload* codec (:func:`encode_payload` / :func:`decode_payload`)
renders the embedded-JSON payloads, the WAL's block records and debug
dumps.  A payload is a canonical JSON object (sorted keys, compact
separators, so its bytes are stable across processes and Python versions),
and its decoders read the fields they know and **ignore unknown fields**.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable

from repro.cluster.messages import ClientReply, ClientRequest
from repro.errors import NetworkError
from repro.runtime.framing import SUPER_FRAME_MAGIC, FrameError, split_super_frame
from repro.ledger.blocks import Block, SystemState
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind
from repro.ledger.transactions import Transaction, TransactionType
from repro.crypto.signatures import Signature
from repro.sb.pbft.messages import (
    CheckpointMessage,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)

#: Version byte of every envelope header.
WIRE_VERSION = 2


class WireCodecError(NetworkError):
    """A frame could not be encoded or decoded."""


# -- leaf encoders/decoders -------------------------------------------------


def _encode_operation(op: ObjectOperation) -> dict[str, Any]:
    return {
        "key": op.key,
        "kind": op.kind.value,
        "amount": op.amount,
        "object_type": op.object_type.value,
    }


def _decode_operation(data: dict[str, Any]) -> ObjectOperation:
    return ObjectOperation(
        key=data["key"],
        kind=OperationKind(data["kind"]),
        amount=int(data["amount"]),
        object_type=ObjectType(data["object_type"]),
    )


def _encode_signature(signature: Signature) -> dict[str, Any]:
    return {
        "signer": signature.signer,
        "message_digest": signature.message_digest,
        "value": signature.value,
    }


def _decode_signature(data: dict[str, Any]) -> Signature:
    return Signature(
        signer=data["signer"],
        message_digest=data["message_digest"],
        value=data["value"],
    )


def _encode_transaction(tx: Transaction) -> dict[str, Any]:
    return {
        "tx_id": tx.tx_id,
        "operations": [_encode_operation(op) for op in tx.operations],
        "tx_type": tx.tx_type.value,
        "payload_size": tx.payload_size,
        "client_id": tx.client_id,
        "signatures": {
            holder: _encode_signature(sig)
            for holder, sig in (tx.signatures or {}).items()
        },
        "submitted_at": tx.submitted_at,
        "metadata": tx.metadata or {},
    }


def _decode_transaction(data: dict[str, Any]) -> Transaction:
    return Transaction(
        tx_id=data["tx_id"],
        operations=tuple(_decode_operation(op) for op in data["operations"]),
        tx_type=TransactionType(data["tx_type"]),
        payload_size=int(data.get("payload_size", 0)),
        client_id=data.get("client_id"),
        signatures={
            holder: _decode_signature(sig)
            for holder, sig in data.get("signatures", {}).items()
        }
        or None,
        submitted_at=data.get("submitted_at"),
        metadata=dict(data.get("metadata", {})) or None,
    )


def _encode_block(block: Block) -> dict[str, Any]:
    return {
        "instance": block.instance,
        "sequence_number": block.sequence_number,
        "transactions": [_encode_transaction(tx) for tx in block.transactions],
        "state": list(block.state.sequence_numbers),
        "proposer": block.proposer,
        "epoch": block.epoch,
        "rank": block.rank,
        "signature": (
            _encode_signature(block.signature) if block.signature is not None else None
        ),
        "metadata": block.metadata,
    }


def _decode_block(data: dict[str, Any]) -> Block:
    signature = data.get("signature")
    return Block(
        instance=int(data["instance"]),
        sequence_number=int(data["sequence_number"]),
        transactions=tuple(_decode_transaction(tx) for tx in data["transactions"]),
        state=SystemState(tuple(int(v) for v in data["state"])),
        proposer=int(data["proposer"]),
        epoch=int(data.get("epoch", 0)),
        rank=data.get("rank"),
        signature=_decode_signature(signature) if signature is not None else None,
        metadata=dict(data.get("metadata", {})),
    )


def _encode_block_pairs(pairs: tuple[tuple[int, Block], ...]) -> list[list[Any]]:
    return [[sn, _encode_block(block)] for sn, block in pairs]


def _decode_block_pairs(data: list[Any]) -> tuple[tuple[int, Block], ...]:
    return tuple((int(sn), _decode_block(block)) for sn, block in data)


# -- message payloads -------------------------------------------------------


def _encode_client_request(msg: ClientRequest) -> dict[str, Any]:
    return {"tx": _encode_transaction(msg.tx), "client_node": msg.client_node}


def _decode_client_request(data: dict[str, Any]) -> ClientRequest:
    return ClientRequest(
        tx=_decode_transaction(data["tx"]), client_node=int(data["client_node"])
    )


def _encode_client_reply(msg: ClientReply) -> dict[str, Any]:
    return {
        "tx_id": msg.tx_id,
        "replica": msg.replica,
        "committed": msg.committed,
        "confirmed_at": msg.confirmed_at,
    }


def _decode_client_reply(data: dict[str, Any]) -> ClientReply:
    return ClientReply(
        tx_id=data["tx_id"],
        replica=int(data["replica"]),
        committed=bool(data["committed"]),
        confirmed_at=data.get("confirmed_at"),
    )


def _pbft_header(msg: Any) -> dict[str, Any]:
    return {"instance": msg.instance, "view": msg.view, "sender": msg.sender}


def _encode_pre_prepare(msg: PrePrepare) -> dict[str, Any]:
    return {
        **_pbft_header(msg),
        "sequence_number": msg.sequence_number,
        "block": _encode_block(msg.block) if msg.block is not None else None,
        "digest": msg.digest,
    }


def _decode_pre_prepare(data: dict[str, Any]) -> PrePrepare:
    block = data.get("block")
    return PrePrepare(
        instance=int(data["instance"]),
        view=int(data["view"]),
        sender=int(data["sender"]),
        sequence_number=int(data["sequence_number"]),
        block=_decode_block(block) if block is not None else None,
        digest=data.get("digest", ""),
    )


def _encode_prepare(msg: Prepare) -> dict[str, Any]:
    return {
        **_pbft_header(msg),
        "sequence_number": msg.sequence_number,
        "digest": msg.digest,
    }


def _decode_prepare(data: dict[str, Any]) -> Prepare:
    return Prepare(
        instance=int(data["instance"]),
        view=int(data["view"]),
        sender=int(data["sender"]),
        sequence_number=int(data["sequence_number"]),
        digest=data.get("digest", ""),
    )


def _encode_commit(msg: Commit) -> dict[str, Any]:
    return {
        **_pbft_header(msg),
        "sequence_number": msg.sequence_number,
        "digest": msg.digest,
    }


def _decode_commit(data: dict[str, Any]) -> Commit:
    return Commit(
        instance=int(data["instance"]),
        view=int(data["view"]),
        sender=int(data["sender"]),
        sequence_number=int(data["sequence_number"]),
        digest=data.get("digest", ""),
    )


def _encode_view_change(msg: ViewChange) -> dict[str, Any]:
    return {
        **_pbft_header(msg),
        "last_delivered": msg.last_delivered,
        "pending": _encode_block_pairs(msg.pending),
    }


def _decode_view_change(data: dict[str, Any]) -> ViewChange:
    return ViewChange(
        instance=int(data["instance"]),
        view=int(data["view"]),
        sender=int(data["sender"]),
        last_delivered=int(data.get("last_delivered", -1)),
        pending=_decode_block_pairs(data.get("pending", [])),
    )


def _encode_new_view(msg: NewView) -> dict[str, Any]:
    return {**_pbft_header(msg), "reproposals": _encode_block_pairs(msg.reproposals)}


def _decode_new_view(data: dict[str, Any]) -> NewView:
    return NewView(
        instance=int(data["instance"]),
        view=int(data["view"]),
        sender=int(data["sender"]),
        reproposals=_decode_block_pairs(data.get("reproposals", [])),
    )


def _encode_checkpoint(msg: CheckpointMessage) -> dict[str, Any]:
    return {
        **_pbft_header(msg),
        "epoch": msg.epoch,
        "state_digest": msg.state_digest,
    }


def _decode_checkpoint(data: dict[str, Any]) -> CheckpointMessage:
    return CheckpointMessage(
        instance=int(data["instance"]),
        view=int(data["view"]),
        sender=int(data["sender"]),
        epoch=int(data.get("epoch", 0)),
        state_digest=data.get("state_digest", ""),
    )


#: Type registry: message class -> (tag, encoder) and tag -> decoder.
_ENCODERS: dict[type, tuple[str, Callable[[Any], dict[str, Any]]]] = {
    ClientRequest: ("client_request", _encode_client_request),
    ClientReply: ("client_reply", _encode_client_reply),
    PrePrepare: ("pre_prepare", _encode_pre_prepare),
    Prepare: ("prepare", _encode_prepare),
    Commit: ("commit", _encode_commit),
    ViewChange: ("view_change", _encode_view_change),
    NewView: ("new_view", _encode_new_view),
    CheckpointMessage: ("checkpoint", _encode_checkpoint),
}

_DECODERS: dict[str, Callable[[dict[str, Any]], Any]] = {
    "client_request": _decode_client_request,
    "client_reply": _decode_client_reply,
    "pre_prepare": _decode_pre_prepare,
    "prepare": _decode_prepare,
    "commit": _decode_commit,
    "view_change": _decode_view_change,
    "new_view": _decode_new_view,
    "checkpoint": _decode_checkpoint,
}


def register_wire_type(
    cls: type,
    tag: str,
    encoder: Callable[[Any], dict[str, Any]],
    decoder: Callable[[dict[str, Any]], Any],
    *,
    binary: tuple[int, Callable[[list[bytes], Any], None], Callable[[bytes, int], tuple[Any, int]]]
    | None = None,
) -> None:
    """Register an additional message type (used by the control plane).

    ``binary`` optionally supplies ``(type_id, encode, decode)`` for a native
    layout; types registered without one still travel, with their
    canonical-JSON payload embedded in the binary envelope.
    """
    _ENCODERS[cls] = (tag, encoder)
    _DECODERS[tag] = decoder
    if binary is not None:
        type_id, binary_encoder, binary_decoder = binary
        _register_binary(cls, type_id, binary_encoder, binary_decoder)


def wire_tags() -> list[str]:
    """All registered type tags (sorted, for introspection and tests)."""
    return sorted(_DECODERS)


# -- binary primitives -------------------------------------------------------

#: First byte of every envelope.
_BINARY_MAGIC = 0xB2

#: Binary payload modes.
_MODE_EMBEDDED_JSON = 0
_MODE_NATIVE = 1

_HEADER = struct.Struct(">BBBq")  # magic, version, mode, sender
_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_B_TX_FIXED = struct.Struct(">BI")  # tx_type index, payload_size
_B_OPERATION = struct.Struct(">BqB")  # kind index, amount, object_type index
_B_BLOCK_FIXED = struct.Struct(">qqqq")  # instance, sn, proposer, epoch
_B_PBFT_HEADER = struct.Struct(">qqq")  # instance, view, sender

# Stable enum orderings for the positional layout (indices are wire format —
# append only, never reorder).  Encoders map members to indices with ``is``
# chains rather than dict lookups: Enum hashing is Python-level and slow.
_OP_KINDS = (
    OperationKind.INCREMENT,
    OperationKind.DECREMENT,
    OperationKind.ASSIGN,
    OperationKind.READ,
    OperationKind.CONTRACT_CALL,
)
_OBJ_TYPES = (ObjectType.OWNED, ObjectType.SHARED)
_TX_TYPES = (TransactionType.PAYMENT, TransactionType.CONTRACT)


def _w_str(out: list[bytes], value: str) -> None:
    data = value.encode("utf-8")
    out.append(_U32.pack(len(data)))
    out.append(data)


def _r_str(buf: bytes, off: int) -> tuple[str, int]:
    (length,) = _U32.unpack_from(buf, off)
    off += 4
    end = off + length
    return buf[off:end].decode("utf-8"), end


#: Pre-rendered empty dict — the overwhelmingly common case for metadata
#: and stage-breakdown maps, fast-pathed on both sides.
_EMPTY_JSON_DICT = _U32.pack(2) + b"{}"
_U32_ZERO = _U32.pack(0)


def _w_json(out: list[bytes], value: dict[str, Any]) -> None:
    """Length-prefixed canonical JSON (used for free-form dict fields)."""
    if not value:
        out.append(_EMPTY_JSON_DICT)
        return
    data = json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    out.append(_U32.pack(len(data)))
    out.append(data)


def _r_json(buf: bytes, off: int) -> tuple[Any, int]:
    (length,) = _U32.unpack_from(buf, off)
    off += 4
    end = off + length
    if length == 2 and buf[off:end] == b"{}":
        return {}, end
    return json.loads(buf[off:end].decode("utf-8")), end


def _w_signature(out: list[bytes], signature: Signature) -> None:
    _w_str(out, signature.signer)
    _w_str(out, signature.message_digest)
    _w_str(out, signature.value)


def _r_signature(buf: bytes, off: int) -> tuple[Signature, int]:
    signer, off = _r_str(buf, off)
    message_digest, off = _r_str(buf, off)
    value, off = _r_str(buf, off)
    return Signature(signer=signer, message_digest=message_digest, value=value), off


def _b_enc_transaction(out: list[bytes], tx: Transaction) -> None:
    # The single hottest encoder (every block carries dozens): string writes
    # are inlined rather than routed through _w_str.
    append = out.append
    pack_u32 = _U32.pack
    data = tx.tx_id.encode("utf-8")
    append(pack_u32(len(data)))
    append(data)
    append(
        _B_TX_FIXED.pack(
            0 if tx.tx_type is TransactionType.PAYMENT else 1, tx.payload_size
        )
    )
    if tx.client_id is None:
        append(b"\x00")
    else:
        append(b"\x01")
        data = tx.client_id.encode("utf-8")
        append(pack_u32(len(data)))
        append(data)
    if tx.submitted_at is None:
        append(b"\x00")
    else:
        append(b"\x01")
        append(_F64.pack(tx.submitted_at))
    append(pack_u32(len(tx.operations)))
    pack_op = _B_OPERATION.pack
    # Identity chains instead of dict lookups: Enum.__hash__ and the .value
    # descriptor are Python-level and dominate tight encode loops, while
    # ``is`` against the interned members is a pointer comparison (ordered
    # by payment-path frequency).
    kind_increment = OperationKind.INCREMENT
    kind_decrement = OperationKind.DECREMENT
    kind_assign = OperationKind.ASSIGN
    kind_read = OperationKind.READ
    type_owned = ObjectType.OWNED
    for key, kind, amount, object_type in tx.operations:
        data = key.encode("utf-8")
        append(pack_u32(len(data)))
        append(data)
        kind_id = (
            0
            if kind is kind_increment
            else 1
            if kind is kind_decrement
            else 2
            if kind is kind_assign
            else 3
            if kind is kind_read
            else 4
        )
        append(pack_op(kind_id, amount, 0 if object_type is type_owned else 1))
    if tx.signatures:
        append(pack_u32(len(tx.signatures)))
        for holder, signature in tx.signatures.items():
            _w_str(out, holder)
            _w_signature(out, signature)
    else:
        append(_U32_ZERO)
    metadata = tx.metadata
    if metadata:
        _w_json(out, metadata)
    else:
        append(_EMPTY_JSON_DICT)


def _b_dec_transaction(buf: bytes, off: int) -> tuple[Transaction, int]:
    unpack_u32 = _U32.unpack_from
    (length,) = unpack_u32(buf, off)
    off += 4
    end = off + length
    tx_id = buf[off:end].decode("utf-8")
    off = end
    tx_type_index, payload_size = _B_TX_FIXED.unpack_from(buf, off)
    off += _B_TX_FIXED.size
    client_id: str | None = None
    if buf[off]:
        client_id, off = _r_str(buf, off + 1)
    else:
        off += 1
    submitted_at: float | None = None
    if buf[off]:
        (submitted_at,) = _F64.unpack_from(buf, off + 1)
        off += 1 + 8
    else:
        off += 1
    (op_count,) = unpack_u32(buf, off)
    off += 4
    operations = []
    add_operation = operations.append
    unpack_op = _B_OPERATION.unpack_from
    op_size = _B_OPERATION.size
    for _ in range(op_count):
        (length,) = unpack_u32(buf, off)
        off += 4
        end = off + length
        key = buf[off:end].decode("utf-8")
        off = end
        kind_index, amount, type_index = unpack_op(buf, off)
        off += op_size
        add_operation(
            ObjectOperation(key, _OP_KINDS[kind_index], amount, _OBJ_TYPES[type_index])
        )
    (sig_count,) = unpack_u32(buf, off)
    off += 4
    signatures: dict[str, Signature] | None = None
    if sig_count:
        signatures = {}
        for _ in range(sig_count):
            holder, off = _r_str(buf, off)
            signatures[holder], off = _r_signature(buf, off)
    metadata: dict[str, Any] | None = None
    if buf[off : off + 6] == _EMPTY_JSON_DICT:
        off += 6
    else:
        metadata, off = _r_json(buf, off)
    return (
        Transaction(
            tx_id,
            tuple(operations),
            _TX_TYPES[tx_type_index],
            payload_size,
            client_id,
            signatures,
            submitted_at,
            metadata,
        ),
        off,
    )


def _b_enc_block(out: list[bytes], block: Block) -> None:
    out.append(
        _B_BLOCK_FIXED.pack(
            block.instance, block.sequence_number, block.proposer, block.epoch
        )
    )
    if block.rank is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        out.append(_I64.pack(block.rank))
    state = block.state.sequence_numbers
    out.append(_U32.pack(len(state)))
    out.append(struct.pack(f">{len(state)}q", *state))
    if block.signature is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        _w_signature(out, block.signature)
    _w_json(out, block.metadata)
    out.append(_U32.pack(len(block.transactions)))
    for tx in block.transactions:
        _b_enc_transaction(out, tx)


def _b_dec_block(buf: bytes, off: int) -> tuple[Block, int]:
    instance, sequence_number, proposer, epoch = _B_BLOCK_FIXED.unpack_from(buf, off)
    off += _B_BLOCK_FIXED.size
    rank: int | None = None
    if buf[off]:
        (rank,) = _I64.unpack_from(buf, off + 1)
        off += 1 + 8
    else:
        off += 1
    (state_len,) = _U32.unpack_from(buf, off)
    off += 4
    state = struct.unpack_from(f">{state_len}q", buf, off)
    off += 8 * state_len
    signature: Signature | None = None
    if buf[off]:
        signature, off = _r_signature(buf, off + 1)
    else:
        off += 1
    metadata, off = _r_json(buf, off)
    (tx_count,) = _U32.unpack_from(buf, off)
    off += 4
    transactions = []
    for _ in range(tx_count):
        tx, off = _b_dec_transaction(buf, off)
        transactions.append(tx)
    return (
        Block(
            instance=instance,
            sequence_number=sequence_number,
            transactions=tuple(transactions),
            state=SystemState(state),
            proposer=proposer,
            epoch=epoch,
            rank=rank,
            signature=signature,
            metadata=metadata,
        ),
        off,
    )


def _w_opt_block(out: list[bytes], block: Block | None) -> None:
    if block is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        _b_enc_block(out, block)


def _r_opt_block(buf: bytes, off: int) -> tuple[Block | None, int]:
    if buf[off]:
        return _b_dec_block(buf, off + 1)
    return None, off + 1


def _w_block_pairs(out: list[bytes], pairs: tuple[tuple[int, Block], ...]) -> None:
    out.append(_U32.pack(len(pairs)))
    for sequence_number, block in pairs:
        out.append(_I64.pack(sequence_number))
        _b_enc_block(out, block)


def _r_block_pairs(buf: bytes, off: int) -> tuple[tuple[tuple[int, Block], ...], int]:
    (count,) = _U32.unpack_from(buf, off)
    off += 4
    pairs = []
    for _ in range(count):
        (sequence_number,) = _I64.unpack_from(buf, off)
        block, off = _b_dec_block(buf, off + 8)
        pairs.append((sequence_number, block))
    return tuple(pairs), off


# -- binary message layouts --------------------------------------------------


def _b_enc_client_request(out: list[bytes], msg: ClientRequest) -> None:
    out.append(_I64.pack(msg.client_node))
    _b_enc_transaction(out, msg.tx)


def _b_dec_client_request(buf: bytes, off: int) -> tuple[ClientRequest, int]:
    (client_node,) = _I64.unpack_from(buf, off)
    tx, off = _b_dec_transaction(buf, off + 8)
    return ClientRequest(tx=tx, client_node=client_node), off


def _b_enc_client_reply(out: list[bytes], msg: ClientReply) -> None:
    _w_str(out, msg.tx_id)
    out.append(_I64.pack(msg.replica))
    out.append(b"\x01" if msg.committed else b"\x00")
    if msg.confirmed_at is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        out.append(_F64.pack(msg.confirmed_at))


def _b_dec_client_reply(buf: bytes, off: int) -> tuple[ClientReply, int]:
    tx_id, off = _r_str(buf, off)
    (replica,) = _I64.unpack_from(buf, off)
    off += 8
    committed = bool(buf[off])
    off += 1
    confirmed_at: float | None = None
    if buf[off]:
        (confirmed_at,) = _F64.unpack_from(buf, off + 1)
        off += 1 + 8
    else:
        off += 1
    return (
        ClientReply(
            tx_id=tx_id, replica=replica, committed=committed, confirmed_at=confirmed_at
        ),
        off,
    )


_B_PBFT_WITH_SN = struct.Struct(">qqqq")  # instance, view, sender, sequence_number


def _b_enc_pre_prepare(out: list[bytes], msg: PrePrepare) -> None:
    out.append(
        _B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.sequence_number)
    )
    _w_opt_block(out, msg.block)
    _w_str(out, msg.digest)


def _b_dec_pre_prepare(buf: bytes, off: int) -> tuple[PrePrepare, int]:
    instance, view, sender, sequence_number = _B_PBFT_WITH_SN.unpack_from(buf, off)
    block, off = _r_opt_block(buf, off + _B_PBFT_WITH_SN.size)
    digest, off = _r_str(buf, off)
    return (
        PrePrepare(
            instance=instance,
            view=view,
            sender=sender,
            sequence_number=sequence_number,
            block=block,
            digest=digest,
        ),
        off,
    )


def _b_enc_prepare(out: list[bytes], msg: Prepare) -> None:
    out.append(
        _B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.sequence_number)
    )
    _w_str(out, msg.digest)


def _b_dec_prepare(buf: bytes, off: int) -> tuple[Prepare, int]:
    instance, view, sender, sequence_number = _B_PBFT_WITH_SN.unpack_from(buf, off)
    digest, off = _r_str(buf, off + _B_PBFT_WITH_SN.size)
    return (
        Prepare(
            instance=instance,
            view=view,
            sender=sender,
            sequence_number=sequence_number,
            digest=digest,
        ),
        off,
    )


def _b_enc_commit(out: list[bytes], msg: Commit) -> None:
    out.append(
        _B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.sequence_number)
    )
    _w_str(out, msg.digest)


def _b_dec_commit(buf: bytes, off: int) -> tuple[Commit, int]:
    instance, view, sender, sequence_number = _B_PBFT_WITH_SN.unpack_from(buf, off)
    digest, off = _r_str(buf, off + _B_PBFT_WITH_SN.size)
    return (
        Commit(
            instance=instance,
            view=view,
            sender=sender,
            sequence_number=sequence_number,
            digest=digest,
        ),
        off,
    )


def _b_enc_view_change(out: list[bytes], msg: ViewChange) -> None:
    out.append(
        _B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.last_delivered)
    )
    _w_block_pairs(out, msg.pending)


def _b_dec_view_change(buf: bytes, off: int) -> tuple[ViewChange, int]:
    instance, view, sender, last_delivered = _B_PBFT_WITH_SN.unpack_from(buf, off)
    pending, off = _r_block_pairs(buf, off + _B_PBFT_WITH_SN.size)
    return (
        ViewChange(
            instance=instance,
            view=view,
            sender=sender,
            last_delivered=last_delivered,
            pending=pending,
        ),
        off,
    )


def _b_enc_new_view(out: list[bytes], msg: NewView) -> None:
    out.append(_B_PBFT_HEADER.pack(msg.instance, msg.view, msg.sender))
    _w_block_pairs(out, msg.reproposals)


def _b_dec_new_view(buf: bytes, off: int) -> tuple[NewView, int]:
    instance, view, sender = _B_PBFT_HEADER.unpack_from(buf, off)
    reproposals, off = _r_block_pairs(buf, off + _B_PBFT_HEADER.size)
    return (
        NewView(instance=instance, view=view, sender=sender, reproposals=reproposals),
        off,
    )


def _b_enc_checkpoint(out: list[bytes], msg: CheckpointMessage) -> None:
    out.append(_B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.epoch))
    _w_str(out, msg.state_digest)


def _b_dec_checkpoint(buf: bytes, off: int) -> tuple[CheckpointMessage, int]:
    instance, view, sender, epoch = _B_PBFT_WITH_SN.unpack_from(buf, off)
    state_digest, off = _r_str(buf, off + _B_PBFT_WITH_SN.size)
    return (
        CheckpointMessage(
            instance=instance,
            view=view,
            sender=sender,
            epoch=epoch,
            state_digest=state_digest,
        ),
        off,
    )


#: Binary type registry: class -> (type id, encoder) and type id -> decoder.
#: Type ids are wire format — never reuse or renumber.  Ids 1-15 are reserved
#: for consensus/client messages, 16+ for the control plane and extensions.
_BINARY_ENCODERS: dict[
    type, tuple[int, Callable[[list[bytes], Any], None]]
] = {}
_BINARY_DECODERS: dict[int, Callable[[bytes, int], tuple[Any, int]]] = {}


def _register_binary(
    cls: type,
    type_id: int,
    encoder: Callable[[list[bytes], Any], None],
    decoder: Callable[[bytes, int], tuple[Any, int]],
) -> None:
    if not 0 < type_id < 256:
        raise ValueError(f"binary type id {type_id} outside u8 range")
    existing = _BINARY_DECODERS.get(type_id)
    if existing is not None and _BINARY_ENCODERS.get(cls, (None,))[0] != type_id:
        raise ValueError(f"binary type id {type_id} already registered")
    _BINARY_ENCODERS[cls] = (type_id, encoder)
    _BINARY_DECODERS[type_id] = decoder


for _cls, _type_id, _enc, _dec in (
    (ClientRequest, 1, _b_enc_client_request, _b_dec_client_request),
    (ClientReply, 2, _b_enc_client_reply, _b_dec_client_reply),
    (PrePrepare, 3, _b_enc_pre_prepare, _b_dec_pre_prepare),
    (Prepare, 4, _b_enc_prepare, _b_dec_prepare),
    (Commit, 5, _b_enc_commit, _b_dec_commit),
    (ViewChange, 6, _b_enc_view_change, _b_dec_view_change),
    (NewView, 7, _b_enc_new_view, _b_dec_new_view),
    (CheckpointMessage, 8, _b_enc_checkpoint, _b_dec_checkpoint),
):
    _register_binary(_cls, _type_id, _enc, _dec)


# -- envelope ----------------------------------------------------------------


def encode_payload(message: Any) -> tuple[str, dict[str, Any]]:
    """Encode ``message`` to its (tag, payload dict) pair."""
    try:
        tag, encoder = _ENCODERS[type(message)]
    except KeyError:
        raise WireCodecError(
            f"no wire encoding registered for {type(message).__name__}"
        ) from None
    return tag, encoder(message)


def decode_payload(tag: str, payload: dict[str, Any]) -> Any:
    """Decode a payload dict back into its message object."""
    try:
        decoder = _DECODERS[tag]
    except KeyError:
        raise WireCodecError(f"unknown wire type tag {tag!r}") from None
    try:
        return decoder(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireCodecError(f"malformed {tag} payload: {exc}") from exc


def encode_envelope(sender: int, message: Any) -> bytes:
    """Serialise ``message`` from ``sender`` into one binary envelope."""
    entry = _BINARY_ENCODERS.get(type(message))
    if entry is not None:
        type_id, encoder = entry
        out = [
            _HEADER.pack(_BINARY_MAGIC, WIRE_VERSION, _MODE_NATIVE, sender),
            _U8.pack(type_id),
        ]
        encoder(out, message)
        return b"".join(out)
    # No native layout: embed the canonical-JSON payload.
    tag, payload = encode_payload(message)
    out = [_HEADER.pack(_BINARY_MAGIC, WIRE_VERSION, _MODE_EMBEDDED_JSON, sender)]
    _w_str(out, tag)
    _w_json(out, payload)
    return b"".join(out)


def decode_envelope(data: bytes) -> tuple[int, Any]:
    """Deserialise one envelope, returning ``(sender, message)``."""
    if not data:
        raise WireCodecError("empty frame")
    try:
        magic, version, mode, sender = _HEADER.unpack_from(data, 0)
        if magic != _BINARY_MAGIC:
            raise WireCodecError(f"not a wire envelope (first byte {magic:#04x})")
        if version != WIRE_VERSION:
            raise WireCodecError(
                f"unsupported wire version {version!r} "
                f"(this node speaks {WIRE_VERSION})"
            )
        off = _HEADER.size
        if mode == _MODE_NATIVE:
            type_id = data[off]
            decoder = _BINARY_DECODERS.get(type_id)
            if decoder is None:
                raise WireCodecError(f"unknown binary wire type id {type_id}")
            message, end = decoder(data, off + 1)
            if end != len(data):
                raise WireCodecError(
                    f"binary frame has {len(data) - end} trailing bytes"
                )
            return sender, message
        if mode == _MODE_EMBEDDED_JSON:
            tag, off = _r_str(data, off)
            payload, end = _r_json(data, off)
            if end != len(data):
                raise WireCodecError(
                    f"binary frame has {len(data) - end} trailing bytes"
                )
            return sender, decode_payload(tag, payload)
        raise WireCodecError(f"unknown binary payload mode {mode}")
    except WireCodecError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError, ValueError, KeyError) as exc:
        raise WireCodecError(f"malformed binary frame: {exc}") from exc


def decode_envelopes(data: bytes) -> list[tuple[int, Any]]:
    """Deserialise a frame payload into its ``(sender, message)`` pairs.

    A plain envelope yields one pair; a super-frame yields one per packed
    envelope, in order.
    """
    if data and data[0] == SUPER_FRAME_MAGIC:
        try:
            envelopes = split_super_frame(data)
        except FrameError as exc:
            raise WireCodecError(f"malformed super-frame: {exc}") from exc
        return [decode_envelope(envelope) for envelope in envelopes]
    return [decode_envelope(data)]
