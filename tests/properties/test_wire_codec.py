"""Property-based round-trip tests for the live wire codec.

Every message type crossing the wire — the cluster's client messages, the
full PBFT family and the control plane — must survive encode → decode
exactly, through the binary envelope and through the JSON payload codec (the
WAL's block records and embedded-JSON payloads), and payload decoders must
tolerate unknown fields.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import ClientReply, ClientRequest
from repro.crypto.signatures import Signature
from repro.ledger.blocks import Block, SystemState
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind
from repro.ledger.transactions import Transaction, TransactionType
from repro.runtime.codec import (
    WIRE_VERSION,
    WireCodecError,
    decode_envelope,
    decode_payload,
    encode_envelope,
    encode_payload,
)
from repro.runtime.control import Hello, ShutdownRequest, StatusReply, StatusRequest
from repro.sb.pbft.messages import (
    CheckpointMessage,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)

# -- strategies -------------------------------------------------------------

keys = st.text(min_size=1, max_size=12)
small_ints = st.integers(min_value=0, max_value=2**31)
times = st.none() | st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
json_metadata = st.dictionaries(
    keys=st.text(max_size=8),
    values=st.integers(min_value=-1000, max_value=1000) | st.text(max_size=8),
    max_size=3,
)

operations = st.builds(
    ObjectOperation,
    key=keys,
    kind=st.sampled_from(list(OperationKind)),
    amount=st.integers(min_value=-(2**40), max_value=2**40),
    object_type=st.sampled_from(list(ObjectType)),
)

signatures = st.builds(
    Signature,
    signer=keys,
    message_digest=st.text(alphabet="0123456789abcdef", min_size=8, max_size=16),
    value=st.text(alphabet="0123456789abcdef", min_size=8, max_size=16),
)

transactions = st.builds(
    Transaction,
    tx_id=st.text(min_size=1, max_size=20),
    operations=st.tuples(operations) | st.tuples(operations, operations),
    tx_type=st.sampled_from(list(TransactionType)),
    payload_size=st.integers(min_value=0, max_value=10_000),
    client_id=st.none() | keys,
    signatures=st.dictionaries(keys=keys, values=signatures, max_size=2),
    submitted_at=times,
    metadata=json_metadata,
)

system_states = st.builds(
    SystemState,
    sequence_numbers=st.lists(
        st.integers(min_value=-1, max_value=2**31), min_size=1, max_size=6
    ).map(tuple),
)

blocks = st.builds(
    Block,
    instance=small_ints,
    sequence_number=small_ints,
    transactions=st.lists(transactions, max_size=3).map(tuple),
    state=system_states,
    proposer=small_ints,
    epoch=small_ints,
    rank=st.none() | small_ints,
    signature=st.none() | signatures,
    metadata=json_metadata,
)

block_pairs = st.lists(st.tuples(small_ints, blocks), max_size=2).map(tuple)

digests = st.text(alphabet="0123456789abcdef", min_size=0, max_size=16)

messages = st.one_of(
    st.builds(ClientRequest, tx=transactions, client_node=small_ints),
    st.builds(
        ClientReply,
        tx_id=keys,
        replica=small_ints,
        committed=st.booleans(),
        confirmed_at=times,
    ),
    st.builds(
        PrePrepare,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        sequence_number=small_ints,
        block=st.none() | blocks,
        digest=digests,
    ),
    st.builds(
        Prepare,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        sequence_number=small_ints,
        digest=digests,
    ),
    st.builds(
        Commit,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        sequence_number=small_ints,
        digest=digests,
    ),
    st.builds(
        ViewChange,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        last_delivered=st.integers(min_value=-1, max_value=2**31),
        pending=block_pairs,
    ),
    st.builds(
        NewView,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        reproposals=block_pairs,
    ),
    st.builds(
        CheckpointMessage,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        epoch=small_ints,
        state_digest=digests,
    ),
)


def assert_deep_equal(decoded, original) -> None:
    """Structural equality via canonical re-encoding.

    Dataclass ``==`` is too weak here: ``Transaction`` compares by id only,
    so a block whose transactions lost their operations would still compare
    equal.  Re-encoding both sides and comparing the canonical payloads
    checks every field the wire carries.
    """
    assert type(decoded) is type(original)
    assert encode_payload(decoded) == encode_payload(original)


control_messages = st.one_of(
    st.builds(
        Hello,
        node_id=small_ints,
        role=st.sampled_from(["replica", "client"]),
    ),
    st.builds(StatusRequest, nonce=small_ints),
    st.builds(
        StatusReply,
        nonce=small_ints,
        replica=small_ints,
        committed=small_ints,
        rejected=small_ints,
        state_digest=digests,
        delivered_frontier=st.lists(
            st.integers(min_value=-1, max_value=2**31), max_size=4
        ).map(tuple),
        view_changes=small_ints,
        stage_breakdown=st.dictionaries(
            keys=st.sampled_from(["send", "process", "order", "execute", "reply"]),
            values=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            max_size=3,
        ),
    ),
    st.builds(ShutdownRequest, reason=st.text(max_size=16)),
)

all_messages = messages | control_messages


# -- round trips -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(sender=small_ints, message=all_messages)
def test_envelope_round_trip(sender, message):
    decoded_sender, decoded = decode_envelope(encode_envelope(sender, message))
    assert (decoded_sender, decoded) == (sender, message)
    assert_deep_equal(decoded, message)


@settings(max_examples=200, deadline=None)
@given(message=all_messages)
def test_payload_round_trip(message):
    """The JSON payload codec survives a trip through JSON text."""
    tag, payload = encode_payload(message)
    decoded = decode_payload(tag, json.loads(json.dumps(payload)))
    assert decoded == message
    assert_deep_equal(decoded, message)


@settings(max_examples=100, deadline=None)
@given(message=all_messages, extras=json_metadata)
def test_unknown_fields_are_tolerated(message, extras):
    """Payload decoders read the fields they know and ignore the rest."""
    tag, payload = encode_payload(message)
    tampered = json.loads(json.dumps(payload))
    for index, (key, value) in enumerate(extras.items()):
        tampered[f"x_payload_{key}_{index}"] = value
    assert_deep_equal(decode_payload(tag, tampered), message)


@settings(max_examples=50, deadline=None)
@given(message=all_messages)
def test_encoding_is_canonical(message):
    """The same message always encodes to the same bytes."""
    assert encode_envelope(7, message) == encode_envelope(7, message)


@settings(max_examples=200, deadline=None)
@given(sender=small_ints, message=all_messages)
def test_binary_envelope_round_trip(sender, message):
    """Every frame opens with the binary header (magic, wire version,
    sender) and every message type survives the struct-packed envelope."""
    from repro.runtime.codec import _BINARY_MAGIC, _HEADER

    frame = encode_envelope(sender, message)
    magic, version, _mode, header_sender = _HEADER.unpack_from(frame)
    assert (magic, version, header_sender) == (_BINARY_MAGIC, WIRE_VERSION, sender)
    decoded_sender, decoded = decode_envelope(frame)
    assert decoded_sender == sender
    assert_deep_equal(decoded, message)


@settings(max_examples=50, deadline=None)
@given(message=all_messages)
def test_binary_encoding_is_canonical(message):
    """Re-encoding a decoded frame gives back the very same bytes."""
    frame = encode_envelope(7, message)
    assert encode_envelope(*decode_envelope(frame)) == frame


def transactions_in(message) -> list[Transaction]:
    """Every transaction a message carries, however deeply."""
    if isinstance(message, ClientRequest):
        return [message.tx]
    if isinstance(message, PrePrepare):
        carried = [message.block] if message.block is not None else []
    elif isinstance(message, ViewChange):
        carried = [block for _, block in message.pending]
    elif isinstance(message, NewView):
        carried = [block for _, block in message.reproposals]
    else:
        carried = []
    return [tx for block in carried for tx in block.transactions]


@settings(max_examples=200, deadline=None)
@given(message=messages)
def test_decoded_transactions_are_dict_free_and_memoise(message):
    """A replica holds every decoded transaction until its block executes:
    the decoders must build the slotted objects the constructors build (no
    instance ``__dict__`` for the collector to track), with the digest and
    owned-decrement memos working on them."""
    _, decoded = decode_envelope(encode_envelope(7, message))
    for tx, original in zip(transactions_in(decoded), transactions_in(message)):
        assert not hasattr(tx, "__dict__")
        assert tx.signatures or tx.signatures is None  # no empty container
        assert tx.metadata or tx.metadata is None
        for operation in tx.operations:
            assert type(operation) is ObjectOperation
            assert not hasattr(operation, "__dict__")
        assert tx.operations == original.operations
        # Memos start empty, fill on first use, and hold what a fresh
        # computation gives.
        assert tx._digest_memo is None and tx._decrements_memo is None
        assert tx.digest == original.digest
        assert tx.digest is tx._digest_memo
        decrements = tx.decrement_operations()
        assert decrements is tx.decrement_operations()
        assert decrements == [op for op in tx.operations if op.is_owned_decrement]


def test_binary_frame_with_unknown_type_id_is_an_error():
    from repro.runtime.codec import _HEADER

    frame = bytearray(encode_envelope(0, Prepare(instance=0, view=0, sender=0)))
    frame[_HEADER.size] = 250  # the native-mode type id byte
    with pytest.raises(WireCodecError, match="unknown binary wire type"):
        decode_envelope(bytes(frame))


def test_binary_frame_with_future_version_is_an_error():
    frame = bytearray(encode_envelope(0, Prepare(instance=0, view=0, sender=0)))
    frame[1] = 3  # version byte
    with pytest.raises(WireCodecError, match="unsupported wire version"):
        decode_envelope(bytes(frame))


def test_truncated_binary_frame_is_an_error():
    frame = encode_envelope(0, Prepare(instance=0, view=0, sender=0))
    with pytest.raises(WireCodecError):
        decode_envelope(frame[: len(frame) - 3])


def test_empty_frame_is_an_error():
    with pytest.raises(WireCodecError, match="empty frame"):
        decode_envelope(b"")


def test_unregistered_type_travels_as_embedded_json():
    """Types without a native binary layout still cross the wire."""
    from repro.runtime import codec
    from repro.runtime.codec import register_wire_type

    class Probe:
        def __init__(self, value: int) -> None:
            self.value = value

    register_wire_type(
        Probe, "test_probe", lambda m: {"value": m.value}, lambda d: Probe(d["value"])
    )
    try:
        frame = encode_envelope(3, Probe(17))
        assert frame[0] == 0xB2
        sender, decoded = decode_envelope(frame)
        assert sender == 3 and isinstance(decoded, Probe) and decoded.value == 17
        # Embedded-JSON frames reject trailing garbage like native ones do.
        with pytest.raises(WireCodecError, match="trailing bytes"):
            decode_envelope(frame + b"xx")
    finally:
        # The registry is process-global; do not leak the probe type into
        # other tests' wire_tags()/registry enumeration.
        codec._ENCODERS.pop(Probe, None)
        codec._DECODERS.pop("test_probe", None)


# -- protocol errors ---------------------------------------------------------


def test_unknown_type_tag_is_an_error():
    with pytest.raises(WireCodecError, match="unknown wire type"):
        decode_payload("from_the_future", {})


def test_wrong_version_is_an_error():
    frame = bytearray(encode_envelope(0, Prepare(instance=0, view=0, sender=0)))
    for version in (0, 1, WIRE_VERSION + 1, 255):
        frame[1] = version
        with pytest.raises(WireCodecError, match="unsupported wire version"):
            decode_envelope(bytes(frame))


def test_unencodable_message_is_an_error():
    with pytest.raises(WireCodecError, match="no wire encoding"):
        encode_envelope(0, object())
