"""Worker-pool offload must be behaviour-identical to the inline path.

The pool is an optimisation: every batch function produces the same results
whether it runs on the event loop (``InlineWorkers``) or in a worker process
(``WorkerPool``).  These tests pin that equivalence, the per-item error
capture, and the digest pre-warming that makes pool decodes pay off.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.messages import ClientRequest
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import sign
from repro.ledger.blocks import Block, SystemState
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind
from repro.ledger.transactions import Transaction, TransactionType
from repro.runtime.codec import WireCodecError, encode_envelope
from repro.runtime.control import StatusRequest
from repro.runtime.framing import encode_super_frame
from repro.runtime.workers import (
    InlineWorkers,
    WorkerPool,
    decode_payloads,
    digest_batch,
    make_worker_pool,
    verify_batch,
)
from repro.sb.pbft.messages import PrePrepare, Prepare


def run(coro):
    return asyncio.run(coro)


def _transactions(count: int) -> list[Transaction]:
    return [
        Transaction(
            tx_id=f"tx-{i}",
            operations=(
                ObjectOperation(
                    key=f"acct-{i % 7}",
                    kind=OperationKind.INCREMENT,
                    amount=1,
                    object_type=ObjectType.OWNED,
                ),
            ),
            tx_type=TransactionType.PAYMENT,
            client_id="w",
        )
        for i in range(count)
    ]


def _block(txs) -> Block:
    return Block.create(
        instance=0,
        sequence_number=1,
        transactions=txs,
        state=SystemState.initial(2),
        proposer=0,
        rank=3,
    )


def _messages():
    txs = _transactions(8)
    block = _block(txs)
    return [
        Prepare(instance=0, view=0, sender=1, sequence_number=1, digest=block.digest),
        ClientRequest(tx=txs[0], client_node=1000),
        PrePrepare(
            instance=0,
            view=0,
            sender=0,
            sequence_number=1,
            block=block,
            digest=block.digest,
        ),
        StatusRequest(nonce=9),
    ]


def _payloads() -> list[bytes]:
    return [encode_envelope(sender, message) for sender, message in enumerate(_messages())]


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(1)
    yield pool
    pool.close()


class TestPoolMatchesInline:
    def test_decode(self, pool):
        payloads = _payloads() + [encode_super_frame(_payloads())]

        async def scenario():
            return await pool.decode(payloads), await InlineWorkers().decode(payloads)

        pooled, inline = run(scenario())
        assert len(pooled) == len(inline) == 8
        for (p_sender, p_message), (i_sender, i_message) in zip(pooled, inline):
            assert p_sender == i_sender
            assert type(p_message) is type(i_message)
            assert encode_envelope(0, p_message) == encode_envelope(0, i_message)

    def test_digests(self, pool):
        values = [{"a": 1}, [1, 2, 3], "x", 7]

        async def scenario():
            return await pool.digests(values), await InlineWorkers().digests(values)

        pooled, inline = run(scenario())
        assert pooled == inline == digest_batch(values)

    def test_verify(self, pool):
        pki = PublicKeyInfrastructure()
        keypair = pki.enroll("replica-1")
        pairs = [
            (sign(keypair, {"vote": 1}), {"vote": 1}),
            (sign(keypair, {"vote": 1}), {"vote": 2}),
        ]

        async def scenario():
            return (
                await pool.verify(pki, pairs),
                await InlineWorkers().verify(pki, pairs),
            )

        pooled, inline = run(scenario())
        assert pooled == inline == verify_batch(pki, pairs) == [True, False]


class TestDecodeSemantics:
    def test_corrupt_entry_does_not_poison_the_batch(self):
        payloads = [_payloads()[0], b"\xb2garbage", _payloads()[1]]
        out = decode_payloads(payloads)
        assert len(out) == 3
        assert isinstance(out[0], tuple)
        assert isinstance(out[1], WireCodecError)
        assert isinstance(out[2], tuple)

    def test_corrupt_super_frame_is_one_error_entry(self):
        out = decode_payloads([b"\xb3\x00\x00\x00\x05short"])
        assert len(out) == 1
        assert isinstance(out[0], WireCodecError)

    def test_pool_decode_warms_block_digest_memos(self, pool):
        payloads = _payloads()

        async def scenario():
            return await pool.decode(payloads)

        decoded = run(scenario())
        blocks = [
            message.block
            for _, message in decoded
            if isinstance(message, PrePrepare) and message.block is not None
        ]
        assert blocks
        # The memo was computed worker-side and travelled with the pickle.
        assert all(block._digest_memo is not None for block in blocks)

    def test_inline_decode_does_not_prepay_digests(self):
        decoded = decode_payloads(_payloads())
        blocks = [
            message.block
            for _, message in decoded
            if isinstance(message, PrePrepare) and message.block is not None
        ]
        assert blocks
        assert all(block._digest_memo is None for block in blocks)


class TestFactory:
    def test_zero_workers_is_inline(self):
        workers = make_worker_pool(0)
        assert isinstance(workers, InlineWorkers)
        assert workers.workers == 0

    def test_positive_workers_is_a_pool(self):
        workers = make_worker_pool(1)
        try:
            assert isinstance(workers, WorkerPool)
            assert workers.workers == 1
        finally:
            workers.close()

    def test_pool_rejects_zero(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_pool_counts_batches_and_items(self, pool):
        before_batches = pool.batches_submitted
        before_items = pool.items_submitted

        async def scenario():
            await pool.digests([1, 2, 3])

        run(scenario())
        assert pool.batches_submitted == before_batches + 1
        assert pool.items_submitted == before_items + 3
