"""Micro-benchmarks of the hot data structures (pytest-benchmark timings).

These are engineering benchmarks, not paper figures: they track the cost of
the operations every simulated second exercises millions of times, so
performance regressions in the library itself are visible.
"""

import repro.runtime.control  # noqa: F401  (registers control-plane wire types)
from repro.bench.suites import _straggler_blocks
from repro.core.config import CoreConfig
from repro.core.orthrus import OrthrusCore
from repro.core.partition import PayerPartitioner
from repro.ledger.blocks import Block, SystemState
from repro.ledger.state import StateStore
from repro.ledger.transactions import simple_transfer
from repro.ordering.ladon import LadonGlobalOrderer
from repro.ordering.predetermined import PredeterminedGlobalOrderer
from repro.runtime.codec import decode_envelope, encode_envelope, encode_payload
from repro.sim.simulator import Simulator
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload


def test_simulator_event_throughput(benchmark):
    def run():
        sim = Simulator()
        for i in range(20_000):
            sim.schedule(i * 1e-4, lambda: None)
        sim.run()
        return sim.processed_events

    assert benchmark(run) == 20_000


def test_workload_generation_rate(benchmark):
    config = WorkloadConfig(num_accounts=5_000, num_transactions=5_000, seed=3)

    def run():
        return len(EthereumStyleWorkload(config).generate())

    assert benchmark(run) == 5_000


def test_partitioner_assignment_rate(benchmark):
    partitioner = PayerPartitioner(128)
    keys = [f"acct-{i:06d}" for i in range(10_000)]

    def run():
        return sum(partitioner.assign_object(key) for key in keys)

    assert benchmark(run) >= 0


def _blocks_for_orderer(num_instances=16, per_instance=50):
    blocks = []
    rank = 0
    for sn in range(per_instance):
        for instance in range(num_instances):
            rank += 1
            blocks.append(
                Block.create(
                    instance=instance,
                    sequence_number=sn,
                    transactions=[],
                    state=SystemState.initial(num_instances),
                    proposer=instance,
                    rank=rank,
                )
            )
    return blocks


def test_ladon_orderer_throughput(benchmark):
    blocks = _blocks_for_orderer()

    def run():
        orderer = LadonGlobalOrderer(16)
        for block in blocks:
            orderer.on_deliver(block)
        return orderer.ordered_count

    assert benchmark(run) > 0


def test_predetermined_orderer_throughput(benchmark):
    blocks = _blocks_for_orderer()

    def run():
        orderer = PredeterminedGlobalOrderer(16)
        for block in blocks:
            orderer.on_deliver(block)
        return orderer.ordered_count

    assert benchmark(run) == len(blocks)


def _sample_block(num_txs=64, instances=4):
    txs = [
        simple_transfer(
            f"acct-{i:04d}",
            f"acct-{i + 1:04d}",
            1,
            tx_id=f"tx-{i:06d}",
            client_id="bench",
        )
        for i in range(num_txs)
    ]
    return Block.create(
        instance=0,
        sequence_number=5,
        transactions=txs,
        state=SystemState.initial(instances),
        proposer=0,
        rank=17,
    )


def test_digest_memoization_second_access_is_free(benchmark):
    """After the first access, ``Block.digest`` must be a plain memo read.

    The benchmark times 1000 repeat accesses on an already-hashed block; if
    memoization regressed to recomputation this would be ~1000x slower and
    trip the pytest-benchmark history comparison immediately.
    """
    block = _sample_block()
    first = block.digest  # prime the memo (and every transaction's)

    def run():
        total = 0
        for _ in range(1000):
            total += len(block.digest)
        return total

    assert benchmark(run) == 1000 * len(first)


def test_digest_fresh_block_rate(benchmark):
    """Cold digests: hash a fresh 64-transaction block and all its txs."""

    def run():
        block = _sample_block()
        for tx in block.transactions:
            _ = tx.digest
        return len(block.digest)

    assert benchmark(run) == 64


def test_codec_pre_prepare_round_trip(benchmark):
    """Envelope round trip of a 64-tx pre-prepare (the hot frame).

    Asserts the structural contract inline — the frame decodes to the
    message that was encoded, field for field — while the timing tracks the
    path live clusters run.
    """
    from repro.sb.pbft.messages import PrePrepare

    block = _sample_block()
    message = PrePrepare(
        instance=0,
        view=0,
        sender=0,
        sequence_number=5,
        block=block,
        digest=block.digest,
    )
    decoded = decode_envelope(encode_envelope(1, message))[1]
    assert encode_payload(decoded) == encode_payload(message)

    def run():
        sender, decoded = decode_envelope(encode_envelope(1, message))
        return sender

    assert benchmark(run) == 1


def test_ladon_release_below_bar_at_10k_pending(benchmark):
    """The straggler shape at scale: 10k waiting blocks, then release."""
    waiting, releasers = _straggler_blocks(num_instances=16, pending=10_000)

    def run():
        orderer = LadonGlobalOrderer(16)
        for block in waiting:
            orderer.on_deliver(block)
        assert orderer.ordered_count == 0  # the bar has not moved yet
        for block in releasers:
            orderer.on_deliver(block)
        return orderer.ordered_count

    # All but the final round's own high-rank tail must have been released.
    assert benchmark(run) >= len(waiting) * 0.99


def test_orthrus_core_block_processing_rate(benchmark):
    config = CoreConfig(num_instances=8, batch_size=32, epoch_length=10_000)
    store = StateStore()
    accounts = {f"acct-{i:04d}": 1_000_000 for i in range(512)}
    store.load_accounts(accounts)
    core = OrthrusCore(config, store)
    # Group accounts by the instance their key hashes to so every block's
    # transactions exercise real escrows on the partial path.
    accounts_by_instance = {i: [] for i in range(8)}
    for key in accounts:
        accounts_by_instance[core.partitioner.assign_object(key)].append(key)
    blocks = []
    sns = [0] * 8
    for round_index in range(40):
        for instance in range(8):
            payers = accounts_by_instance[instance]
            txs = [
                simple_transfer(
                    payers[(round_index * 16 + k) % len(payers)],
                    f"acct-{(round_index * 8 + instance + k + 7) % 512:04d}",
                    1,
                    tx_id=f"b{instance}-{round_index}-{k}",
                )
                for k in range(16)
            ]
            blocks.append(
                Block.create(
                    instance=instance,
                    sequence_number=sns[instance],
                    transactions=txs,
                    state=SystemState.initial(8),
                    proposer=instance,
                    rank=core.next_rank(),
                )
            )
            sns[instance] += 1

    def run():
        replica = OrthrusCore(config, StateStore())
        replica.store.load_accounts(accounts)
        confirmed = 0
        for block in blocks:
            confirmed += len(replica.on_block_delivered(block))
        return confirmed

    assert benchmark(run) >= 0
