"""A live replica's heap follows what is in flight, not what it has committed.

Four :class:`ReplicaServer` instances on one event loop (the hosting of
``benchmarks/e2e/live.py``) commit ``N`` transactions, settle, are measured,
then commit ``2N`` more and are measured again.  Every per-transaction
structure the replica path owns, and the collector-tracked object count of the
whole process, must read the same after ``3N`` as after ``N``: whatever is
sized by the traffic already committed shows up as a difference that grows
with ``N``.
"""

from __future__ import annotations

import asyncio
import gc

import pytest

from repro.core.buckets import _COMPACT_MIN
from repro.ledger.transactions import reset_transaction_counter
from repro.runtime.client import ClientConfig, OrthrusClient
from repro.runtime.cluster import free_port
from repro.runtime.config import ReplicaRuntimeConfig
from repro.runtime.server import ReplicaServer
from repro.sb.pbft.slots import DELIVERED_WINDOW
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload

NUM_REPLICAS = 4
NUM_INSTANCES = 2
N = 600
CONCURRENCY = 32
#: Half payments (partial path), half contract calls (held for global order).
WORKLOAD = WorkloadConfig(num_accounts=128, seed=9, payment_fraction=0.5)
#: The reply cache is bounded by a count of its own (50 000 in production);
#: shrunk here so that it is full before the first measurement.
REPLY_CACHE_LIMIT = 64
#: A purged bucket entry stays in its deque until the next compaction, at most
#: ``_COMPACT_MIN + 1`` of them per bucket once nothing is queued: that many
#: transactions, of up to three operations each, may be alive at either
#: measurement and not at the other.
GHOST_OBJECTS = NUM_REPLICAS * NUM_INSTANCES * (_COMPACT_MIN + 1) * 4


@pytest.fixture(autouse=True)
def _fresh_tx_ids():
    reset_transaction_counter()


def retained(server: ReplicaServer) -> dict[str, int]:
    """``len()`` of every per-transaction or per-block structure of one
    replica that must not outlive the work it tracks."""
    replica = server.replica
    core = replica.core
    sizes = {
        "timelines": len(server.metrics.latency),
        "client_of_tx": len(replica._client_of_tx),
        "sb_delivered_at": len(replica._sb_delivered_at),
        "pending_assignments": len(core._pending_assignments),
        "orderer_pending": core.global_orderer.pending_count(),
        "orderer_arrivals": len(core.global_orderer._arrival_tick),
    }
    for instance, endpoint in replica.endpoints.items():
        sizes[f"slots[{instance}]"] = len(endpoint.slots)
    for plog in core.plogs:
        sizes[f"plog[{plog.instance}]"] = len(plog)
    for bucket in core.buckets:
        sizes[f"bucket[{bucket.instance}].in_flight"] = len(bucket._in_flight)
        sizes[f"bucket[{bucket.instance}].queued"] = len(bucket)
        sizes[f"bucket[{bucket.instance}].physical"] = len(bucket._queue)
    return sizes


async def commit(client: OrthrusClient, workload: EthereumStyleWorkload, count: int):
    """A closed loop of ``CONCURRENCY`` logical clients committing ``count``."""
    remaining = count

    async def logical_client() -> None:
        nonlocal remaining
        while remaining > 0:
            remaining -= 1
            result = await client.submit_nowait(workload.next_transaction())
            assert result.committed

    await asyncio.gather(*(logical_client() for _ in range(CONCURRENCY)))


async def settle(servers: list[ReplicaServer], committed: int) -> None:
    """Until every replica executed ``committed`` transactions, agrees on the
    state and has nothing left waiting for global order."""
    for _ in range(200):
        statuses = [server.status() for server in servers]
        if (
            all(status.committed >= committed for status in statuses)
            and len({status.state_digest for status in statuses}) == 1
            and all(
                server.replica.core.global_orderer.pending_count() == 0
                for server in servers
            )
        ):
            return
        await asyncio.sleep(0.05)
    raise AssertionError("cluster did not settle")


def tracked_objects() -> tuple[int, int]:
    """Collector-tracked objects in the process: all of them, and those of
    the program's own classes (transactions, operations, blocks, slots,
    timelines, messages, ...).  Timers are left out of the second count: a
    cancelled failure-detector timer stays in the event loop's heap until its
    deadline, which bounds them by time, not by traffic."""
    gc.collect()
    objects = gc.get_objects()
    own = sum(
        1
        for obj in objects
        if type(obj).__module__.startswith("repro.")
        and type(obj).__name__ != "LiveTimer"
    )
    return len(objects), own


def test_retained_state_is_bounded_by_in_flight_work_not_by_history():
    async def scenario():
        peers = tuple(("127.0.0.1", free_port()) for _ in range(NUM_REPLICAS))
        servers = []
        for replica_id in range(NUM_REPLICAS):
            server = ReplicaServer(
                ReplicaRuntimeConfig(
                    replica_id=replica_id,
                    peers=peers,
                    num_instances=NUM_INSTANCES,
                    batch_size=32,
                    batch_interval=0.01,
                    workload=WORKLOAD,
                )
            )
            await server.start()
            server.replica.reply_cache_limit = REPLY_CACHE_LIMIT
            servers.append(server)
        workload = EthereumStyleWorkload(WORKLOAD)
        measurements = []
        try:
            async with OrthrusClient(
                list(peers),
                ClientConfig(timeout=10.0, route_instances=NUM_INSTANCES),
            ) as client:
                for total, batch in ((N, N), (3 * N, 2 * N)):
                    await commit(client, workload, batch)
                    await settle(servers, total)
                    measurements.append(
                        ([retained(server) for server in servers], tracked_objects())
                    )
        finally:
            for server in servers:
                server.stop()
                await server._shutdown()
        return measurements

    (sizes_n, (objects_n, own_n)), (sizes_3n, (objects_3n, own_3n)) = asyncio.run(
        scenario()
    )

    for sizes in sizes_3n:
        # Settled: nothing is in flight, so nothing per-transaction is held.
        for name in ("timelines", "client_of_tx", "pending_assignments"):
            assert sizes[name] == 0, (name, sizes)
        for name, size in sizes.items():
            if name.startswith("slots["):
                # The trailing window, plus no-op slots still in agreement.
                assert size <= 2 * DELIVERED_WINDOW, (name, sizes)
            elif name.startswith(("plog[", "bucket[")) and "physical" not in name:
                assert size == 0, (name, sizes)
    # Nothing grew with the 2N transactions in between: the only per-block
    # leftovers (an idle leader's no-op slots, purged queue entries awaiting
    # compaction) are bounded by constants, not by N.
    slack = max(2 * DELIVERED_WINDOW, _COMPACT_MIN + 1)
    for before, after in zip(sizes_n, sizes_3n):
        for name in before:
            assert after[name] <= before[name] + slack, (name, before, after)
    # The 2N transactions in between left none of the program's own objects
    # behind (before this held, 20 per transaction: 5 Transaction, 10
    # ObjectOperation, 4 TransactionTimeline, 4 TxOutcome, and a Block, a
    # Slot and a SystemState per block and replica) ...
    assert own_3n - own_n < GHOST_OBJECTS, (own_n, own_3n)
    # ... and of the 52 tracked objects per transaction overall (their dicts,
    # tuples and lists on top), what remains is the event loop's timers.
    assert objects_3n - objects_n < 5 * 2 * N, (objects_n, objects_3n)
