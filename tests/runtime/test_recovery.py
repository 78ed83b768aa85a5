"""Crash-recovery battery: kill a durable replica, restart it, rejoin fully.

Four in-process :class:`ReplicaServer` instances run on one event loop over
real localhost TCP, each with a run directory (WAL + snapshots).  A replica
is killed at the battery's crash points — mid-epoch, mid-view-change, and
with a torn WAL tail (the gap between the last fsync and the crash) — then
restarted on the same endpoint and run directory.  The acceptance contract:

* the recovered replica converges to the *exact* state digest of the
  survivors (snapshot + WAL replay + peer state transfer), and
* it rejoins as a **full** participant.  In the no-view-change scenarios
  instance 0 still belongs to the recovered replica in view 0, so instance 0
  advancing past its pre-crash frontier proves the recovered replica *led*
  proposals again — backed up by its ``consensus.blocks_proposed`` counter,
  which starts at zero in the restarted process.

The amount of load landed before each kill is randomised (seeded) so the
crash points wander across epoch boundaries from run to run without losing
reproducibility.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import replace

import pytest

from repro.cli import _build_parser, _serve_config
from repro.errors import ConfigurationError, ExperimentError
from repro.ledger.transactions import reset_transaction_counter
from repro.runtime.client import ClientConfig, ClientError, OrthrusClient
from repro.runtime.cluster import ClusterSpec, LocalCluster, free_port
from repro.runtime.config import ReplicaRuntimeConfig
from repro.runtime.durability import ReplicaDurability
from repro.runtime.server import ReplicaServer
from repro.runtime.wal import WAL_FILE_NAME
from repro.sb.pbft.slots import DELIVERED_WINDOW
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload

NUM_REPLICAS = 4
WORKLOAD = WorkloadConfig(num_accounts=128, seed=9, payment_fraction=1.0)

#: Randomised-but-reproducible crash points: how much load lands before each
#: kill, so crashes wander relative to epoch boundaries across runs.
CRASH_POINTS = random.Random(0x5EED)


@pytest.fixture(autouse=True)
def _fresh_tx_ids():
    reset_transaction_counter()


def cluster_configs(tmp_path, *, epoch_length=8, view_change_timeout=5.0):
    peers = tuple(("127.0.0.1", free_port()) for _ in range(NUM_REPLICAS))
    return [
        ReplicaRuntimeConfig(
            replica_id=replica_id,
            peers=peers,
            num_instances=2,
            batch_size=16,
            batch_interval=0.02,
            epoch_length=epoch_length,
            view_change_timeout=view_change_timeout,
            workload=WORKLOAD,
            run_dir=str(tmp_path / f"replica-{replica_id}"),
        )
        for replica_id in range(NUM_REPLICAS)
    ]


async def start_server(config: ReplicaRuntimeConfig) -> ReplicaServer:
    server = ReplicaServer(config)
    await server.start()
    return server


async def stop_servers(servers) -> None:
    for server in servers:
        if server is None:
            continue
        server.stop()
        await server._shutdown()


async def crash_server(server: ReplicaServer) -> None:
    """Abrupt in-process crash: no goodbye, sockets just go away."""
    server.replica.crash()
    await server._shutdown()


async def submit_all(client, workload, count):
    futures = [client.submit_nowait(workload.next_transaction()) for _ in range(count)]
    return await asyncio.gather(*futures, return_exceptions=True)


async def settled_statuses(client, *, minimum_committed, attempts=120):
    """Poll until all four replicas agree on one digest at the watermark.

    The watermark is checked against the *highest* committed counter: a
    restarted replica reaches the common digest through state transfer,
    which does not replay outcomes through its metrics, so its own counter
    only covers post-restart traffic.
    """
    statuses = await client.cluster_status()
    for _ in range(attempts):
        statuses = await client.cluster_status()
        digests = {s.state_digest for s in statuses}
        if (
            len(statuses) == NUM_REPLICAS
            and len(digests) == 1
            and max(s.committed for s in statuses) >= minimum_committed
        ):
            break
        await asyncio.sleep(0.1)
    return statuses


def assert_no_failures(results):
    failures = [r for r in results if isinstance(r, (ClientError, Exception))]
    assert not failures, f"submissions failed: {failures[:3]}"
    assert all(r.committed for r in results)


def test_crash_mid_epoch_recovers_from_wal_and_leads_again(tmp_path):
    """Kill mid-epoch, restart inside the failure-detector window.

    No view change fires, so instance 0 still belongs to the recovered
    replica in view 0 — every instance-0 block committed after the restart
    was proposed by the replica that just recovered.
    """
    pre_crash = 24 + CRASH_POINTS.randrange(16)

    async def scenario():
        configs = cluster_configs(tmp_path, view_change_timeout=5.0)
        servers = [await start_server(config) for config in configs]
        workload = EthereumStyleWorkload(WORKLOAD)
        try:
            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(timeout=3.0, retries=5)
            ) as client:
                assert_no_failures(await submit_all(client, workload, pre_crash))
                frontier_before = max(
                    s.delivered_frontier[0] for s in await client.cluster_status()
                )

                await crash_server(servers[0])
                servers[0] = None
                restarted = await start_server(configs[0])
                servers[0] = restarted

                # Local recovery really happened: the restarted core is past
                # genesis before any new client traffic arrives.
                assert restarted.recovery_seconds > 0.0
                recovered_frontier = (
                    restarted.replica.core.delivered_state().sequence_numbers
                )
                assert any(sequence >= 0 for sequence in recovered_frontier)

            # Clients do not reconnect: the first client's socket to
            # replica 0 died with the crash, so post-restart traffic (which
            # must reach the recovered leader) needs a fresh client.
            async with OrthrusClient(
                list(configs[0].peers),
                ClientConfig(client_id=1500, timeout=3.0, retries=5),
            ) as client:
                assert_no_failures(await submit_all(client, workload, 40))

            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(client_id=2000, timeout=3.0)
            ) as probe:
                statuses = await settled_statuses(
                    probe, minimum_committed=pre_crash + 40
                )
                assert {s.replica for s in statuses} == {0, 1, 2, 3}
                assert len({s.state_digest for s in statuses}) == 1
                # Nothing ever rotated a leader out...
                assert all(s.view_changes == 0 for s in statuses)
                # ...so only the recovered replica can have advanced
                # instance 0 past its pre-crash frontier.
                assert all(
                    s.delivered_frontier[0] > frontier_before for s in statuses
                )
            snapshot = restarted.registry.snapshot()
            assert snapshot["consensus.blocks_proposed"] > 0
            assert snapshot["durability.recovery_seconds"] > 0
            assert snapshot["durability.wal_bytes"] > 0
        finally:
            await stop_servers(servers)

    asyncio.run(asyncio.wait_for(scenario(), timeout=120))


def test_crash_through_view_change_rejoins_with_installed_views(tmp_path):
    """Kill a leader long enough for a view change, then bring it back.

    The recovered replica must learn the views installed while it was down
    (carried in the recovery replies) and still converge to the survivors'
    digest as a voting participant.
    """
    pre_crash = 16 + CRASH_POINTS.randrange(16)

    async def scenario():
        configs = cluster_configs(tmp_path, view_change_timeout=1.0)
        servers = [await start_server(config) for config in configs]
        workload = EthereumStyleWorkload(WORKLOAD)
        try:
            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(timeout=3.0, retries=5)
            ) as client:
                assert_no_failures(await submit_all(client, workload, pre_crash))

                await crash_server(servers[0])
                servers[0] = None
                # Survivors commit through the view change while 0 is down.
                assert_no_failures(await submit_all(client, workload, 40))

                restarted = await start_server(configs[0])
                servers[0] = restarted
                assert restarted.replica.endpoints[0].view >= 1
                assert_no_failures(await submit_all(client, workload, 24))

            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(client_id=2000, timeout=3.0)
            ) as probe:
                statuses = await settled_statuses(
                    probe, minimum_committed=pre_crash + 64
                )
                assert {s.replica for s in statuses} == {0, 1, 2, 3}
                assert len({s.state_digest for s in statuses}) == 1
                # Survivors ran the view-change protocol; the restarted
                # replica *adopted* the result (fast-forward, asserted on its
                # endpoint above), so its own protocol counter stays 0.
                assert all(
                    s.view_changes >= 1 for s in statuses if s.replica != 0
                )
        finally:
            await stop_servers(servers)

    asyncio.run(asyncio.wait_for(scenario(), timeout=120))


def test_torn_wal_tail_is_recovered_through_state_transfer(tmp_path):
    """Crash between the last fsync and the kill: the WAL loses its tail.

    The torn record must be dropped silently and the lost blocks re-fetched
    from peers, landing on the survivors' exact digest anyway.
    """
    pre_crash = 24 + CRASH_POINTS.randrange(16)

    async def scenario():
        configs = cluster_configs(tmp_path, view_change_timeout=5.0)
        servers = [await start_server(config) for config in configs]
        workload = EthereumStyleWorkload(WORKLOAD)
        try:
            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(timeout=3.0, retries=5)
            ) as client:
                assert_no_failures(await submit_all(client, workload, pre_crash))

                await crash_server(servers[0])
                servers[0] = None
                # Simulate the un-fsynced tail: chop into the last record.
                wal_path = tmp_path / "replica-0" / WAL_FILE_NAME
                torn = wal_path.read_bytes()[:-17]
                wal_path.write_bytes(torn)

                restarted = await start_server(configs[0])
                servers[0] = restarted
                assert restarted.recovery_seconds > 0.0

            async with OrthrusClient(
                list(configs[0].peers),
                ClientConfig(client_id=1500, timeout=3.0, retries=5),
            ) as client:
                assert_no_failures(await submit_all(client, workload, 24))

            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(client_id=2000, timeout=3.0)
            ) as probe:
                statuses = await settled_statuses(
                    probe, minimum_committed=pre_crash + 24
                )
                assert {s.replica for s in statuses} == {0, 1, 2, 3}
                assert len({s.state_digest for s in statuses}) == 1
        finally:
            await stop_servers(servers)

    asyncio.run(asyncio.wait_for(scenario(), timeout=120))


def test_genesis_recovery_wipes_durable_state_and_rejoins_via_peers(tmp_path):
    """``recovery="genesis"`` must ignore (and delete) local durable state.

    The WAL is overwritten with garbage before the restart: a snapshot-mode
    restart would have to tolerate it record by record, but genesis mode
    discards the directory outright and rebuilds purely from state transfer.
    """
    pre_crash = 24 + CRASH_POINTS.randrange(16)

    async def scenario():
        configs = cluster_configs(tmp_path, view_change_timeout=5.0)
        servers = [await start_server(config) for config in configs]
        workload = EthereumStyleWorkload(WORKLOAD)
        try:
            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(timeout=3.0, retries=5)
            ) as client:
                assert_no_failures(await submit_all(client, workload, pre_crash))

                await crash_server(servers[0])
                servers[0] = None
                wal_path = tmp_path / "replica-0" / WAL_FILE_NAME
                wal_path.write_bytes(b"not a wal\n" * 64)

                restarted = await start_server(
                    replace(configs[0], recovery="genesis")
                )
                servers[0] = restarted
                assert restarted.recovery_seconds > 0.0

            async with OrthrusClient(
                list(configs[0].peers),
                ClientConfig(client_id=1500, timeout=3.0, retries=5),
            ) as client:
                assert_no_failures(await submit_all(client, workload, 24))

            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(client_id=2000, timeout=3.0)
            ) as probe:
                statuses = await settled_statuses(
                    probe, minimum_committed=pre_crash + 24
                )
                assert {s.replica for s in statuses} == {0, 1, 2, 3}
                assert len({s.state_digest for s in statuses}) == 1
        finally:
            await stop_servers(servers)

    asyncio.run(asyncio.wait_for(scenario(), timeout=120))


def test_history_is_served_from_the_wal_once_memory_has_let_go_of_it(tmp_path):
    """A replica keeps a delivered block in memory until it has executed it
    (partial log) and for a short window past delivery (PBFT slots), never
    as history.  A wiped replica must still be rebuilt by its peers, and a
    WAL replay must still land on the live digest: both read the WAL.

    No epoch ever completes here (the live default), so there is no snapshot
    to lean on: every block comes back as a block.
    """

    async def scenario():
        configs = cluster_configs(tmp_path, epoch_length=1_000_000)
        servers = [await start_server(config) for config in configs]
        workload = EthereumStyleWorkload(WORKLOAD)
        try:
            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(timeout=3.0, retries=5)
            ) as client:
                # Small waves, one after the other: many blocks per instance.
                committed = 0
                while min(servers[1].status().delivered_frontier) < 3 * DELIVERED_WINDOW:
                    assert_no_failures(await submit_all(client, workload, 6))
                    committed += 6
                await settled_statuses(client, minimum_committed=committed)

                survivor = servers[1]
                frontier = survivor.status().delivered_frontier
                for endpoint in survivor.replica.endpoints.values():
                    assert 0 not in endpoint.slots
                    assert len(endpoint.slots) <= 2 * DELIVERED_WINDOW
                assert all(len(plog) == 0 for plog in survivor.replica.core.plogs)
                # ... and yet the whole history is there to hand over.
                history = survivor.durability.wal_blocks_above([-1] * len(frontier))
                assert len(history) == sum(sequence + 1 for sequence in frontier)
                assert {block.sequence_number for block in history[:2]} == {0}

                await crash_server(servers[3])
                servers[3] = None
                restarted = await start_server(
                    replace(configs[3], recovery="genesis")
                )
                servers[3] = restarted

            async with OrthrusClient(
                list(configs[0].peers), ClientConfig(client_id=2000, timeout=3.0)
            ) as probe:
                statuses = await settled_statuses(probe, minimum_committed=committed)
                assert {s.replica for s in statuses} == {0, 1, 2, 3}
                assert len({s.state_digest for s in statuses}) == 1
                assert restarted.status().delivered_frontier == frontier
                live_digest = statuses[0].state_digest
        finally:
            await stop_servers(servers)
        return configs[1], live_digest

    config, live_digest = asyncio.run(asyncio.wait_for(scenario(), timeout=120))
    durability = ReplicaDurability(config.run_dir)
    try:
        core, _ = durability.recover(config.build_core(), config.build_core)
    finally:
        durability.close()
    assert core.store.state_digest() == live_digest
    assert all(len(plog) == 0 for plog in core.plogs)


def test_churn_cycles_return_full_strength_after_each(tmp_path):
    """Two crash/restart cycles on different replicas, back to back.

    After *each* cycle the cluster must be back at full strength: all four
    replicas answering, one digest, commits advancing.
    """

    async def scenario():
        configs = cluster_configs(tmp_path, view_change_timeout=5.0)
        servers = [await start_server(config) for config in configs]
        workload = EthereumStyleWorkload(WORKLOAD)
        committed = 0
        try:
            for cycle, victim in enumerate((0, 2)):
                # One client per phase: a client whose socket to the victim
                # died with the crash never reconnects, so each cycle's
                # post-restart traffic needs a connection set that includes
                # the recovered replica.
                async with OrthrusClient(
                    list(configs[0].peers),
                    ClientConfig(client_id=1000 + cycle, timeout=3.0, retries=5),
                ) as client:
                    assert_no_failures(await submit_all(client, workload, 20))
                    committed += 20
                    await crash_server(servers[victim])
                    servers[victim] = None
                    servers[victim] = await start_server(configs[victim])
                    assert servers[victim].recovery_seconds > 0.0
                async with OrthrusClient(
                    list(configs[0].peers),
                    ClientConfig(client_id=2000 + cycle, timeout=3.0, retries=5),
                ) as probe:
                    assert_no_failures(await submit_all(probe, workload, 20))
                    committed += 20
                    statuses = await settled_statuses(
                        probe, minimum_committed=committed
                    )
                    assert {s.replica for s in statuses} == {0, 1, 2, 3}
                    assert len({s.state_digest for s in statuses}) == 1
        finally:
            await stop_servers(servers)

    asyncio.run(asyncio.wait_for(scenario(), timeout=180))


# -- configuration plumbing ---------------------------------------------------


def test_recovery_mode_is_validated():
    peers = tuple(("127.0.0.1", 9200 + index) for index in range(4))
    with pytest.raises(ConfigurationError):
        ReplicaRuntimeConfig(replica_id=0, peers=peers, recovery="bogus")
    with pytest.raises(ConfigurationError):
        ReplicaRuntimeConfig(replica_id=0, peers=peers, snapshot_every_epochs=0)


def test_restart_replica_rejects_unknown_recovery_mode():
    cluster = LocalCluster(ClusterSpec())
    try:
        with pytest.raises(ExperimentError):
            cluster.restart_replica(0, recovery="bogus")
    finally:
        cluster.stop()


def served_config(command: list[str]) -> ReplicaRuntimeConfig:
    """The config ``repro serve`` builds from a ``serve_command`` argv."""
    return _serve_config(_build_parser().parse_args(command[3:]))


def test_serve_command_carries_durability_flags(tmp_path):
    spec = ClusterSpec(
        durability=True,
        epoch_length=16,
        snapshot_every_epochs=2,
        run_dir=str(tmp_path),
    )
    cluster = LocalCluster(spec)
    try:
        config = served_config(cluster.serve_command(0, recovery="genesis"))
        assert config.run_dir == str(tmp_path / "replica-0")
        assert config.epoch_length == 16
        assert config.recovery == "genesis"
        assert config.snapshot_every_epochs == 2
        # Snapshot recovery is the default.
        assert served_config(cluster.serve_command(0)).recovery == "snapshot"
    finally:
        cluster.stop()


def test_state_transfer_refuses_gapped_block_batches(tmp_path):
    """A compacted peer WAL can under-serve: when the peer's snapshot was
    not adoptable, the block batch may skip sequences below the peer's own
    WAL floor.  Executing across such a hole silently diverges the state
    machine, so the transfer must stop at the gap (and resume once a later
    reply fills it in) rather than apply whatever decodes."""
    from types import SimpleNamespace

    from repro.ledger.blocks import Block
    from repro.runtime.codec import _encode_block
    from repro.runtime.control import RecoveryReply

    config = cluster_configs(tmp_path)[0]
    core = config.build_core()
    blocks = []
    for sequence in range(4):
        blocks.append(
            Block.create(
                instance=0,
                sequence_number=sequence,
                transactions=[],
                state=core.delivered_state(),
                proposer=0,
                epoch=0,
                rank=core.next_rank() if core.uses_ranks else None,
            )
        )
        if sequence < 2:
            core.on_block_delivered(blocks[-1])

    server = ReplicaServer(config)
    server.replica = SimpleNamespace(core=core)

    def reply(*sequences):
        return RecoveryReply(
            nonce=1,
            replica=1,
            blocks=tuple(_encode_block(blocks[s]) for s in sequences),
        )

    # Sequences 0 and 1 are already delivered; 3 would leave a hole at 2.
    assert server._apply_recovery_reply(reply(0, 1, 3)) == 0
    assert list(core.delivered_state().sequence_numbers)[0] == 1
    # A later batch that fills the hole applies contiguously to the tip.
    assert server._apply_recovery_reply(reply(2, 3)) == 2
    assert list(core.delivered_state().sequence_numbers)[0] == 3
