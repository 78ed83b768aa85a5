"""Scale-path units of :mod:`repro.runtime.cluster` and UDS integration.

Batch port reservation, endpoint selection for both transports, event-driven
exit supervision, and an in-process cluster over Unix domain sockets — the
pieces the 100-replica benchmark leans on, tested at unit scale.
"""

from __future__ import annotations

import asyncio
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.ledger.transactions import reset_transaction_counter
from repro.runtime.client import ClientConfig, OrthrusClient
from repro.runtime.cluster import ClusterSpec, LocalCluster, reserve_free_ports
from repro.runtime.config import ReplicaRuntimeConfig, is_uds_endpoint
from repro.runtime.server import ReplicaServer
from repro.workload.config import WorkloadConfig


class TestReserveFreePorts:
    def test_ports_are_distinct_and_held(self):
        sockets = reserve_free_ports(20)
        try:
            ports = [probe.getsockname()[1] for probe in sockets]
            assert len(set(ports)) == 20
            # Held reservations really occupy the port: a plain bind fails.
            with socket.socket() as clash:
                with pytest.raises(OSError):
                    clash.bind(("127.0.0.1", ports[0]))
        finally:
            for probe in sockets:
                probe.close()

    def test_zero_ports(self):
        assert reserve_free_ports(0) == []


class TestClusterSpecValidation:
    def test_rejects_unknown_transport(self):
        with pytest.raises(ExperimentError, match="transport"):
            ClusterSpec(num_replicas=4, transport="carrier-pigeon")

    def test_rejects_negative_workers(self):
        with pytest.raises(ExperimentError, match="workers"):
            ClusterSpec(num_replicas=4, workers=-1)

    def test_uds_spec_is_valid(self):
        spec = ClusterSpec(num_replicas=4, transport="uds", workers=2)
        assert spec.transport == "uds"
        assert spec.workers == 2


class TestEndpointSelection:
    def test_uds_endpoints_live_in_one_private_directory(self):
        cluster = LocalCluster(ClusterSpec(num_replicas=6, transport="uds"))
        try:
            assert len(cluster.endpoints) == 6
            assert all(is_uds_endpoint(e) for e in cluster.endpoints)
            paths = [Path(host[len("unix:") :]) for host, _ in cluster.endpoints]
            assert len({p.parent for p in paths}) == 1
            assert len(set(paths)) == 6
        finally:
            cluster.stop()

    def test_stop_removes_the_socket_directory(self):
        cluster = LocalCluster(ClusterSpec(num_replicas=4, transport="uds"))
        directory = Path(cluster.endpoints[0][0][len("unix:") :]).parent
        assert directory.is_dir()
        cluster.stop()
        assert not directory.exists()

    def test_tcp_endpoints_are_batch_reserved_and_distinct(self):
        cluster = LocalCluster(ClusterSpec(num_replicas=8))
        try:
            ports = [port for _, port in cluster.endpoints]
            assert len(set(ports)) == 8
            assert all(port > 0 for port in ports)
        finally:
            cluster.stop()

    def test_serve_command_carries_workers_and_uds_peers(self):
        cluster = LocalCluster(
            ClusterSpec(num_replicas=4, transport="uds", workers=2)
        )
        try:
            command = cluster.serve_command(0)
            assert "--workers" in command
            assert command[command.index("--workers") + 1] == "2"
            peers = command[command.index("--peers") + 1]
            assert peers.count("unix:") == 4
        finally:
            cluster.stop()

    def test_serve_command_omits_workers_when_inline(self):
        cluster = LocalCluster(ClusterSpec(num_replicas=4))
        try:
            assert "--workers" not in cluster.serve_command(0)
        finally:
            cluster.stop()


class TestExitSupervision:
    def _cluster_with_fake_children(self, commands):
        cluster = LocalCluster(ClusterSpec(num_replicas=4))
        for replica_id, argv in enumerate(commands):
            process = subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
            )
            cluster.processes.append(process)
            cluster._watch(replica_id, process)
        return cluster

    def test_wait_for_exit_wakes_on_a_death(self):
        sleep_long = [sys.executable, "-c", "import time; time.sleep(30)"]
        exit_now = [sys.executable, "-c", "raise SystemExit(1)"]
        cluster = self._cluster_with_fake_children(
            [sleep_long, exit_now, sleep_long, sleep_long]
        )
        try:
            assert cluster.wait_for_exit(timeout=10.0) == [1]
        finally:
            cluster.stop()

    def test_check_is_empty_while_all_children_live(self):
        sleep_long = [sys.executable, "-c", "import time; time.sleep(30)"]
        cluster = self._cluster_with_fake_children([sleep_long] * 4)
        try:
            assert cluster.check() == []
        finally:
            cluster.stop()

    def test_stop_clears_exit_state(self):
        exit_now = [sys.executable, "-c", "raise SystemExit(0)"]
        cluster = self._cluster_with_fake_children([exit_now] * 4)
        cluster.wait_for_exit(timeout=10.0)
        cluster.stop()
        assert cluster.check() == []
        assert cluster.processes == []


@pytest.fixture(autouse=True)
def _fresh_tx_ids():
    reset_transaction_counter()


def test_in_process_cluster_over_unix_domain_sockets():
    """Four replicas on UDS endpoints: commits, agreement, super-frames."""
    workload = WorkloadConfig(num_accounts=128, seed=5)

    async def scenario(socket_dir: str):
        peers = tuple(
            (f"unix:{socket_dir}/replica-{i}.sock", 0) for i in range(4)
        )
        servers = []
        for replica_id in range(4):
            server = ReplicaServer(
                ReplicaRuntimeConfig(
                    replica_id=replica_id,
                    peers=peers,
                    num_instances=2,
                    batch_size=32,
                    batch_interval=0.02,
                    workload=workload,
                )
            )
            await server.start()
            servers.append(server)
        try:
            from repro.workload.generator import EthereumStyleWorkload

            generator = EthereumStyleWorkload(workload)
            async with OrthrusClient(
                list(peers), ClientConfig(timeout=5.0)
            ) as client:
                futures = [
                    client.submit_nowait(generator.next_transaction())
                    for _ in range(40)
                ]
                results = await asyncio.gather(*futures)
                assert all(result.committed for result in results)
                for _ in range(50):
                    statuses = await client.cluster_status()
                    if len({s.state_digest for s in statuses}) == 1 and all(
                        s.committed >= 40 for s in statuses
                    ):
                        break
                    await asyncio.sleep(0.1)
                assert len({s.state_digest for s in statuses}) == 1
            # The burst of 40 requests and the batched replies must have
            # coalesced into super-frames.
            assert sum(s.transport.super_frames_sent for s in servers) > 0
        finally:
            for server in servers:
                server.stop()
                await server._shutdown()

    with tempfile.TemporaryDirectory(prefix="repro-uds-test-") as socket_dir:
        asyncio.run(scenario(socket_dir))
