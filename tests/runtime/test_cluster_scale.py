"""Scale-path units of :mod:`repro.runtime.cluster` and UDS integration.

Batch port reservation, endpoint selection for both transports, event-driven
exit supervision, and an in-process cluster over Unix domain sockets — the
pieces the 100-replica benchmark leans on, tested at unit scale.
"""

from __future__ import annotations

import asyncio
import json
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import _build_parser, _serve_config, main
from repro.cluster.faults import FaultPlan
from repro.errors import ConfigurationError, ExperimentError
from repro.ledger.transactions import reset_transaction_counter
from repro.runtime.client import ClientConfig, OrthrusClient
from repro.runtime.cluster import ClusterSpec, LocalCluster, reserve_free_ports
from repro.runtime.config import ReplicaRuntimeConfig, is_uds_endpoint
from repro.runtime.server import ReplicaServer
from repro.workload.config import WorkloadConfig


def served_config(command: list[str]) -> ReplicaRuntimeConfig:
    """The config ``repro serve`` builds from a ``serve_command`` argv."""
    assert command[1:4] == ["-m", "repro.cli", "serve"]
    return _serve_config(_build_parser().parse_args(command[3:]))


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
        with pytest.raises(ConfigurationError, match="workers"):
            ClusterSpec(num_replicas=4, workers=-1)

    def test_rejects_a_bad_replica_setting_at_construction(self):
        with pytest.raises(ConfigurationError, match="batch_interval"):
            ClusterSpec(batch_interval=0)

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
            config = served_config(cluster.serve_command(0))
            assert config.workers == 2
            assert config.peers == cluster.endpoints
            assert all(is_uds_endpoint(peer) for peer in config.peers)
        finally:
            cluster.stop()

    def test_serve_command_omits_workers_when_inline(self):
        cluster = LocalCluster(ClusterSpec(num_replicas=4))
        try:
            assert served_config(cluster.serve_command(0)).workers == 0
        finally:
            cluster.stop()


def _every_field_changed(run_dir: str, *, obs_enabled: bool) -> ClusterSpec:
    """A spec with every field off its default (``obs_enabled`` as given)."""
    delays = [[0.0 if i == j else 0.01 * (i + j) for j in range(5)] for i in range(5)]
    return ClusterSpec(
        protocol="orthrus-dep",
        num_instances=3,
        batch_size=17,
        batch_interval=0.03,
        epoch_length=16,
        view_change_timeout=3.5,
        workload=WorkloadConfig(
            num_accounts=64,
            initial_balance=7,
            num_shared_objects=3,
            zipf_exponent=1.3,
            seed=5,
        ),
        workers=1,
        obs_enabled=obs_enabled,
        metrics_interval=0.5,
        log_level="debug",
        log_format="json",
        snapshot_every_epochs=3,
        num_replicas=5,
        host="localhost",
        base_port=7700,
        faults=FaultPlan(stragglers={1: 10.0}, wan=delays, undetectable_faults=1),
        transport="uds",
        run_dir=run_dir,
        durability=True,
        trace_sample=0.5,
    )


class TestServeConfig:
    @pytest.mark.parametrize("obs_enabled", [False, True])
    @pytest.mark.parametrize("recovery", ["snapshot", "genesis"])
    def test_the_child_serves_exactly_the_supervisors_config(
        self, tmp_path, obs_enabled, recovery
    ):
        cluster = LocalCluster(_every_field_changed(str(tmp_path), obs_enabled=obs_enabled))
        try:
            for replica_id in range(5):
                expected = cluster.runtime_config(replica_id, recovery=recovery)
                served = served_config(
                    cluster.serve_command(replica_id, recovery=recovery)
                )
                assert served == expected
                assert served.genesis_digest() == expected.genesis_digest()
            assert served.byzantine_abstain and not cluster.runtime_config(0).byzantine_abstain
            assert cluster.runtime_config(1).send_delay > 0
        finally:
            cluster.stop()

    def test_unknown_keys_exit_2(self, capsys):
        config = {"replica_id": 0, "peers": ["127.0.0.1:1"] * 4, "batch_sise": 8}
        assert main(["serve", "--config", json.dumps(config)]) == 2
        assert "batch_sise" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "peers", [[["127.0.0.1"]] * 4, [["127.0.0.1", 70000]] * 4, [5] * 4]
    )
    def test_bad_peer_lists_exit_2(self, capsys, peers):
        config = {"replica_id": 0, "peers": peers}
        assert main(["serve", "--config", json.dumps(config)]) == 2
        assert "error: endpoint" in capsys.readouterr().err

    def test_config_file_and_host_port_peers(self, tmp_path):
        path = tmp_path / "replica-2.json"
        path.write_text(
            json.dumps({"replica_id": 2, "peers": [f"10.0.0.{i}:7000" for i in range(4)]})
        )
        config = served_config(
            [sys.executable, "-m", "repro.cli", "serve", "--config", f"@{path}"]
        )
        assert config == ReplicaRuntimeConfig(
            replica_id=2, peers=tuple((f"10.0.0.{i}", 7000) for i in range(4))
        )


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
