"""End-to-end smoke test of the live cluster runtime (real OS processes).

Spawns a 4-replica / 2-instance Orthrus cluster as ``repro serve``
subprocesses on localhost, drives it with the closed-loop load generator, and
checks the deployment-level acceptance properties:

* every submission completes with ``f + 1`` matching replies,
* at least :data:`SMOKE_TRANSACTIONS` payment transactions commit,
* every replica reports the identical ``StateStore`` digest at shutdown.

Scale via ``REPRO_LIVE_SMOKE_TXS`` (the CI live-smoke job and the acceptance
run use 1000; the default keeps local ``pytest`` runs quick).
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.runtime.client import ClientConfig, OrthrusClient
from repro.runtime.cluster import ClusterSpec, LocalCluster
from repro.runtime.loadgen import LoadGenConfig, LoadGenerator
from repro.workload.config import WorkloadConfig

SMOKE_TRANSACTIONS = int(os.environ.get("REPRO_LIVE_SMOKE_TXS", "300"))

WORKLOAD = WorkloadConfig(num_accounts=512, seed=42, payment_fraction=1.0)


@pytest.fixture(scope="module")
def live_cluster():
    spec = ClusterSpec(
        num_replicas=4,
        num_instances=2,
        batch_size=64,
        batch_interval=0.02,
        workload=WorkloadConfig(num_accounts=512, seed=42),
    )
    cluster = LocalCluster(spec)
    cluster.start()
    try:
        yield cluster
    finally:
        cluster.stop()


def test_live_cluster_commits_payments_with_matching_digests(live_cluster):
    generator = LoadGenerator(
        list(live_cluster.endpoints),
        LoadGenConfig(
            transactions=SMOKE_TRANSACTIONS,
            mode="closed",
            concurrency=32,
            workload=WORKLOAD,
            client=ClientConfig(client_id=1000, timeout=5.0, retries=2),
        ),
    )
    report = asyncio.run(generator.run())

    assert live_cluster.check() == [], "replica processes died during the run"
    assert report.failed == 0
    assert report.completed == SMOKE_TRANSACTIONS
    assert report.metrics.committed >= SMOKE_TRANSACTIONS * 0.99
    assert report.metrics.throughput_tps > 0
    # All four replicas converged to one state.
    assert len(report.state_digests) == 4
    assert report.digests_agree, f"replicas diverged: {report.state_digests}"
    # The five-stage breakdown spans the client and replica clocks.
    for stage in ("send", "preprocessing", "partial_ordering", "reply"):
        assert report.stage_breakdown.get(stage, 0.0) > 0, stage


def test_live_cluster_serves_status_probes(live_cluster):
    async def probe():
        async with OrthrusClient(
            list(live_cluster.endpoints),
            ClientConfig(client_id=1001),
        ) as client:
            return await client.cluster_status()

    statuses = asyncio.run(probe())
    assert {status.replica for status in statuses} == {0, 1, 2, 3}
    assert all(status.view_changes == 0 for status in statuses)


def test_live_cluster_serves_metrics_probes(live_cluster):
    """Every replica answers the ``metrics`` control message with a live,
    nonzero instrument snapshot (the commit test above already drove load
    through the module-scoped cluster)."""

    async def probe():
        async with OrthrusClient(
            list(live_cluster.endpoints),
            ClientConfig(client_id=1002),
        ) as client:
            return await client.cluster_metrics(require_all=True)

    replies = asyncio.run(probe())
    assert {reply.replica for reply in replies} == {0, 1, 2, 3}
    for reply in replies:
        assert reply.uptime > 0
        assert reply.metrics, f"replica {reply.replica} returned no instruments"
        assert reply.metrics.get("transport.frames_sent", 0) > 0, reply.replica
        assert reply.metrics.get("transport.bytes_in", 0) > 0, reply.replica
        assert reply.metrics.get("server.committed", 0) > 0, reply.replica
