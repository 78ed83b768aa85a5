"""Stitched cross-process traces agree with the LatencyTracker breakdown.

A four-replica in-process cluster runs a traced closed-loop workload; the
trace files and the latency trackers then describe the *same* run on the
same shared monotonic clock, so per-transaction boundary timestamps and the
averaged five-stage breakdown must agree between the two pipelines.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.ledger.transactions import reset_transaction_counter
from repro.metrics.latency import STAGE_NAMES
from repro.runtime.client import ClientConfig
from repro.runtime.cluster import free_port
from repro.runtime.config import ReplicaRuntimeConfig
from repro.runtime.loadgen import LoadGenConfig, LoadGenerator
from repro.runtime.server import ReplicaServer
from repro.obs.trace import load_trace_events, stitch, trace_tx_ids
from repro.workload.config import WorkloadConfig

NUM_REPLICAS = 4
TRANSACTIONS = 40
WORKLOAD = WorkloadConfig(num_accounts=128, seed=5, payment_fraction=1.0)

#: LatencyTracker stage -> (timeline start attr, timeline end attr), the
#: replica-visible prefix of the five-stage breakdown (reply is client-side).
REPLICA_STAGES = {
    "send": ("submitted_at", "received_at"),
    "preprocessing": ("received_at", "proposed_at"),
    "partial_ordering": ("proposed_at", "delivered_at"),
    "global_ordering": ("delivered_at", "confirmed_at"),
}


@pytest.fixture(autouse=True)
def _fresh_tx_ids():
    reset_transaction_counter()


def test_stitched_traces_agree_with_stage_breakdown(tmp_path):
    async def scenario():
        peers = tuple(("127.0.0.1", free_port()) for _ in range(NUM_REPLICAS))
        servers = []
        for replica_id in range(NUM_REPLICAS):
            server = ReplicaServer(
                ReplicaRuntimeConfig(
                    replica_id=replica_id,
                    peers=peers,
                    num_instances=2,
                    batch_size=32,
                    batch_interval=0.02,
                    workload=WORKLOAD,
                    trace_file=str(tmp_path / f"replica-{replica_id}" / "trace.jsonl"),
                    trace_sample=1.0,
                )
            )
            await server.start()
            servers.append(server)
        try:
            generator = LoadGenerator(
                list(peers),
                LoadGenConfig(
                    transactions=TRANSACTIONS,
                    mode="closed",
                    concurrency=8,
                    workload=WORKLOAD,
                    client=ClientConfig(timeout=3.0),
                    trace_file=str(tmp_path / "client" / "trace.jsonl"),
                    trace_sample=1.0,
                ),
            )
            report = await generator.run()
            assert report.completed == TRANSACTIONS
            client_timelines = {
                t.tx_id: t for t in generator.collector.latency.timelines()
            }
            # A replica folds a timeline into its stage sums when the
            # transaction executes: none is left once the run has drained.
            replica0_open_timelines = len(servers[0].metrics.latency)
            replica0_breakdown = servers[0].metrics.latency.stage_breakdown_partial()
        finally:
            for server in servers:
                server.stop()
                await server._shutdown()
        return client_timelines, replica0_open_timelines, replica0_breakdown

    client_timelines, replica0_open_timelines, replica0_breakdown = asyncio.run(
        scenario()
    )
    assert replica0_open_timelines == 0

    events = load_trace_events(tmp_path)
    assert len(trace_tx_ids(events)) == TRANSACTIONS

    # --- client-side boundaries: submitted / replied are stamped by the
    # load generator into both pipelines from the same clock reads.
    for tx_id, timeline in client_timelines.items():
        stitched = stitch(events, tx_id)
        assert stitched is not None, f"no trace events for {tx_id}"
        submitted = stitched.first("submitted")
        replied = stitched.first("replied")
        assert submitted is not None and replied is not None
        assert submitted.t == pytest.approx(timeline.submitted_at, abs=1e-9)
        assert replied.t == pytest.approx(timeline.replied_at, abs=1e-9)

    # --- replica side: replica 0's tracker and its trace file are written
    # from the same `now` at each pipeline step, so averaging the stage
    # durations of the stitch restricted to replica 0 (+ the client) the way
    # stage_breakdown_partial does must reproduce the sums it folded.
    replica0_events = [e for e in events if e.node in (0, 999)]
    totals = {name: 0.0 for name in STAGE_NAMES}
    counts = {name: 0 for name in STAGE_NAMES}
    for tx_id in client_timelines:
        stitched = stitch(replica0_events, tx_id)
        if stitched is None:
            continue
        durations = stitched.stage_durations()
        for stage in REPLICA_STAGES:
            if stage in durations:
                totals[stage] += durations[stage]
                counts[stage] += 1
    for stage in REPLICA_STAGES:
        if counts[stage] == 0:
            continue
        averaged = totals[stage] / counts[stage]
        assert averaged == pytest.approx(replica0_breakdown[stage], abs=1e-6), stage
    assert counts["partial_ordering"] > 0
    assert counts["global_ordering"] > 0
