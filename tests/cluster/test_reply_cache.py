"""Reply-cache eviction order and the evicted-entry fail-safe.

The bounded reply cache answers retransmitted requests for already-executed
transactions.  Two properties matter at the cap: eviction must discard the
*oldest* entries (dict insertion order — which cache hits must not disturb),
and a retransmission for an entry that *was* evicted must still be answered
(rebuilt from the core's terminal status) rather than silently dropped —
the bucket dedupe swallows a re-submit, so a drop would starve the client.
"""

from __future__ import annotations

from repro.cluster.messages import ClientReply, ClientRequest
from repro.cluster.replica import MultiBFTReplica
from repro.core.config import CoreConfig
from repro.core.outcomes import TxStatus
from repro.ledger.blocks import Block
from repro.ledger.transactions import simple_transfer
from repro.metrics.latency import StreamingLatencyTracker
from repro.metrics.summary import MetricsCollector
from repro.protocols.registry import build_core


class FakeTimer:
    active = True

    def cancel(self):
        self.active = False


class RecordingTransport:
    """Minimal NodeTransport capturing sends for assertions."""

    def __init__(self):
        self.sent = []
        self.broadcasts = []

    def now(self):
        return 0.0

    def send(self, destination, message):
        self.sent.append((destination, message))

    def broadcast(self, message, include_self=False):
        self.broadcasts.append(message)

    def set_timer(self, delay, callback):
        return FakeTimer()

    def cancel_timers(self):
        pass


def build_replica(reply_cache_limit=10, metrics=None):
    transport = RecordingTransport()
    replica = MultiBFTReplica(
        replica_id=0,
        num_replicas=4,
        core=build_core("orthrus", CoreConfig(num_instances=1)),
        transport=transport,
        reply_cache_limit=reply_cache_limit,
        metrics=metrics,
    )
    return replica, transport


def reply(tx_id, committed=True):
    return ClientReply(tx_id=tx_id, replica=0, committed=committed, confirmed_at=1.0)


class TestEvictionOrder:
    def test_cache_holds_everything_up_to_the_cap(self):
        replica, _ = build_replica(reply_cache_limit=10)
        for index in range(10):
            replica._cache_reply(reply(f"tx-{index}"))
        assert len(replica._reply_of_tx) == 10

    def test_crossing_the_cap_evicts_exactly_the_oldest_half(self):
        replica, _ = build_replica(reply_cache_limit=10)
        for index in range(11):
            replica._cache_reply(reply(f"tx-{index}"))
        kept = list(replica._reply_of_tx)
        assert kept == [f"tx-{index}" for index in range(5, 11)]

    def test_retransmit_hits_do_not_promote_entries(self):
        # A cache hit answers from the dict without reinserting; the entry
        # keeps its insertion-order position and is still evicted first.
        replica, transport = build_replica(reply_cache_limit=10)
        for index in range(10):
            replica._cache_reply(reply(f"tx-{index}"))
        # Retransmission of the oldest entry: answered from the cache.
        oldest = simple_transfer("a", "b", 1, tx_id="tx-0")
        replica.receive(99, ClientRequest(tx=oldest, client_node=99))
        assert transport.sent[-1][0] == 99
        assert transport.sent[-1][1].tx_id == "tx-0"
        # Crossing the cap still evicts tx-0 with the oldest half.
        replica._cache_reply(reply("tx-10"))
        assert "tx-0" not in replica._reply_of_tx
        assert "tx-10" in replica._reply_of_tx

    def test_overwrite_keeps_original_position(self):
        replica, _ = build_replica(reply_cache_limit=10)
        for index in range(9):
            replica._cache_reply(reply(f"tx-{index}"))
        replica._cache_reply(reply("tx-0", committed=False))  # re-cache
        replica._cache_reply(reply("tx-9"))
        replica._cache_reply(reply("tx-10"))  # crosses the cap
        assert "tx-0" not in replica._reply_of_tx  # still oldest, still evicted


class TestEvictedEntryFailSafe:
    def test_retransmission_for_evicted_committed_tx_is_answered(self):
        replica, transport = build_replica()
        tx = simple_transfer("alice", "bob", 1, tx_id="evicted")
        replica.core._set_status(tx, TxStatus.COMMITTED)
        # Nothing cached (simulates eviction): must rebuild from status.
        assert "evicted" not in replica._reply_of_tx
        replica.receive(99, ClientRequest(tx=tx, client_node=99))
        destination, message = transport.sent[-1]
        assert destination == 99
        assert message.tx_id == "evicted"
        assert message.committed is True
        # And the rebuilt reply is cached for the next retransmission.
        assert "evicted" in replica._reply_of_tx

    def test_retransmission_for_evicted_rejected_tx_reports_rejection(self):
        replica, transport = build_replica()
        tx = simple_transfer("alice", "bob", 1, tx_id="rejected")
        replica.core._set_status(tx, TxStatus.REJECTED)
        replica.receive(99, ClientRequest(tx=tx, client_node=99))
        _, message = transport.sent[-1]
        assert message.committed is False

    def test_no_double_execution_from_retransmission(self):
        replica, transport = build_replica()
        tx = simple_transfer("alice", "bob", 1, tx_id="dup")
        replica.core._set_status(tx, TxStatus.COMMITTED)
        before = replica.core.submitted_count
        replica.receive(99, ClientRequest(tx=tx, client_node=99))
        assert replica.core.submitted_count == before  # never re-submitted

    def test_unexecuted_tx_still_goes_through_submission(self):
        replica, transport = build_replica()
        tx = simple_transfer("alice", "bob", 1, tx_id="fresh")
        replica.receive(99, ClientRequest(tx=tx, client_node=99))
        assert transport.sent == []  # no premature reply
        assert replica.core.submitted_count == 1


class TestRetransmissionsLeaveNothingBehind:
    """A live replica releases its per-transaction state when the
    transaction executes; a request that arrives after that (a client's
    retransmission) or that is refused must not re-create any of it."""

    def executed(self):
        """A replica (with a live server's metrics) that received, delivered
        and executed one funded transfer requested by client 99."""
        metrics = MetricsCollector(latency=StreamingLatencyTracker())
        replica, transport = build_replica(metrics=metrics)
        replica.core.store.create_account("alice", 10)
        tx = simple_transfer("alice", "bob", 1, tx_id="paid")
        tx.submitted_at = -1.0  # the transport's clock reads 0.0
        replica.receive(99, ClientRequest(tx=tx, client_node=99))
        assert len(metrics.latency) == 1 and replica._client_of_tx == {"paid": 99}
        replica._on_deliver(
            Block.create(
                instance=0,
                sequence_number=0,
                transactions=[tx],
                state=replica.core.delivered_state(),
                proposer=0,
                rank=1,
            )
        )
        assert replica.core.status_of("paid") is TxStatus.COMMITTED
        return replica, transport, metrics, tx

    def test_execution_releases_the_timeline_and_the_client_entry(self):
        replica, transport, metrics, _ = self.executed()
        assert transport.sent[-1][1].committed is True
        assert len(metrics.latency) == 0
        assert replica._client_of_tx == {}
        # ... folded into the stage sums, not lost.
        assert metrics.latency.stage_breakdown_partial()["send"] == 1.0
        assert metrics.committed == 1

    def test_retransmission_of_an_executed_tx_opens_no_timeline(self):
        replica, transport, metrics, tx = self.executed()
        replies = len(transport.sent)
        replica.receive(99, ClientRequest(tx=tx, client_node=99))  # cache hit
        replica._reply_of_tx.clear()
        replica.receive(99, ClientRequest(tx=tx, client_node=99))  # from status
        assert len(transport.sent) == replies + 2
        assert len(metrics.latency) == 0
        assert replica._client_of_tx == {}

    def test_refused_submission_opens_no_timeline(self):
        metrics = MetricsCollector(latency=StreamingLatencyTracker())
        replica, _ = build_replica(metrics=metrics)
        unbalanced = simple_transfer("alice", "bob", 1, tx_id="bad")
        unbalanced = type(unbalanced)(
            tx_id="bad",
            operations=unbalanced.operations[:1],
            tx_type=unbalanced.tx_type,
            submitted_at=0.0,
        )
        replica.receive(99, ClientRequest(tx=unbalanced, client_node=99))
        assert replica.core.rejected_on_submit == 1
        assert len(metrics.latency) == 0
        assert replica._client_of_tx == {}
