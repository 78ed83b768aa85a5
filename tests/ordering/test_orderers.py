"""Tests for the four global-ordering engines and the rank tracker."""


from repro.ledger.blocks import Block, SystemState
from repro.ledger.transactions import simple_transfer
from repro.ordering.base import (
    NO_CONFLICTS,
    UNKNOWN_CONFLICTS,
    BlockConflicts,
    OrderingIndex,
    RankTracker,
)
from repro.ordering.dependency import DependencyGlobalOrderer
from repro.ordering.dqbft import DQBFTGlobalOrderer
from repro.ordering.ladon import LadonGlobalOrderer
from repro.ordering.predetermined import PredeterminedGlobalOrderer


def make_block(instance, sn, rank=None, empty=False):
    txs = [] if empty else [simple_transfer("a", "b", 1, tx_id=f"t-{instance}-{sn}")]
    return Block.create(
        instance=instance,
        sequence_number=sn,
        transactions=txs,
        state=SystemState.initial(4),
        proposer=instance,
        rank=rank,
    )


def conflicts(local=(), global_=()):
    return BlockConflicts(frozenset(local), frozenset(global_))


def deliver_all(orderer, blocks, *conflict_args):
    """The global order: what ``on_deliver`` released, call after call (an
    orderer keeps no log of its own)."""
    ordered = []
    for block in blocks:
        ordered += orderer.on_deliver(block, *conflict_args)
    return ordered


class TestOrderingIndex:
    def test_comparison_by_rank_then_instance(self):
        assert OrderingIndex(1, 3) < OrderingIndex(2, 0)
        assert OrderingIndex(2, 0) < OrderingIndex(2, 1)

    def test_of_block_defaults_missing_rank_to_zero(self):
        block = make_block(2, 0, rank=None)
        assert OrderingIndex.of(block) == OrderingIndex(0, 2)


class TestRankTracker:
    def test_ranks_strictly_increase(self):
        tracker = RankTracker()
        first = tracker.next_rank()
        second = tracker.next_rank()
        assert second > first

    def test_observed_blocks_raise_future_ranks(self):
        tracker = RankTracker()
        tracker.observe(make_block(0, 0, rank=41))
        assert tracker.next_rank() == 42

    def test_observe_rank_out_of_band(self):
        tracker = RankTracker()
        tracker.observe_rank(10)
        assert tracker.next_rank() == 11


class TestPredeterminedOrdering:
    def test_positions_interleave_round_robin(self):
        orderer = PredeterminedGlobalOrderer(3)
        assert orderer.global_position(make_block(0, 0)) == 0
        assert orderer.global_position(make_block(2, 0)) == 2
        assert orderer.global_position(make_block(0, 1)) == 3

    def test_in_order_delivery_releases_immediately(self):
        orderer = PredeterminedGlobalOrderer(2)
        assert len(orderer.on_deliver(make_block(0, 0))) == 1
        assert len(orderer.on_deliver(make_block(1, 0))) == 1
        assert orderer.ordered_count == 2

    def test_gap_stalls_the_log(self):
        orderer = PredeterminedGlobalOrderer(2)
        # Instance 0 is a straggler: its block never arrives.
        assert orderer.on_deliver(make_block(1, 0)) == []
        assert orderer.on_deliver(make_block(1, 1)) == []
        assert orderer.pending_count() == 2
        assert orderer.next_missing() == (0, 0)
        # The missing block finally arrives and everything flushes in order.
        released = orderer.on_deliver(make_block(0, 0))
        assert [b.block_id for b in released] == [(0, 0), (1, 0)]

    def test_noop_blocks_fill_gaps(self):
        orderer = PredeterminedGlobalOrderer(2)
        orderer.on_deliver(make_block(1, 0))
        released = orderer.on_deliver(make_block(0, 0, empty=True))
        assert len(released) == 2
        assert orderer.stats.noop_blocks == 1

    def test_duplicate_or_stale_delivery_ignored(self):
        orderer = PredeterminedGlobalOrderer(2)
        orderer.on_deliver(make_block(0, 0))
        orderer.on_deliver(make_block(1, 0))
        assert orderer.on_deliver(make_block(0, 0)) == []

    def test_global_order_matches_position_order(self):
        orderer = PredeterminedGlobalOrderer(2)
        global_log = deliver_all(
            orderer,
            (make_block(1, 0), make_block(0, 1), make_block(1, 1), make_block(0, 0)),
        )
        positions = [orderer.global_position(b) for b in global_log]
        assert positions == sorted(positions)


class TestLadonOrdering:
    def test_release_requires_every_instance_to_advance(self):
        orderer = LadonGlobalOrderer(2)
        # Instance 1's block cannot be confirmed yet: instance 0 could still
        # produce a block with the same rank and a lower instance index.
        assert orderer.on_deliver(make_block(1, 0, rank=1)) == []
        # Instance 0 delivers with a higher rank -> the bar moves past rank 1
        # and both blocks become globally ordered.
        released = orderer.on_deliver(make_block(0, 0, rank=2))
        assert [b.block_id for b in released] == [(1, 0), (0, 0)]

    def test_lower_instance_index_wins_rank_ties(self):
        orderer = LadonGlobalOrderer(2)
        # A block from instance 0 at rank 1 is safe immediately: any future
        # block from instance 1 is ordered after (1, 0) by the tie-break.
        released = orderer.on_deliver(make_block(0, 0, rank=1))
        assert [b.block_id for b in released] == [(0, 0)]

    def test_straggler_release_in_bulk(self):
        orderer = LadonGlobalOrderer(2)
        # Instance 1 keeps delivering, but instance 0 (the straggler, and the
        # tie-break winner) has not delivered anything, so everything waits.
        for sn, rank in ((0, 1), (1, 2), (2, 3)):
            assert orderer.on_deliver(make_block(1, sn, rank=rank)) == []
        assert orderer.pending_count() == 3
        # The straggler finally delivers one block carrying a recent rank and
        # the whole backlog flushes at once (the behaviour Fig. 3c relies on).
        released = orderer.on_deliver(make_block(0, 0, rank=4))
        assert [b.block_id for b in released] == [(1, 0), (1, 1), (1, 2), (0, 0)]
        assert orderer.pending_count() == 0

    def test_tie_broken_by_instance_index(self):
        orderer = LadonGlobalOrderer(3)
        orderer.on_deliver(make_block(2, 0, rank=1))
        orderer.on_deliver(make_block(1, 0, rank=1))
        released = orderer.on_deliver(make_block(0, 0, rank=2))
        assert [b.instance for b in released] == [1, 2, 0]

    def test_global_log_is_sorted_by_ordering_index(self):
        orderer = LadonGlobalOrderer(3)
        blocks = [
            make_block(0, 0, rank=1),
            make_block(1, 0, rank=2),
            make_block(2, 0, rank=3),
            make_block(0, 1, rank=4),
            make_block(1, 1, rank=5),
            make_block(2, 1, rank=6),
        ]
        indices = [OrderingIndex.of(b) for b in deliver_all(orderer, blocks)]
        assert indices == sorted(indices)

    def test_duplicate_delivery_ignored(self):
        orderer = LadonGlobalOrderer(2)
        block = make_block(0, 0, rank=1)
        orderer.on_deliver(block)
        assert orderer.on_deliver(block) == []

    def test_bar_initial_value(self):
        orderer = LadonGlobalOrderer(3)
        assert orderer.current_bar() == OrderingIndex(1, 0)


class TestDependencyOrdering:
    def test_independent_block_escapes_the_bar(self):
        orderer = DependencyGlobalOrderer(2)
        # Under Ladon instance 1's block would wait for the bar; with no
        # conflicting predecessor it is released on the spot.
        released = orderer.on_deliver(make_block(1, 0, rank=1), NO_CONFLICTS)
        assert [b.block_id for b in released] == [(1, 0)]
        assert orderer.pending_count() == 0

    def test_barred_block_waits_for_the_bar_like_ladon(self):
        orderer = DependencyGlobalOrderer(2)
        assert orderer.on_deliver(make_block(1, 0, rank=1), conflicts(global_={"obj"})) == []
        assert orderer.pending_count() == 1
        # Instance 0 advances past rank 1 -> the bar passes the barred block.
        released = orderer.on_deliver(make_block(0, 0, rank=2), NO_CONFLICTS)
        assert [b.block_id for b in released] == [(1, 0), (0, 0)]

    def test_local_conflict_waits_behind_barred_predecessor(self):
        orderer = DependencyGlobalOrderer(2)
        # sn 0 spends "a" and touches a shared object -> barred (instance 1
        # loses the rank tie-break, so rank 1 is not yet below the bar).
        assert (
            orderer.on_deliver(make_block(1, 0, rank=1), conflicts(local={"a"}, global_={"obj"}))
            == []
        )
        # sn 1 spends "a" only; it must not overtake its conflicting
        # predecessor even though it carries no global key itself.
        assert orderer.on_deliver(make_block(1, 1, rank=2), conflicts(local={"a"})) == []
        # A disjoint spend of the same instance is free to release.
        released = orderer.on_deliver(make_block(1, 2, rank=3), conflicts(local={"b"}))
        assert [b.block_id for b in released] == [(1, 2)]
        # The bar passes rank 1 and the "a" chain flushes in index order.
        released = orderer.on_deliver(make_block(0, 0, rank=2), NO_CONFLICTS)
        assert [b.block_id for b in released] == [(1, 0), (0, 0), (1, 1)]

    def test_local_chain_releases_in_delivery_order(self):
        orderer = DependencyGlobalOrderer(2)
        for sn in range(3):
            released = orderer.on_deliver(make_block(0, sn, rank=sn + 1), conflicts(local={"a"}))
            assert [b.block_id for b in released] == [(0, sn)]

    def test_unknown_conflicts_degrade_to_ladon(self):
        dep = DependencyGlobalOrderer(2)
        ladon = LadonGlobalOrderer(2)
        blocks = [
            make_block(1, 0, rank=1),
            make_block(1, 1, rank=2),
            make_block(0, 0, rank=3),
        ]
        for block in blocks:
            expected = [b.block_id for b in ladon.on_deliver(block)]
            got = [b.block_id for b in dep.on_deliver(block, UNKNOWN_CONFLICTS)]
            assert got == expected
        assert dep.ordered_count == ladon.ordered_count

    def test_noop_without_metadata_is_conflict_free(self):
        orderer = DependencyGlobalOrderer(2)
        released = orderer.on_deliver(make_block(1, 0, rank=1, empty=True))
        assert [b.block_id for b in released] == [(1, 0)]
        assert orderer.stats.noop_blocks == 1

    def test_missing_metadata_without_assignment_is_conservative(self):
        orderer = DependencyGlobalOrderer(2)
        # No conflicts passed and no key_instance function: treated as
        # conflicting with everything, so it waits for the bar.
        assert orderer.on_deliver(make_block(1, 0, rank=1)) == []
        released = orderer.on_deliver(make_block(0, 0, rank=2))
        assert [b.block_id for b in released] == [(1, 0), (0, 0)]

    def test_key_instance_function_self_derives_conflicts(self):
        # All payers hash to some bucket; with every key assigned to the
        # block's own instance the transfer block is local-only and releases
        # immediately even though the bar has not moved.
        orderer = DependencyGlobalOrderer(2, key_instance=lambda key: 1)
        released = orderer.on_deliver(make_block(1, 0, rank=1))
        assert [b.block_id for b in released] == [(1, 0)]

    def test_conflict_graph_size_tracks_live_edges(self):
        orderer = DependencyGlobalOrderer(2)
        assert orderer.conflict_graph_size() == 0
        orderer.on_deliver(make_block(1, 0, rank=1), conflicts(local={"a"}, global_={"obj"}))
        assert orderer.conflict_graph_size() == 2
        orderer.on_deliver(make_block(1, 1, rank=2), conflicts(local={"a", "b"}))
        assert orderer.conflict_graph_size() == 4
        # Bar passes rank 2 -> everything releases, the graph empties.
        orderer.on_deliver(make_block(0, 0, rank=3), NO_CONFLICTS)
        assert orderer.conflict_graph_size() == 0
        assert orderer.pending_count() == 0

    def test_duplicate_delivery_ignored(self):
        orderer = DependencyGlobalOrderer(2)
        block = make_block(1, 0, rank=1)
        assert orderer.on_deliver(block, NO_CONFLICTS) == [block]
        assert orderer.on_deliver(block, NO_CONFLICTS) == []
        assert orderer.on_deliver(make_block(1, 0, rank=1), conflicts(global_={"obj"})) == []

    def test_release_wait_stats_count_deliveries(self):
        orderer = DependencyGlobalOrderer(2)
        orderer.on_deliver(make_block(1, 0, rank=1), conflicts(global_={"obj"}))
        orderer.on_deliver(make_block(1, 1, rank=2), conflicts(global_={"obj"}))
        orderer.on_deliver(make_block(0, 0, rank=3), NO_CONFLICTS)
        # Block (1, 0) waited two deliveries, (1, 1) one, (0, 0) zero.
        assert orderer.stats.blocks_ordered == 3
        assert orderer.stats.max_release_wait == 2
        assert orderer.stats.total_release_wait == 3
        assert orderer.stats.mean_release_wait == 1.0

    def test_global_log_orders_conflicting_blocks_by_index(self):
        orderer = DependencyGlobalOrderer(3)
        shared = conflicts(global_={"obj"})
        global_log = deliver_all(
            orderer,
            [make_block(2, 0, rank=1), make_block(1, 0, rank=2), make_block(0, 0, rank=3)],
            shared,
        )
        # Instance 2's frontier (rank 1) holds the bar at (2, 2): the first
        # two barred blocks pass it, the rank-3 one still waits.
        barred = [b.block_id for b in global_log]
        assert barred == [(2, 0), (1, 0)]
        global_log += orderer.on_deliver(make_block(1, 1, rank=4), NO_CONFLICTS)
        # Instance 2 advances past rank 3 -> the last barred block flushes,
        # ordered before the higher-indexed independent block.
        released = orderer.on_deliver(make_block(2, 1, rank=5), NO_CONFLICTS)
        assert [b.block_id for b in released] == [(0, 0), (2, 1)]
        global_log += released
        indices = [OrderingIndex.of(b) for b in global_log if b.block_id[1] == 0]
        assert indices == sorted(indices)


class TestDQBFTOrdering:
    def test_block_waits_for_sequencer_decision(self):
        orderer = DQBFTGlobalOrderer(2)
        assert orderer.on_deliver(make_block(1, 0)) == []
        released = orderer.on_order_decision([(1, 0)])
        assert [b.block_id for b in released] == [(1, 0)]

    def test_decision_waits_for_block_content(self):
        orderer = DQBFTGlobalOrderer(2)
        assert orderer.on_order_decision([(0, 0)]) == []
        released = orderer.on_deliver(make_block(0, 0))
        assert [b.block_id for b in released] == [(0, 0)]

    def test_execution_follows_decision_order(self):
        orderer = DQBFTGlobalOrderer(2)
        orderer.on_deliver(make_block(0, 0))
        orderer.on_deliver(make_block(1, 0))
        released = orderer.on_order_decision([(1, 0), (0, 0)])
        assert [b.block_id for b in released] == [(1, 0), (0, 0)]

    def test_duplicate_decisions_ignored(self):
        orderer = DQBFTGlobalOrderer(2)
        orderer.on_deliver(make_block(0, 0))
        orderer.on_order_decision([(0, 0)])
        assert orderer.on_order_decision([(0, 0)]) == []

    def test_head_of_line_blocking_on_missing_block(self):
        orderer = DQBFTGlobalOrderer(2)
        orderer.on_order_decision([(0, 0), (1, 0)])
        # Only the second block's content arrives; it must wait for the first.
        assert orderer.on_deliver(make_block(1, 0)) == []
        released = orderer.on_deliver(make_block(0, 0))
        assert [b.block_id for b in released] == [(0, 0), (1, 0)]
