"""Property-based tests for the global-ordering engines.

The key invariants are the ones the paper's safety argument leans on:
every honest replica computes the same global order from the same set of
delivered blocks regardless of delivery interleaving (agreement), the order
respects each engine's ordering key (consistency), and no block is ordered
twice or dropped (integrity).
"""

from hypothesis import given, settings, strategies as st

from repro.ledger.blocks import Block, SystemState
from repro.ordering.base import (
    CROSS_INSTANCE_PREFIX,
    NO_CONFLICTS,
    UNKNOWN_CONFLICTS,
    BlockConflicts,
    OrderingIndex,
)
from repro.ordering.dependency import DependencyGlobalOrderer
from repro.ordering.dqbft import DQBFTGlobalOrderer
from repro.ordering.ladon import LadonGlobalOrderer
from repro.ordering.predetermined import PredeterminedGlobalOrderer

NUM_INSTANCES = 3


def make_block(instance, sn, rank=None):
    return Block.create(
        instance=instance,
        sequence_number=sn,
        transactions=[],
        state=SystemState.initial(NUM_INSTANCES),
        proposer=instance,
        rank=rank,
    )


@st.composite
def delivered_block_sets(draw):
    """Per-instance contiguous block prefixes with globally increasing ranks."""
    lengths = [
        draw(st.integers(min_value=0, max_value=6)) for _ in range(NUM_INSTANCES)
    ]
    blocks = []
    rank = 0
    remaining = {i: 0 for i in range(NUM_INSTANCES)}
    # Interleave the instances' next sequence numbers in a random but
    # rank-monotone creation order, as the protocol guarantees.
    work = [(i, sn) for i in range(NUM_INSTANCES) for sn in range(lengths[i])]
    order = draw(st.permutations(work))
    for instance, _ in order:
        sn = remaining[instance]
        remaining[instance] += 1
        rank += draw(st.integers(min_value=1, max_value=3))
        blocks.append(make_block(instance, sn, rank=rank))
    return blocks


@st.composite
def deliveries_with_permutation(draw):
    blocks = draw(delivered_block_sets())
    permutation = draw(st.permutations(blocks))
    return blocks, permutation


def global_log(orderer, deliveries):
    """The global order of ``deliveries``: what ``on_deliver`` released, call
    after call (an orderer keeps no log of its own)."""
    ordered = []
    for block in deliveries:
        ordered += orderer.on_deliver(block)
    return ordered


def per_instance_in_order(sequence):
    """Deliver blocks to an orderer respecting per-instance sequence order."""
    seen = {i: -1 for i in range(NUM_INSTANCES)}
    ready = []
    pending = list(sequence)
    while pending:
        progressed = False
        for block in list(pending):
            if block.sequence_number == seen[block.instance] + 1:
                ready.append(block)
                seen[block.instance] = block.sequence_number
                pending.remove(block)
                progressed = True
        if not progressed:
            break
    return ready


class TestLadonProperties:
    @given(deliveries_with_permutation())
    @settings(max_examples=120, deadline=None)
    def test_agreement_across_delivery_interleavings(self, data):
        blocks, permutation = data
        # SB delivers each instance's blocks in sequence order; across
        # instances the interleaving is arbitrary.
        first_order = per_instance_in_order(blocks)
        second_order = per_instance_in_order(permutation)
        log_a = global_log(LadonGlobalOrderer(NUM_INSTANCES), first_order)
        log_b = global_log(LadonGlobalOrderer(NUM_INSTANCES), second_order)
        ids_a = [b.block_id for b in log_a]
        ids_b = [b.block_id for b in log_b]
        # Both replicas ordered the same prefix in the same order (one may
        # have ordered more if its interleaving advanced the bar further, but
        # the common prefix must agree).
        common = min(len(ids_a), len(ids_b))
        assert ids_a[:common] == ids_b[:common]

    @given(delivered_block_sets())
    @settings(max_examples=120, deadline=None)
    def test_global_log_sorted_by_ordering_index_without_duplicates(self, blocks):
        ordered = global_log(
            LadonGlobalOrderer(NUM_INSTANCES), per_instance_in_order(blocks)
        )
        indices = [OrderingIndex.of(b) for b in ordered]
        assert indices == sorted(indices)
        ids = [b.block_id for b in ordered]
        assert len(ids) == len(set(ids))

    @given(delivered_block_sets())
    @settings(max_examples=120, deadline=None)
    def test_ordered_plus_pending_equals_delivered(self, blocks):
        orderer = LadonGlobalOrderer(NUM_INSTANCES)
        delivered = per_instance_in_order(blocks)
        for block in delivered:
            orderer.on_deliver(block)
        assert orderer.ordered_count + orderer.pending_count() == len(delivered)


class TestPredeterminedProperties:
    @given(deliveries_with_permutation())
    @settings(max_examples=120, deadline=None)
    def test_order_is_position_sorted_and_agreement_holds(self, data):
        blocks, permutation = data
        orderer_a = PredeterminedGlobalOrderer(NUM_INSTANCES)
        orderer_b = PredeterminedGlobalOrderer(NUM_INSTANCES)
        log_a = global_log(orderer_a, per_instance_in_order(blocks))
        log_b = global_log(orderer_b, per_instance_in_order(permutation))
        positions_a = [orderer_a.global_position(b) for b in log_a]
        assert positions_a == sorted(positions_a)
        ids_a = [b.block_id for b in log_a]
        ids_b = [b.block_id for b in log_b]
        common = min(len(ids_a), len(ids_b))
        assert ids_a[:common] == ids_b[:common]

    @given(delivered_block_sets())
    @settings(max_examples=120, deadline=None)
    def test_log_is_gapless_prefix(self, blocks):
        orderer = PredeterminedGlobalOrderer(NUM_INSTANCES)
        ordered = global_log(orderer, per_instance_in_order(blocks))
        positions = [orderer.global_position(b) for b in ordered]
        assert positions == list(range(len(positions)))


class TestDQBFTProperties:
    @given(delivered_block_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_execution_order_matches_decision_order(self, blocks, rng):
        orderer = DQBFTGlobalOrderer(NUM_INSTANCES)
        delivered = per_instance_in_order(blocks)
        decision_order = list(delivered)
        rng.shuffle(decision_order)
        for block in delivered:
            orderer.on_deliver(block)
        released = []
        for block in decision_order:
            released.extend(orderer.on_order_decision([block.block_id]))
        assert [b.block_id for b in released] == [b.block_id for b in decision_order]


@st.composite
def tied_rank_block_sets(draw):
    """Per-instance strictly increasing ranks, cross-instance ties allowed.

    ``delivered_block_sets`` assigns globally unique ranks, which can never
    exercise the bar's ``(rank, instance)`` tie-break.  Here each instance
    advances its own rank counter independently with small steps, so two
    instances frequently sit on the same rank — the regime the Ladon bar
    boundary audit is about.
    """
    blocks = []
    for instance in range(NUM_INSTANCES):
        rank = 0
        for sn in range(draw(st.integers(min_value=0, max_value=6))):
            rank += draw(st.integers(min_value=1, max_value=2))
            blocks.append(make_block(instance, sn, rank=rank))
    return blocks


def straggler_interleaving(blocks, straggler):
    """Deliver the straggler instance's blocks only after everyone else's."""
    fast = [b for b in blocks if b.instance != straggler]
    slow = [b for b in blocks if b.instance == straggler]
    key = lambda b: (b.sequence_number, b.instance)  # noqa: E731
    return sorted(fast, key=key) + sorted(slow, key=key)


def reference_released(delivered, frontier_ranks):
    """Brute-force reference for the safely releasable prefix.

    A delivered block is safely ordered iff its index precedes the smallest
    index any *future* block could still take: per-instance ranks are
    strictly increasing, so instance ``i`` can still produce at best
    ``(frontier_ranks[i] + 1, i)``.  Recomputed from scratch on every
    delivery — structurally independent of the heap implementation.
    """
    bar = min(
        OrderingIndex(rank=frontier_ranks[i] + 1, instance=i)
        for i in range(NUM_INSTANCES)
    )
    ready = [b for b in delivered if OrderingIndex.of(b) < bar]
    ready.sort(key=lambda b: (OrderingIndex.of(b), b.sequence_number))
    return [b.block_id for b in ready]


class TestLadonBarBoundary:
    """Audit of the ``index == bar`` boundary (issue: off-by-one suspicion).

    The released prefix after *every* delivery must equal the brute-force
    reference, in particular when instance frontiers tie on rank and under
    straggler-shaped interleavings.  These tests pin the audited conclusion:
    the boundary is exact (no block releasable by the reference is held back,
    none is released early).
    """

    def _check_against_reference(self, delivery_order):
        orderer = LadonGlobalOrderer(NUM_INSTANCES)
        delivered = []
        got = []
        frontier_ranks = [0] * NUM_INSTANCES
        for block in delivery_order:
            got += [b.block_id for b in orderer.on_deliver(block)]
            delivered.append(block)
            frontier_ranks[block.instance] = max(
                frontier_ranks[block.instance], block.rank
            )
            assert got == reference_released(delivered, frontier_ranks)
        assert orderer.stats.rank_regressions == 0

    @given(tied_rank_block_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_release_matches_brute_force_reference(self, blocks, rng):
        queues = {
            i: sorted(
                (b for b in blocks if b.instance == i),
                key=lambda b: b.sequence_number,
            )
            for i in range(NUM_INSTANCES)
        }
        order = []
        while any(queues.values()):
            instance = rng.choice([i for i in range(NUM_INSTANCES) if queues[i]])
            order.append(queues[instance].pop(0))
        self._check_against_reference(order)

    @given(tied_rank_block_sets(), st.integers(min_value=0, max_value=NUM_INSTANCES - 1))
    @settings(max_examples=150, deadline=None)
    def test_straggler_shaped_interleavings_match_reference(self, blocks, straggler):
        self._check_against_reference(straggler_interleaving(blocks, straggler))

    @given(tied_rank_block_sets(), st.integers(min_value=0, max_value=NUM_INSTANCES - 1))
    @settings(max_examples=100, deadline=None)
    def test_straggler_vs_uniform_interleaving_agree(self, blocks, straggler):
        log_a = global_log(
            LadonGlobalOrderer(NUM_INSTANCES), per_instance_in_order(blocks)
        )
        log_b = global_log(
            LadonGlobalOrderer(NUM_INSTANCES),
            straggler_interleaving(blocks, straggler),
        )
        ids_a = [b.block_id for b in log_a]
        ids_b = [b.block_id for b in log_b]
        common = min(len(ids_a), len(ids_b))
        assert ids_a[:common] == ids_b[:common]

    def test_rank_regression_is_detected(self):
        # A post-view-change leader assigning a rank below a re-proposed
        # block's rank violates the monotonicity precondition; the orderer
        # counts it so fault tests can assert it never happens.
        orderer = LadonGlobalOrderer(NUM_INSTANCES)
        orderer.on_deliver(make_block(0, 0, rank=10))
        orderer.on_deliver(make_block(0, 1, rank=3))
        assert orderer.stats.rank_regressions == 1


# -- dependency orderer: conflict-modelled workloads --------------------------------

#: Owned-object universe; ``acct-n`` is assigned to instance ``n % m``, the
#: same deterministic shape a hash partitioner produces.
OWNED_KEYS = tuple(f"acct-{n}" for n in range(6))
#: Shared contract objects: global for every instance.
SHARED_KEYS = ("obj-0", "obj-1")


def key_owner(key):
    return int(key.rsplit("-", 1)[1]) % NUM_INSTANCES


def build_conflicts(instance, owned, shared):
    """Conflict metadata exactly as ``derive_conflicts`` would classify it."""
    local = frozenset(k for k in owned if key_owner(k) == instance)
    cross = frozenset(
        CROSS_INSTANCE_PREFIX + k for k in owned if key_owner(k) != instance
    )
    return BlockConflicts(local, cross | frozenset(shared))


@st.composite
def conflicted_block_sets(draw):
    """Tied-rank block sets with per-block modelled conflict metadata."""
    blocks = draw(tied_rank_block_sets())
    conflicts = {}
    for block in blocks:
        owned = draw(st.frozensets(st.sampled_from(OWNED_KEYS), max_size=3))
        shared = draw(st.frozensets(st.sampled_from(SHARED_KEYS), max_size=1))
        conflicts[block.block_id] = build_conflicts(block.instance, owned, shared)
    return blocks, conflicts


def random_interleaving(blocks, rng):
    """Arbitrary cross-instance interleaving respecting per-instance order."""
    queues = {
        i: sorted(
            (b for b in blocks if b.instance == i), key=lambda b: b.sequence_number
        )
        for i in range(NUM_INSTANCES)
    }
    order = []
    while any(queues.values()):
        instance = rng.choice([i for i in range(NUM_INSTANCES) if queues[i]])
        order.append(queues[instance].pop(0))
    return order


def run_dependency(delivery_order, conflicts):
    """The orderer after ``delivery_order``, and the global log it released."""
    orderer = DependencyGlobalOrderer(NUM_INSTANCES)
    ordered = []
    for block in delivery_order:
        ordered += orderer.on_deliver(block, conflicts[block.block_id])
    return orderer, ordered


class TestDependencyEquivalence:
    """On fully conflicting input the dependency orderer *is* Ladon.

    Every block carries a global key, so nothing escapes the bar and the
    release sequence must match Ladon's delivery-for-delivery — the
    degeneration the safety argument in ``ordering/dependency.py`` leans on.
    """

    def _assert_stepwise_equal(self, delivery_order, conflicts_for):
        dep = DependencyGlobalOrderer(NUM_INSTANCES)
        ladon = LadonGlobalOrderer(NUM_INSTANCES)
        for block in delivery_order:
            got = [b.block_id for b in dep.on_deliver(block, conflicts_for(block))]
            want = [b.block_id for b in ladon.on_deliver(block)]
            assert got == want
        assert dep.pending_count() == ladon.pending_count()

    @given(tied_rank_block_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_hot_key_workload_matches_ladon(self, blocks, rng):
        hot = BlockConflicts(frozenset(), frozenset(("obj-hot",)))
        order = random_interleaving(blocks, rng)
        self._assert_stepwise_equal(order, lambda block: hot)

    @given(
        tied_rank_block_sets(),
        st.integers(min_value=0, max_value=NUM_INSTANCES - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_unknown_conflicts_match_ladon_under_straggler(self, blocks, straggler):
        order = straggler_interleaving(blocks, straggler)
        self._assert_stepwise_equal(order, lambda block: UNKNOWN_CONFLICTS)


class TestDependencyConsistency:
    """Replica-independent ordering of conflicting blocks.

    Two replicas see the same per-instance SB sequences but arbitrary
    cross-instance interleavings; any two blocks sharing a conflict key must
    appear in the same relative order in both global logs (non-conflicting
    blocks commute, so their order is free to differ).
    """

    @given(
        conflicted_block_sets(),
        st.randoms(use_true_random=False),
        st.integers(min_value=0, max_value=NUM_INSTANCES - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_conflicting_pairs_agree_across_interleavings(self, data, rng, straggler):
        blocks, conflicts = data
        _, log_a = run_dependency(random_interleaving(blocks, rng), conflicts)
        _, log_b = run_dependency(straggler_interleaving(blocks, straggler), conflicts)
        pos_a = {b.block_id: i for i, b in enumerate(log_a)}
        pos_b = {b.block_id: i for i, b in enumerate(log_b)}
        for i, first in enumerate(blocks):
            for second in blocks[i + 1 :]:
                if not conflicts[first.block_id].keys & conflicts[second.block_id].keys:
                    continue
                x, y = first.block_id, second.block_id
                if x in pos_a and y in pos_a and x in pos_b and y in pos_b:
                    assert (pos_a[x] < pos_a[y]) == (pos_b[x] < pos_b[y])

    @given(conflicted_block_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_per_key_release_order_follows_ordering_index(self, data, rng):
        blocks, conflicts = data
        _, ordered = run_dependency(random_interleaving(blocks, rng), conflicts)
        per_key = {}
        for block in ordered:
            for key in conflicts[block.block_id].keys:
                per_key.setdefault(key, []).append(OrderingIndex.of(block))
        for indices in per_key.values():
            assert indices == sorted(indices)

    @given(conflicted_block_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_integrity_and_flush_when_every_instance_advances(self, data, rng):
        blocks, conflicts = data
        orderer, ordered = run_dependency(random_interleaving(blocks, rng), conflicts)
        assert orderer.ordered_count + orderer.pending_count() == len(blocks)
        # Every instance advances past the highest rank with an independent
        # block: the bar passes everything pending and the backlog drains.
        top = max((b.rank for b in blocks), default=0)
        next_sn = {
            i: sum(1 for b in blocks if b.instance == i) for i in range(NUM_INSTANCES)
        }
        for instance in range(NUM_INSTANCES):
            ordered += orderer.on_deliver(
                make_block(instance, next_sn[instance], rank=top + 1 + instance),
                NO_CONFLICTS,
            )
        assert orderer.pending_count() == 0
        ordered_ids = [b.block_id for b in ordered]
        assert len(ordered_ids) == len(set(ordered_ids)) == len(blocks) + NUM_INSTANCES
