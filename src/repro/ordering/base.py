"""Global-ordering engine interface.

A global orderer consumes blocks as SB instances deliver them and decides
when each block becomes *globally ordered*, i.e. takes its final position in
the single global log shared by all instances.  The three families the paper
compares are implemented behind this interface:

* pre-determined positions (ISS, Mir-BFT, RCC),
* a dedicated sequencer instance (DQBFT),
* dynamic monotonic ranks (Ladon, reused by Orthrus).

Orderers are pure, simulator-independent state machines: they receive blocks
and return the blocks that just became globally ordered, in global order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.ledger.blocks import Block


@dataclass(frozen=True)
class BlockConflicts:
    """Conflict metadata for one delivered block.

    ``local_keys`` are owned objects the block decrements that are assigned to
    the block's own instance — conflicts on them are same-instance only,
    because every transaction spending from such an object serialises through
    that single SB instance.  ``global_keys`` are keys a *future block of
    another instance* could also touch: shared contract objects plus owned
    decrements assigned to a different instance (the cross-instance escrow
    case).  A block with any global key must fall back to bar semantics —
    no orderer can know whether an undelivered block with a smaller ordering
    index conflicts on such a key until the bar has passed it.
    """

    local_keys: frozenset[str]
    global_keys: frozenset[str]

    @property
    def barred(self) -> bool:
        """True when the block must wait for the global-ordering bar."""
        return bool(self.global_keys)

    @property
    def keys(self) -> frozenset[str]:
        """Every key the block conflicts on."""
        return self.local_keys | self.global_keys


#: A block that conflicts with nothing (no-ops, pure reads).
NO_CONFLICTS = BlockConflicts(frozenset(), frozenset())

#: Conservative fallback when no conflict metadata is available: an opaque
#: global key forces bar semantics, which is always safe (Ladon behaviour).
UNKNOWN_CONFLICTS = BlockConflicts(frozenset(), frozenset(("\x00unknown",)))

#: Namespace prefix for cross-instance decrement keys.  A payer key assigned
#: to another instance still *bars* the block carrying it, but it must not
#: string-collide with the owner instance's local key: a local holder may
#: release without the bar, so an untagged edge between the two would be
#: ordered differently on replicas that deliver the pair in opposite orders.
#: The pair commutes in the global log anyway — payments commit through the
#: partial path and the global path skips them — so the edge is dropped,
#: while escrow blocks of *different* instances touching the same foreign key
#: still share the tagged key (both barred, hence bar-ordered).
CROSS_INSTANCE_PREFIX = "\x00xi:"


def derive_conflicts(block: Block, assign_instance: Callable[[str], int]) -> BlockConflicts:
    """Conflict keys of a block under a bucket-assignment function.

    Owned *decrements* (payers) conflict: two debits of one account do not
    commute with the affordability check.  Owned *increments* (credits) are
    commutative and excluded.  Shared-object operations conflict on their key
    and are always global.  ``assign_instance`` is the partitioner's
    ``assign_object`` — a payer key assigned to the block's own instance can
    only conflict with blocks of that same instance, while one assigned
    elsewhere is recorded under :data:`CROSS_INSTANCE_PREFIX` (global, but
    disjoint from the owner's local-key namespace).
    """
    local: set[str] = set()
    global_: set[str] = set()
    for tx in block.transactions:
        for operation in tx.decrement_operations():
            if assign_instance(operation.key) == block.instance:
                local.add(operation.key)
            else:
                global_.add(CROSS_INSTANCE_PREFIX + operation.key)
        global_.update(tx.shared_keys())
    if not local and not global_:
        return NO_CONFLICTS
    return BlockConflicts(frozenset(local), frozenset(global_))


@dataclass
class OrderingStats:
    """Counters describing an orderer's behaviour during a run."""

    blocks_received: int = 0
    blocks_ordered: int = 0
    max_waiting: int = 0
    noop_blocks: int = 0
    #: Deliveries whose ordering index did not exceed the instance frontier.
    #: Rank-based ordering is only safe when each instance's delivered ranks
    #: are strictly increasing; a regression (e.g. a post-view-change leader
    #: assigning ranks below a re-proposed block's rank) can diverge the
    #: global log across replicas, so it is counted for detection.
    rank_regressions: int = 0
    #: Release-wait accounting, reported uniformly by every orderer: how many
    #: *deliveries* elapsed between a block's arrival and its release into
    #: the global log.  Logical ticks rather than wall time keep the counters
    #: deterministic on the simulated path.
    total_release_wait: int = 0
    max_release_wait: int = 0

    @property
    def mean_release_wait(self) -> float:
        """Mean deliveries a block waited before release."""
        if not self.blocks_ordered:
            return 0.0
        return self.total_release_wait / self.blocks_ordered


class GlobalOrderer:
    """Interface every global-ordering strategy implements."""

    #: Orderers that consume :class:`BlockConflicts` set this to True; the
    #: consensus core then derives conflict metadata per delivered block and
    #: passes it to :meth:`on_deliver`.
    wants_conflicts = False

    def __init__(self, num_instances: int) -> None:
        if num_instances <= 0:
            raise ValueError("num_instances must be positive")
        self.num_instances = num_instances
        self.stats = OrderingStats()
        #: Blocks the most recent :meth:`on_deliver` released (empty when it
        #: released nothing), for hosts that observe releases from outside
        #: the consensus core that made the call.  The global order is the
        #: concatenation of what ``on_deliver`` returns; an orderer keeps no
        #: history of it, so a consumer that wants the log appends the returns.
        self.last_released: Sequence[Block] = ()
        #: Logical clock: one tick per delivery (shared release-wait basis).
        self._delivery_tick = 0
        self._arrival_tick: dict[tuple[int, int], int] = {}

    @property
    def ordered_count(self) -> int:
        """Number of blocks globally ordered so far."""
        return self.stats.blocks_ordered

    def pending_count(self) -> int:
        """Blocks delivered but not yet globally ordered."""
        raise NotImplementedError

    def snapshot_state(self) -> dict | None:
        """Quiescent-point state a restarted replica needs to resume ordering.

        Called by the durability layer only when :meth:`pending_count` is
        zero (snapshots are cut at quiescent epoch boundaries).  Returns
        ``None`` when the orderer does not support snapshot resume — the
        recovery path then falls back to a full WAL replay from genesis.
        """
        return None

    def restore_state(self, state: dict) -> None:
        """Resume from :meth:`snapshot_state` output (fresh instance only)."""
        raise NotImplementedError(f"{type(self).__name__} cannot restore snapshots")

    def on_deliver(self, block: Block, conflicts: BlockConflicts | None = None) -> list[Block]:
        """Feed a delivered block; return blocks that just became ordered.

        ``conflicts`` carries the block's conflict metadata for orderers that
        declare :attr:`wants_conflicts`; orderers that do not are free to
        ignore it (the default call sites pass ``None``).
        """
        raise NotImplementedError

    def _record_arrival(self, block: Block) -> None:
        """Shared per-delivery bookkeeping (call once per ``on_deliver``).

        Counts the delivery, classifies no-ops, and timestamps the block's
        arrival on the logical delivery clock so :meth:`_commit` can report
        release waits uniformly across orderer families.
        """
        self.last_released = ()
        stats = self.stats
        stats.blocks_received += 1
        if not block.transactions:
            stats.noop_blocks += 1
        tick = self._delivery_tick + 1
        self._delivery_tick = tick
        self._arrival_tick.setdefault(block.block_id, tick)

    def _commit(self, blocks: Iterable[Block]) -> list[Block]:
        """Count newly ordered blocks into the global order and the stats."""
        committed = list(blocks)
        if not committed:
            return committed
        self.last_released = committed
        stats = self.stats
        stats.blocks_ordered += len(committed)
        now = self._delivery_tick
        arrival_pop = self._arrival_tick.pop
        total = 0
        max_wait = stats.max_release_wait
        for block in committed:
            waited = now - arrival_pop(block.block_id, now)
            total += waited
            if waited > max_wait:
                max_wait = waited
        stats.total_release_wait += total
        stats.max_release_wait = max_wait
        return committed


@dataclass(order=True, frozen=True)
class OrderingIndex:
    """Total-order key ``(rank, instance)`` used by dynamic ordering.

    The paper writes ``b ≺ b'`` when ``b.rank < b'.rank`` or ranks are equal
    and ``b.index < b'.index``; this dataclass implements exactly that
    comparison.
    """

    rank: int
    instance: int

    @classmethod
    def of(cls, block: Block) -> "OrderingIndex":
        """Ordering index of a block (rank defaults to 0 when absent)."""
        return cls(rank=block.rank if block.rank is not None else 0, instance=block.instance)


@dataclass
class RankTracker:
    """Tracks the highest observed rank and assigns ranks to new blocks.

    The paper's leader collects the highest rank from ``2f + 1`` replicas and
    increments it.  Inside the simulation every honest replica observes every
    delivered block, so tracking the local maximum (and, in the pipeline
    cluster, a cluster-wide maximum) reproduces the two properties the
    algorithm needs: agreement (the rank travels with the block) and
    monotonicity (a block created after a delivered block has a larger rank).
    """

    highest_seen: int = 0
    _assigned: int = field(default=0, repr=False)

    def observe(self, block: Block) -> None:
        """Account for a delivered block's rank."""
        if block.rank is not None:
            self.highest_seen = max(self.highest_seen, block.rank)

    def observe_rank(self, rank: int) -> None:
        """Account for a rank learned out-of-band (e.g. rank collection)."""
        self.highest_seen = max(self.highest_seen, rank)

    def next_rank(self) -> int:
        """Rank to assign to the next proposed block."""
        rank = max(self.highest_seen, self._assigned) + 1
        self._assigned = rank
        return rank
