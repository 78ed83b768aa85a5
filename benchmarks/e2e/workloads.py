"""The four workloads, and the sizes every live cluster shares."""

from __future__ import annotations

from dataclasses import dataclass

NUM_REPLICAS = 4
NUM_ACCOUNTS = 256
BATCH_SIZE = 256
BATCH_INTERVAL = 0.01
#: Large enough that no account runs dry, so no transaction is ever rejected.
INITIAL_BALANCE = 10**9
#: Logical clients of a closed loop, each with one transaction in flight.
CLOSED_LOOP_CLIENTS = 256


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``why`` is what BENCHMARK.json records for it."""

    name: str
    why: str
    #: ``closed`` and ``open`` drive a live cluster; ``sim`` the simulator.
    loop: str
    instances: int = 2
    payment_fraction: float = 0.5
    #: Open loop only: transactions due per second.
    rate: float = 0.0
    #: WAL + fsync under a run directory, obs registry on, 10 % tx tracing.
    durable_and_observed: bool = False
    wan: str | None = None
    #: ``(replica, send_delay)``: that replica holds every frame this long.
    straggler: tuple[int, float] | None = None
    warmup_seconds: float = 1.0


WORKLOADS = (
    Workload(
        name="payments_closed",
        why=(
            "saturated closed loop, 90% payments, durability and obs off: bulk "
            "codec/transport/PBFT/ledger work on the partial-order fast path; WAL"
            " and obs are bypassed"
        ),
        loop="closed",
        payment_fraction=0.9,
    ),
    Workload(
        name="durable_mixed_closed",
        why=(
            "saturated closed loop, 50/50 mix with WAL+fsync, obs and 10% tracing"
            " on: the configuration anyone would run, and the only one with "
            "runtime.wal and obs on the path"
        ),
        loop="closed",
        durable_and_observed=True,
        # A durable replica sweeps state transfer from its peers for its first
        # 3 s (CATCH_UP_SETTLE_SECONDS); the window starts after that transient.
        warmup_seconds=3.5,
    ),
    Workload(
        name="wan_straggler_open",
        why=(
            "open loop at 150 tx/s, one instance per replica, WAN delay matrix "
            "and a 45 ms straggling leader: the paper's latency gap; blocks hold "
            "one or two txs, so per-message costs"
        ),
        loop="open",
        instances=NUM_REPLICAS,
        rate=150.0,
        wan="wan",
        straggler=(1, 0.045),
        warmup_seconds=2.0,
    ),
    Workload(
        name="sim_wan_straggler",
        why=(
            "the deterministic simulator on a 32-replica WAN cell with one "
            "straggler: bypasses runtime/ entirely, only user of sim/ and net/, "
            "latencies in simulated time"
        ),
        loop="sim",
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
