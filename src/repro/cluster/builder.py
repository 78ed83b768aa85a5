"""Builder for message-level clusters (replicas + client + network).

This is the high-fidelity driver: every replica is a full protocol node
exchanging PBFT messages over the simulated network.  It is used by the test
suite, the examples and the fault experiments at small scale; the large
sweeps use :mod:`repro.cluster.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.client import ClientNode
from repro.cluster.faults import FaultPlan
from repro.cluster.replica import MultiBFTReplica
from repro.core.config import DEFAULT_EPOCH_LENGTH, CoreConfig
from repro.errors import ExperimentError
from repro.ledger.transactions import Transaction
from repro.metrics.summary import MetricsCollector, RunMetrics
from repro.net.latency import BandwidthModel, latency_model_for
from repro.net.network import Network
from repro.protocols.registry import build_core
from repro.sb.pbft.endpoint import PBFTConfig
from repro.sim.simulator import Simulator
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload


@dataclass
class MessageClusterConfig:
    """Configuration of a message-level cluster."""

    protocol: str = "orthrus"
    num_replicas: int = 4
    num_instances: int | None = None
    environment: str = "lan"
    batch_size: int = 16
    batch_interval: float = 0.05
    epoch_length: int = DEFAULT_EPOCH_LENGTH
    view_change_timeout: float = 10.0
    seed: int = 7
    workload: WorkloadConfig = field(default_factory=lambda: WorkloadConfig(num_accounts=64))
    faults: FaultPlan = field(default_factory=FaultPlan.none)

    def __post_init__(self) -> None:
        if self.num_replicas < 4:
            raise ExperimentError("message-level clusters need at least 4 replicas")

    @property
    def instances(self) -> int:
        """Number of SB instances (defaults to one per replica)."""
        return self.num_instances or self.num_replicas


class MessageCluster:
    """A fully wired message-level deployment."""

    def __init__(self, config: MessageClusterConfig) -> None:
        self.config = config
        self.sim = Simulator(config.seed)
        self.network = Network(
            self.sim,
            latency_model=latency_model_for(config.environment),
            bandwidth_model=BandwidthModel(),
        )
        self.metrics = MetricsCollector()
        self.workload = EthereumStyleWorkload(config.workload)
        core_config = CoreConfig(
            num_instances=config.instances,
            batch_size=config.batch_size,
            epoch_length=config.epoch_length,
        )
        pbft_config = PBFTConfig(view_change_timeout=config.view_change_timeout)
        self.replicas: list[MultiBFTReplica] = []
        for replica_id in range(config.num_replicas):
            core = build_core(config.protocol, core_config)
            self.workload.universe.populate(core.store)
            replica = MultiBFTReplica(
                replica_id=replica_id,
                num_replicas=config.num_replicas,
                core=core,
                pbft_config=pbft_config,
                batch_size=config.batch_size,
                batch_interval=config.batch_interval,
                metrics=self.metrics if replica_id == 0 else None,
            )
            self.network.register(replica)
            self.replicas.append(replica)
        self.client = ClientNode(
            node_id=config.num_replicas,
            replica_ids=list(range(config.num_replicas)),
            metrics=self.metrics,
        )
        self.network.register(self.client)
        self._apply_faults()

    # -- fault wiring ------------------------------------------------------------

    def _apply_faults(self) -> None:
        for replica_id, slowdown in self.config.faults.stragglers.items():
            self.network.set_slowdown(replica_id, slowdown)
        for replica_id, crash_time in self.config.faults.crashes.items():
            self.sim.schedule_at(
                crash_time, lambda r=replica_id: self._crash_replica(r)
            )
        for replica_id in range(self.config.faults.undetectable_faults):
            victim = self.replicas[replica_id]
            others = [r for r in range(self.config.num_replicas) if r != replica_id]
            self.network.mute(victim.node_id, others)

    def _crash_replica(self, replica_id: int) -> None:
        self.replicas[replica_id].crash()
        self.network.crash(replica_id)

    # -- running --------------------------------------------------------------------

    def start(self) -> None:
        """Start every replica's proposal loop."""
        for replica in self.replicas:
            replica.start()

    def submit_transactions(
        self, transactions: list[Transaction], *, rate_tps: float | None = None
    ) -> None:
        """Submit a list of transactions, optionally paced at ``rate_tps``."""
        if rate_tps is None:
            for tx in transactions:
                self.sim.schedule(0.0, lambda tx=tx: self.client.submit(tx))
            return
        interval = 1.0 / rate_tps
        for index, tx in enumerate(transactions):
            self.sim.schedule(index * interval, lambda tx=tx: self.client.submit(tx))

    def run(self, duration: float) -> RunMetrics:
        """Run the simulation for ``duration`` seconds and collect metrics."""
        self.start()
        self.sim.run(until=duration)
        extra = {
            "messages_sent": float(self.network.stats.messages_sent),
            "messages_delivered": float(self.network.stats.messages_delivered),
            "bytes_sent": float(self.network.stats.bytes_sent),
        }
        return self.metrics.finalize(start=0.0, end=duration, extra=extra)

    def run_until_confirmed(
        self, expected: int, *, timeout: float = 120.0, step: float = 1.0
    ) -> float:
        """Run until ``expected`` transactions are confirmed (or timeout).

        Returns the simulated time at which the condition was met.
        """
        self.start()
        elapsed = 0.0
        while elapsed < timeout:
            elapsed = self.sim.run(until=elapsed + step)
            if self.metrics.committed + self.metrics.rejected >= expected:
                return elapsed
            if self.sim.pending_events == 0 and elapsed > 0:
                break
        return elapsed
