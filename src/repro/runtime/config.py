"""Configuration shared by live replica servers, clients and supervisors.

Every replica process must build *exactly* the same consensus core (protocol,
instance count, batch policy) over *exactly* the same genesis state (the
account universe), or the replicas would diverge before the first block.
:class:`ReplicaSettings` declares those cluster-wide knobs once;
:class:`ReplicaRuntimeConfig` adds what differs per replica.  A supervisor
hands a replica process its whole config as the JSON of
:func:`dataclasses.asdict` (``repro serve --config``), and
:meth:`ReplicaRuntimeConfig.from_dict` rebuilds it field for field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from repro.core.config import DEFAULT_EPOCH_LENGTH, CoreConfig
from repro.errors import ConfigurationError
from repro.ledger.state import StateStore
from repro.obs.logging import LOG_FORMATS, LOG_LEVELS
from repro.protocols.registry import build_core
from repro.workload.accounts import AccountUniverse
from repro.workload.config import WorkloadConfig


#: Prefix marking a Unix-domain-socket endpoint (``unix:/path/to.sock``).
UDS_PREFIX = "unix:"


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse ``host:port`` — or ``unix:/path`` — into a ``(host, port)`` pair.

    Unix-domain-socket endpoints keep the pair shape (port 0, path carried in
    the host slot with its ``unix:`` prefix) so they flow through every
    ``(host, port)`` signature unchanged.
    """
    if text.startswith(UDS_PREFIX):
        if not text[len(UDS_PREFIX) :]:
            raise ConfigurationError(f"endpoint {text!r} has an empty socket path")
        return text, 0
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ConfigurationError(f"endpoint {text!r} is not host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(f"endpoint {text!r} has a non-numeric port") from None
    if not 0 < port < 65536:
        raise ConfigurationError(f"endpoint {text!r} has an out-of-range port")
    return host, port


def format_endpoint(endpoint: tuple[str, int]) -> str:
    """Render a ``(host, port)`` pair back to ``host:port`` (or ``unix:...``)."""
    host, port = endpoint
    if host.startswith(UDS_PREFIX):
        return host
    return f"{host}:{port}"


def _peer_endpoint(entry: Any) -> tuple[str, int]:
    """A ``(host, port)`` pair from a JSON ``[host, port]`` or ``host:port``."""
    if isinstance(entry, list) and len(entry) == 2:
        entry = format_endpoint((str(entry[0]), entry[1]))
    if not isinstance(entry, str):
        raise ConfigurationError(f"endpoint {entry!r} is not host:port")
    return parse_endpoint(entry)


def load_json_or_file(text: str, *, what: str, invalid: str | None = None) -> Any:
    """Decode JSON text, or the JSON file an ``@path`` argument names.

    ``what`` names the document in the unreadable-file error; ``invalid``
    prefixes the malformed-JSON error (default: "<what> is not valid JSON").
    """
    text = text.strip()
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read {what} file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{invalid or what + ' is not valid JSON'}: {exc}"
        ) from exc


def is_uds_endpoint(endpoint: tuple[str, int]) -> bool:
    """Whether an endpoint pair names a Unix domain socket."""
    return endpoint[0].startswith(UDS_PREFIX)


def uds_path(endpoint: tuple[str, int]) -> str:
    """The filesystem path of a Unix-domain-socket endpoint."""
    return endpoint[0][len(UDS_PREFIX) :]


@dataclass(kw_only=True)
class ReplicaSettings:
    """The knobs every replica of one cluster shares, declared once.

    :class:`ReplicaRuntimeConfig` (one replica) and
    :class:`~repro.runtime.cluster.ClusterSpec` (a supervised fleet) both
    inherit these fields, their defaults and their checks.

    Attributes:
        protocol: Consensus core to build (``orthrus`` or a baseline).
        num_instances: SB instances (defaults to one per replica).
        batch_size: Leader batch cut size.
        batch_interval: Seconds between leader proposal ticks.
        epoch_length: Blocks per instance per epoch.  Completing an epoch is
            what triggers a checkpoint, a durability snapshot (with WAL
            compaction) and epoch garbage collection; the default is longer
            than any run, so a live replica does none of the three unless
            this is set.  Its memory does not depend on it: per-transaction
            state is released as each transaction executes (see the
            retention table in ``docs/live_runtime.md``).
        view_change_timeout: Failure-detector timeout in wall-clock seconds.
        workload: Account-universe parameters; the genesis state every
            replica populates before serving.  Clients must generate traffic
            from the same universe.
        workers: Crypto/codec worker processes per replica (0 = do all
            work inline on the event loop; the right choice for small
            clusters and single-core hosts).
        obs_enabled: Observability master switch.  ``False`` swaps the
            metrics registry for the inert no-op registry and disables
            tracing/snapshots (the A/B arm of the ``obs_overhead``
            benchmark).
        metrics_interval: Seconds between metrics snapshots.
        log_level: Stderr logging threshold (debug/info/warning/error).
        log_format: ``"text"`` or ``"json"`` (one JSON object per line).
        snapshot_every_epochs: Cut a snapshot at most every N completed
            epoch checkpoints (durability only).
    """

    protocol: str = "orthrus"
    num_instances: int | None = None
    batch_size: int = 64
    batch_interval: float = 0.05
    epoch_length: int = DEFAULT_EPOCH_LENGTH
    view_change_timeout: float = 10.0
    workload: WorkloadConfig = field(
        default_factory=lambda: WorkloadConfig(num_accounts=1024)
    )
    workers: int = 0
    obs_enabled: bool = True
    metrics_interval: float = 1.0
    log_level: str = "info"
    log_format: str = "text"
    snapshot_every_epochs: int = 1

    def __post_init__(self) -> None:
        if self.batch_interval <= 0:
            raise ConfigurationError("batch_interval must be positive")
        if self.epoch_length < 1:
            raise ConfigurationError("epoch_length must be at least 1")
        if self.workers < 0:
            raise ConfigurationError("workers cannot be negative")
        if self.metrics_interval <= 0:
            raise ConfigurationError("metrics_interval must be positive")
        if self.log_level not in LOG_LEVELS:
            raise ConfigurationError(f"unknown log level {self.log_level!r}")
        if self.log_format not in LOG_FORMATS:
            raise ConfigurationError(f"unknown log format {self.log_format!r}")
        if self.snapshot_every_epochs < 1:
            raise ConfigurationError("snapshot_every_epochs must be at least 1")

    def replica_settings(self) -> dict[str, Any]:
        """These shared fields alone, as keywords for another settings class."""
        return {item.name: getattr(self, item.name) for item in fields(ReplicaSettings)}


@dataclass
class ReplicaRuntimeConfig(ReplicaSettings):
    """Everything one live replica process needs to participate.

    The cluster-wide knobs come from :class:`ReplicaSettings`; the fields
    below differ per replica.

    Attributes:
        replica_id: This replica's index into ``peers``.
        peers: One ``(host, port)`` listen endpoint per replica, in id order.
        send_delay: Chaos: seconds every outbound replica-to-replica frame is
            held before sending (straggler injection; 0.0 = healthy).
        wan: WAN emulation spec: ``None`` (no emulation), a model name
            (``"wan"``/``"lan"``), a JSON square delay matrix, or
            ``@file.json`` holding one.  Expanded per replica into
            per-destination due-time delays composing with ``send_delay``
            (see :func:`repro.runtime.chaos.wan_delay_map`).
        byzantine_abstain: Chaos: this replica proposes and votes only in
            instances it currently leads and silently drops its consensus
            messages for every other instance (the paper's undetectable
            Byzantine abstention, Fig. 8).
        trace_file: JSONL file this replica appends sampled transaction
            span events to (``None`` = no tracing).
        trace_sample: Fraction of transactions traced, decided
            deterministically by tx id so every process samples the same
            transactions (see :func:`repro.obs.trace.sample_tx`).
        metrics_file: JSONL file periodic registry snapshots are appended
            to (``None`` = no snapshots).
        run_dir: Directory for this replica's durable state (WAL +
            snapshots).  ``None`` — the default, and the only mode the
            simulator ever sees — disables durability entirely.
        recovery: What a restart does with durable state found in
            ``run_dir``: ``"snapshot"`` recovers from the newest valid
            snapshot plus the WAL suffix (falling back to full WAL replay,
            then to peers); ``"genesis"`` wipes the durable state and
            rejoins from the genesis state via state transfer alone.
    """

    replica_id: int
    peers: tuple[tuple[str, int], ...]
    send_delay: float = 0.0
    wan: str | None = None
    byzantine_abstain: bool = False
    trace_file: str | None = None
    trace_sample: float = 1.0
    metrics_file: str | None = None
    run_dir: str | None = None
    recovery: str = "snapshot"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.peers) < 4:
            raise ConfigurationError("live clusters need at least 4 replicas")
        if not 0 <= self.replica_id < len(self.peers):
            raise ConfigurationError(
                f"replica id {self.replica_id} out of range for {len(self.peers)} peers"
            )
        if self.send_delay < 0:
            raise ConfigurationError("send_delay cannot be negative")
        if self.wan is not None:
            # Deferred import: chaos pulls in fault-plan machinery this
            # low-level module must not depend on at import time.
            from repro.runtime.chaos import parse_wan_spec

            parse_wan_spec(self.wan)
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigurationError("trace_sample must be within [0, 1]")
        if self.recovery not in ("snapshot", "genesis"):
            raise ConfigurationError(
                f"recovery mode {self.recovery!r} is not 'snapshot' or 'genesis'"
            )

    @classmethod
    def from_dict(cls, data: Any) -> "ReplicaRuntimeConfig":
        """Rebuild a config from its :func:`dataclasses.asdict` form.

        This is what ``repro serve --config`` reads.  Peers may be
        ``[host, port]`` pairs or ``host:port`` strings; unknown keys are an
        error, so a typo cannot silently fall back to a default.
        """
        if not isinstance(data, dict):
            raise ConfigurationError("replica config must be a JSON object")
        unknown = set(data) - {item.name for item in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown replica config keys: {', '.join(sorted(unknown))}"
            )
        values = dict(data)
        try:
            values["peers"] = tuple(_peer_endpoint(peer) for peer in data.get("peers", ()))
            if "workload" in data:
                values["workload"] = WorkloadConfig(**data["workload"])
            return cls(**values)
        except TypeError as exc:
            raise ConfigurationError(f"malformed replica config: {exc}") from None

    @property
    def num_replicas(self) -> int:
        return len(self.peers)

    @property
    def instances(self) -> int:
        """Number of SB instances (defaults to one per replica)."""
        return self.num_instances or self.num_replicas

    @property
    def listen_endpoint(self) -> tuple[str, int]:
        """This replica's own listen address."""
        return self.peers[self.replica_id]

    def for_replica(self, replica_id: int) -> "ReplicaRuntimeConfig":
        """The same cluster configuration seen from another replica."""
        return replace(self, replica_id=replica_id)

    # -- deterministic genesis ---------------------------------------------

    def core_config(self) -> CoreConfig:
        return CoreConfig(
            num_instances=self.instances,
            batch_size=self.batch_size,
            epoch_length=self.epoch_length,
        )

    def universe(self) -> AccountUniverse:
        """The shared genesis account universe."""
        return AccountUniverse(
            num_accounts=self.workload.num_accounts,
            num_shared_objects=self.workload.num_shared_objects,
            initial_balance=self.workload.initial_balance,
            zipf_exponent=self.workload.zipf_exponent,
        )

    def build_core(self):
        """Build this replica's consensus core over the genesis state."""
        core = build_core(self.protocol, self.core_config())
        self.universe().populate(core.store)
        return core

    def genesis_digest(self) -> str:
        """State digest every replica starts from (sanity checks)."""
        store = StateStore()
        self.universe().populate(store)
        return store.state_digest()
