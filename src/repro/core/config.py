"""Configuration for consensus cores and protocol replicas."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Batch size used throughout the paper's evaluation.
DEFAULT_BATCH_SIZE = 4096

#: Blocks per instance per epoch of a simulated cluster or live replica when
#: none is configured: longer than any run, so no checkpoint ever fires.
DEFAULT_EPOCH_LENGTH = 1_000_000


@dataclass
class CoreConfig:
    """Parameters shared by Orthrus and the baseline protocol cores.

    Attributes:
        num_instances: Number of SB instances (``m``; the paper uses m = n).
        batch_size: Maximum transactions per block (paper: 4096).
        batch_timeout: Seconds a leader waits for a full batch before cutting
            a partial one.
        epoch_length: Sequence numbers per instance per epoch; epochs drive
            checkpointing and garbage collection (Sec. V-D).
        validate_transactions: Whether cores validate transactions on
            submission (disabled only by micro-benchmarks).
        require_balanced_payments: Reject payments whose debits and credits
            do not match.
    """

    num_instances: int = 4
    batch_size: int = DEFAULT_BATCH_SIZE
    batch_timeout: float = 0.25
    epoch_length: int = 16
    validate_transactions: bool = True
    require_balanced_payments: bool = True

    def __post_init__(self) -> None:
        if self.num_instances <= 0:
            raise ConfigurationError("num_instances must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.batch_timeout < 0:
            raise ConfigurationError("batch_timeout must be non-negative")
        if self.epoch_length <= 0:
            raise ConfigurationError("epoch_length must be positive")
