"""Transaction outcomes emitted by consensus cores.

The paper counts a transaction as *confirmed* once it has been executed,
"either successfully or unsuccessfully".  Outcomes therefore distinguish
successful commits from rejected executions (e.g. insufficient funds), and
both count towards throughput; only the path that produced them differs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ledger.transactions import Transaction


class TxStatus(enum.Enum):
    """Lifecycle of a transaction inside a consensus core."""

    PENDING = "pending"
    COMMITTED = "committed"
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        """Whether the transaction is confirmed (no further transitions)."""
        return self is not TxStatus.PENDING


class ConfirmationPath(enum.Enum):
    """Which ordering path confirmed the transaction."""

    PARTIAL = "partial"
    GLOBAL = "global"


@dataclass(slots=True)
class TxOutcome:
    """A confirmation event for one transaction.

    Transient: a core returns outcomes from ``on_block_delivered`` and the
    host turns each into metrics and a client reply; nothing keeps them.
    """

    tx: Transaction
    status: TxStatus
    path: ConfirmationPath
    instance: int
    reason: str = ""

    @property
    def committed(self) -> bool:
        """True when the transaction executed successfully."""
        return self.status is TxStatus.COMMITTED

    @property
    def confirmed(self) -> bool:
        """True for any terminal status (the paper's definition)."""
        return self.status.terminal
