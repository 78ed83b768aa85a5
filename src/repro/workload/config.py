"""Workload configuration mirroring the paper's Ethereum-derived dataset.

The evaluation replays ~200,000 transactions drawn from 18,000 active
Ethereum accounts (blocks 17,198,000-17,202,000), of which 46 % are payment
transactions and the rest are contract transactions.  We cannot redistribute
that trace, so :class:`WorkloadConfig` captures its relevant statistical
properties and the generator synthesises an equivalent trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError

#: Trace-scale defaults taken from the paper's experimental setup.
PAPER_NUM_ACCOUNTS = 18_000
PAPER_NUM_TRANSACTIONS = 200_000
PAPER_PAYMENT_FRACTION = 0.46
#: Default Zipf skew of account activity (the ``--zipf-s`` CLI knob; the
#: contention A/B sweeps this — higher s concentrates spends on hot keys).
DEFAULT_ZIPF_EXPONENT = 0.8


@dataclass
class WorkloadConfig:
    """Parameters of the synthetic Ethereum-style workload.

    Attributes:
        num_accounts: Active accounts in the trace (paper: 18,000).
        num_transactions: Transactions to generate (paper: 200,000).
        payment_fraction: Fraction of payment transactions (paper: 0.46);
            Fig. 5 sweeps this from 0 to 1.
        multi_payer_fraction: Fraction of payment transactions that have two
            payers (joint payments split across instances).  Ethereum
            transactions have a single sender, so the trace-equivalent value
            is small; the escrow/atomicity machinery is exercised regardless.
        contract_multi_caller_fraction: Fraction of contract transactions
            invoked by two callers (the Appendix B example).
        num_shared_objects: Distinct shared contract records touched by
            contract transactions.
        zipf_exponent: Skew of account activity (0 = uniform).
        initial_balance: Starting balance of every account; generous enough
            that the vast majority of transfers succeed, as on Ethereum.
        min_amount / max_amount: Transfer amount range (integer tokens).
        payload_size: Client payload bytes per transaction (paper: 500).
        seed: Seed for the deterministic generator.
    """

    num_accounts: int = PAPER_NUM_ACCOUNTS
    num_transactions: int = PAPER_NUM_TRANSACTIONS
    payment_fraction: float = PAPER_PAYMENT_FRACTION
    multi_payer_fraction: float = 0.02
    contract_multi_caller_fraction: float = 0.05
    num_shared_objects: int = 512
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT
    initial_balance: int = 1_000_000
    min_amount: int = 1
    max_amount: int = 1_000
    payload_size: int = 500
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_accounts < 2:
            raise WorkloadError("num_accounts must be at least 2")
        if self.num_transactions < 0:
            raise WorkloadError("num_transactions must be non-negative")
        if not 0.0 <= self.payment_fraction <= 1.0:
            raise WorkloadError("payment_fraction must be within [0, 1]")
        if not 0.0 <= self.multi_payer_fraction <= 1.0:
            raise WorkloadError("multi_payer_fraction must be within [0, 1]")
        if self.num_shared_objects <= 0:
            raise WorkloadError("num_shared_objects must be positive")
        if self.zipf_exponent < 0.0:
            raise WorkloadError("zipf_exponent must be non-negative")
        if self.min_amount <= 0 or self.max_amount < self.min_amount:
            raise WorkloadError("amount range is invalid")
        if self.initial_balance < 0:
            raise WorkloadError("initial_balance must be non-negative")

    def scaled(self, factor: float) -> "WorkloadConfig":
        """Return a copy with the transaction count scaled by ``factor``.

        Benchmarks use this to run laptop-sized versions of the paper's
        200k-transaction replay while keeping every other property intact.
        """
        return WorkloadConfig(
            num_accounts=self.num_accounts,
            num_transactions=max(1, int(self.num_transactions * factor)),
            payment_fraction=self.payment_fraction,
            multi_payer_fraction=self.multi_payer_fraction,
            contract_multi_caller_fraction=self.contract_multi_caller_fraction,
            num_shared_objects=self.num_shared_objects,
            zipf_exponent=self.zipf_exponent,
            initial_balance=self.initial_balance,
            min_amount=self.min_amount,
            max_amount=self.max_amount,
            payload_size=self.payload_size,
            seed=self.seed,
        )
