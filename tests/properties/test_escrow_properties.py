"""Property-based tests for the escrow mechanism (Algorithm 2).

These properties are the backbone of the paper's atomicity argument
(Lemma 5): no matter which interleaving of escrow / commit / abort operations
occurs, funds are conserved, balances never violate their conditions, and a
transaction's reservations are either all committed or all refunded.
"""

from hypothesis import given, settings, strategies as st

from repro.ledger.escrow import EscrowLog
from repro.ledger.state import StateStore
from repro.ledger.transactions import payment

ACCOUNTS = [f"acct-{i}" for i in range(6)]


@st.composite
def transfer_batches(draw):
    """A starting balance sheet plus a batch of payment transactions."""
    balances = {
        account: draw(st.integers(min_value=0, max_value=50)) for account in ACCOUNTS
    }
    count = draw(st.integers(min_value=1, max_value=12))
    transfers = []
    for index in range(count):
        payers = draw(
            st.lists(st.sampled_from(ACCOUNTS), min_size=1, max_size=2, unique=True)
        )
        payee = draw(st.sampled_from([a for a in ACCOUNTS if a not in payers]))
        amounts = {payer: draw(st.integers(min_value=1, max_value=30)) for payer in payers}
        transfers.append(
            payment(amounts, {payee: sum(amounts.values())}, tx_id=f"tx-{index}")
        )
    return balances, transfers


@st.composite
def escrow_scripts(draw):
    """A batch plus a per-transaction decision: commit, abort, or leave open."""
    balances, transfers = draw(transfer_batches())
    decisions = [
        draw(st.sampled_from(["commit", "abort", "open"])) for _ in transfers
    ]
    return balances, transfers, decisions


def run_script(balances, transfers, decisions):
    store = StateStore()
    store.load_accounts(balances)
    elog = EscrowLog(store)
    fully_escrowed = []
    for tx, decision in zip(transfers, decisions):
        results = [elog.escrow(op, tx) for op in tx.decrement_operations()]
        if not all(result.success for result in results):
            elog.abort_escrow(tx)
            continue
        if decision == "commit":
            elog.commit_escrow(tx)
            for op in tx.increment_operations():
                store.credit(op.key, op.amount)
            fully_escrowed.append(tx)
        elif decision == "abort":
            elog.abort_escrow(tx)
        else:
            fully_escrowed.append(tx)
    return store, elog


class TestEscrowProperties:
    @given(escrow_scripts())
    @settings(max_examples=150, deadline=None)
    def test_no_balance_ever_violates_its_condition(self, script):
        balances, transfers, decisions = script
        store, _ = run_script(balances, transfers, decisions)
        for account in ACCOUNTS:
            assert store.balance_of(account) >= 0

    @given(escrow_scripts())
    @settings(max_examples=150, deadline=None)
    def test_value_is_conserved_including_reservations(self, script):
        balances, transfers, decisions = script
        store, elog = run_script(balances, transfers, decisions)
        initial_supply = sum(balances.values())
        # Committed transfers move value between accounts; open reservations
        # hold it in the escrow log; aborted ones refund it.  Nothing is lost.
        # Committed payments also credit their payees, so the total owned
        # value plus outstanding reservations must equal the initial supply.
        assert store.total_owned_value() + elog.total_reserved() == initial_supply

    @given(escrow_scripts())
    @settings(max_examples=150, deadline=None)
    def test_atomicity_reservations_all_or_nothing(self, script):
        balances, transfers, decisions = script
        store, elog = run_script(balances, transfers, decisions)
        for tx, decision in zip(transfers, decisions):
            entries = elog.entries_for_transaction(tx)
            payer_count = len(tx.payers())
            # Either every payer still holds a reservation (transaction open)
            # or none does (committed, aborted, or never fully escrowed).
            assert len(entries) in (0, payer_count)

    @given(escrow_scripts())
    @settings(max_examples=100, deadline=None)
    def test_abort_everything_restores_initial_balances(self, script):
        balances, transfers, _ = script
        store = StateStore()
        store.load_accounts(balances)
        elog = EscrowLog(store)
        for tx in transfers:
            for op in tx.decrement_operations():
                elog.escrow(op, tx)
        for tx in transfers:
            elog.abort_escrow(tx)
        for account in ACCOUNTS:
            assert store.balance_of(account) == balances[account]
        assert len(elog) == 0

    @given(escrow_scripts())
    @settings(max_examples=100, deadline=None)
    def test_escrow_log_internal_consistency(self, script):
        balances, transfers, decisions = script
        store, elog = run_script(balances, transfers, decisions)
        # Per-key views, per-transaction views and the aggregate reserve must
        # describe the same set of entries.
        per_key_total = sum(elog.pending_amount(account) for account in ACCOUNTS)
        per_tx_total = sum(
            entry.amount
            for tx in transfers
            for entry in elog.entries_for_transaction(tx)
        )
        assert per_key_total == elog.total_reserved()
        assert per_tx_total == elog.total_reserved()
        assert len(elog) == sum(len(elog.entries_for_key(account)) for account in ACCOUNTS)


class RecordingStore(StateStore):
    """A store that remembers every credit, so refund order is observable."""

    def __init__(self) -> None:
        super().__init__()
        self.credits: list[tuple[str, int]] = []

    def credit(self, key: str, amount: int) -> int:
        self.credits.append((key, int(amount)))
        return super().credit(key, amount)


class ScanReferenceLog:
    """Reference ``elog``: one ``(key, tx_id) -> amount`` dict in escrow order,
    settled by scanning every entry — the semantics the keyed log keeps."""

    def __init__(self, balances):
        self.balances = dict(balances)
        self.entries: dict[tuple[str, str], int] = {}
        self.credits: list[tuple[str, int]] = []

    def escrow(self, key, tx_id, amount):
        if (key, tx_id) in self.entries:
            return True
        if self.balances[key] - amount < 0:
            return False
        self.balances[key] -= amount
        self.entries[(key, tx_id)] = amount
        return True

    def settle(self, tx_id, refund):
        keys = [k for k in self.entries if k[1] == tx_id]
        for key in keys:
            amount = self.entries.pop(key)
            if refund:
                self.balances[key[0]] += amount
                self.credits.append((key[0], amount))
        return len(keys)

    def entries_for(self, tx_id):
        return [
            (key, tx, amount) for (key, tx), amount in self.entries.items() if tx == tx_id
        ]

    def dump(self):
        return [[key, tx, amount] for (key, tx), amount in sorted(self.entries.items())]

    def reload(self):
        # A snapshot restores the sorted dump, so after a reload the scan
        # order is dump order, not the original escrow order.
        self.entries = {(key, tx): amount for key, tx, amount in self.dump()}


@st.composite
def elog_scripts(draw):
    """Balances, transactions and a script of escrow/settle/reload steps."""
    balances, transfers = draw(transfer_batches())
    step = st.one_of(
        st.tuples(
            st.just("escrow"),
            st.integers(0, len(transfers) - 1),
            st.integers(0, 1),
        ),
        st.tuples(
            st.sampled_from(["commit", "abort"]),
            st.integers(0, len(transfers) - 1),
            st.just(0),
        ),
        st.tuples(st.just("reload"), st.just(0), st.just(0)),
    )
    return balances, transfers, draw(st.lists(step, max_size=40))


class TestKeyedLogMatchesScanReference:
    @given(elog_scripts())
    @settings(max_examples=200, deadline=None)
    def test_every_observable_matches_the_scan_model(self, script):
        balances, transfers, steps = script
        store = RecordingStore()
        store.load_accounts(balances)
        elog = EscrowLog(store)
        reference = ScanReferenceLog(balances)
        for action, index, which in steps:
            tx = transfers[index]
            if action == "escrow":
                # ``which`` past the last payer re-escrows the first one,
                # exercising the duplicate (idempotent) path.
                operations = tx.decrement_operations()
                operation = operations[min(which, len(operations) - 1)]
                result = elog.escrow(operation, tx)
                expected = reference.escrow(operation.key, tx.tx_id, operation.amount)
                assert result.success == expected
            elif action == "commit":
                assert elog.commit_escrow(tx) == reference.settle(tx.tx_id, False)
            elif action == "abort":
                assert elog.abort_escrow(tx) == reference.settle(tx.tx_id, True)
            else:
                rows = elog.dump_entries()
                elog = EscrowLog(store)
                elog.load_entries(rows)
                reference.reload()
            assert store.credits == reference.credits
            assert len(elog) == len(reference.entries)
            assert elog.dump_entries() == reference.dump()
            for account in ACCOUNTS:
                assert store.balance_of(account) == reference.balances[account]
            for candidate in transfers:
                assert [
                    (e.key, e.tx_id, e.amount)
                    for e in elog.entries_for_transaction(candidate)
                ] == reference.entries_for(candidate.tx_id)


def test_settling_one_transaction_among_thousands_pending_touches_only_it():
    store = RecordingStore()
    store.load_accounts({f"payer-{i}": 10 for i in range(3000)} | {"a": 5, "b": 5})
    elog = EscrowLog(store)
    pending = [payment({f"payer-{i}": 1}, {"sink": 1}, tx_id=f"p{i}") for i in range(3000)]
    for tx in pending:
        (operation,) = tx.decrement_operations()
        assert elog.escrow(operation, tx).success
    target = payment({"b": 2, "a": 3}, {"sink": 5}, tx_id="target")
    for operation in target.decrement_operations():
        assert elog.escrow(operation, target).success
    before = elog.dump_entries()
    assert len(elog) == 3002

    assert elog.abort_escrow(target) == 2
    assert store.credits == [("b", 2), ("a", 3)]
    assert (store.balance_of("a"), store.balance_of("b")) == (5, 5)
    assert elog.dump_entries() == [row for row in before if row[1] != "target"]
    assert len(elog) == 3000

    assert elog.commit_escrow(pending[1234]) == 1
    assert elog.entries_for_transaction(pending[1234]) == []
    assert len(elog) == 2999 and elog.total_reserved() == 2999
    assert store.credits == [("b", 2), ("a", 3)]
