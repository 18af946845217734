"""Unit tests for the transaction database substrate."""

import pytest

from repro.data.database import TransactionDatabase
from repro.errors import DatabaseError


class TestConstruction:
    def test_canonicalizes_rows(self):
        database = TransactionDatabase([[3, 1, 1, 2]])
        assert database.transaction(0) == (1, 2, 3)

    def test_rejects_empty_transaction(self):
        with pytest.raises(DatabaseError):
            TransactionDatabase([[1], []])

    def test_rejects_empty_database(self):
        with pytest.raises(DatabaseError):
            TransactionDatabase([])

    def test_len(self):
        assert len(TransactionDatabase([[1], [2], [3]])) == 3

    def test_accepts_sets_and_tuples(self):
        database = TransactionDatabase([{2, 1}, (4, 3)])
        assert database.transaction(1) == (3, 4)


class TestScanAccounting:
    def test_scan_counts_passes(self):
        database = TransactionDatabase([[1], [2]])
        assert database.scans == 0
        list(database.scan())
        list(database.scan())
        assert database.scans == 2

    def test_plain_iteration_is_free(self):
        database = TransactionDatabase([[1], [2]])
        list(database)
        assert database.scans == 0

    def test_reset(self):
        database = TransactionDatabase([[1]])
        list(database.scan())
        database.reset_scans()
        assert database.scans == 0

    def test_scan_yields_all_rows(self):
        database = TransactionDatabase([[1, 2], [3]])
        assert list(database.scan()) == [(1, 2), (3,)]


class TestSlice:
    """``from_canonical_rows``: the shared-row constructor."""

    def test_from_canonical_rows_trusts_input(self):
        rows = ((2, 5), (1, 3, 4))
        database = TransactionDatabase.from_canonical_rows(rows)
        assert list(database) == [(2, 5), (1, 3, 4)]
        assert database.transaction(0) is rows[0]
        assert database.scans == 0

    def test_from_canonical_rows_rejects_empty(self):
        with pytest.raises(DatabaseError):
            TransactionDatabase.from_canonical_rows(())


class TestStatistics:
    @pytest.fixture
    def database(self):
        return TransactionDatabase([[1, 2], [2, 3], [2]])

    def test_items(self, database):
        assert database.items == {1, 2, 3}

    def test_item_counts(self, database):
        assert database.item_counts() == {1: 1, 2: 3, 3: 1}

    def test_item_counts_not_a_pass(self, database):
        database.item_counts()
        assert database.scans == 0

    def test_average_length(self, database):
        assert database.average_length() == pytest.approx(5 / 3)

    def test_absolute_and_fraction(self, database):
        assert database.absolute(0.5) == pytest.approx(1.5)
        assert database.fraction(3) == pytest.approx(1.0)

    def test_tid_lookup(self, database):
        assert database.transaction(1) == (2, 3)

    def test_unknown_tid_raises(self, database):
        with pytest.raises(DatabaseError):
            database.transaction(99)

    def test_repr(self, database):
        assert "transactions=3" in repr(database)


class TestAppend:
    def test_append_extends_rows_canonicalized(self):
        database = TransactionDatabase([[1, 2]])
        assert database.append([[3, 1, 1], {5, 4}]) == 2
        assert len(database) == 3
        assert database.transaction(1) == (1, 3)
        assert database.transaction(2) == (4, 5)

    def test_append_empty_batch_is_a_noop(self):
        database = TransactionDatabase([[1]])
        epoch, rows = database.append_epoch()
        assert database.append([]) == 0
        assert database.append_epoch() == (epoch, rows)

    def test_append_rejects_empty_transaction(self):
        database = TransactionDatabase([[1]])
        # The index in the message is absolute: row 1 exists, the empty
        # batch entry would become transaction 2.
        with pytest.raises(DatabaseError, match="transaction 2 is empty"):
            database.append([[2], []])
        assert len(database) == 1  # nothing was applied

    def test_append_preserves_epoch_and_grows_rows(self):
        database = TransactionDatabase([[1], [2]])
        epoch, rows = database.append_epoch()
        database.append([[3]])
        after, grown = database.append_epoch()
        assert after is epoch
        assert (rows, grown) == (2, 3)

    def test_append_maintains_item_counts(self):
        database = TransactionDatabase([[1, 2], [2]])
        assert database.item_counts() == {1: 1, 2: 2}
        database.append([[1, 3]])
        assert database.item_counts() == {1: 2, 2: 2, 3: 1}

    def test_tail_rows_returns_suffix_without_a_pass(self):
        database = TransactionDatabase([[1], [2], [3]])
        database.append([[4], [5]])
        assert database.tail_rows(3) == ((4,), (5,))
        assert database.tail_rows(5) == ()
        assert database.scans == 0
        with pytest.raises(DatabaseError, match="outside"):
            database.tail_rows(6)

    def test_out_of_band_rewrite_gets_a_fresh_epoch(self):
        database = TransactionDatabase([[1], [2]])
        epoch, _ = database.append_epoch()
        database._transactions = ((7,), (8,), (9,))
        after, rows = database.append_epoch()
        assert after is not epoch
        assert rows == 3
        # The new epoch is stable until the next rewrite.
        assert database.append_epoch() == (after, 3)
