"""Unit tests for the disk-backed streaming database."""

import pytest

from repro.core.api import mine_negative_rules
from repro.data.database import TransactionDatabase
from repro.data.filedb import FileBackedDatabase
from repro.data.io import save_basket_file
from repro.errors import DatabaseError
from repro.mining.apriori import find_large_itemsets
from repro.taxonomy.builders import taxonomy_from_nested


@pytest.fixture
def basket_path(tmp_path):
    database = TransactionDatabase(
        [[1, 2, 3], [1, 2], [2, 3], [4], [1, 2, 3, 4]]
    )
    path = tmp_path / "data.basket"
    save_basket_file(database, path)
    return path


class TestFileBackedDatabase:
    def test_rows_match_file(self, basket_path):
        database = FileBackedDatabase(basket_path)
        assert list(database) == [
            (1, 2, 3), (1, 2), (2, 3), (4,), (1, 2, 3, 4)
        ]

    def test_len_and_stats(self, basket_path):
        database = FileBackedDatabase(basket_path)
        assert len(database) == 5
        assert database.items == {1, 2, 3, 4}
        assert database.average_length() == pytest.approx(12 / 5)

    def test_scan_counting(self, basket_path):
        database = FileBackedDatabase(basket_path)
        assert database.scans == 0  # validation read not counted
        list(database.scan())
        list(database.scan())
        assert database.scans == 2
        database.reset_scans()
        assert database.scans == 0

    def test_each_scan_rereads_the_file(self, basket_path):
        database = FileBackedDatabase(basket_path)
        first = list(database.scan())
        # Mutate the file between passes: the next scan must see it.
        with open(basket_path, "a", encoding="utf-8") as handle:
            handle.write("7 8\n")
        second = list(database.scan())
        assert len(second) == len(first) + 1

    def test_absolute_and_fraction(self, basket_path):
        database = FileBackedDatabase(basket_path)
        assert database.absolute(0.4) == pytest.approx(2.0)
        assert database.fraction(2) == pytest.approx(0.4)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatabaseError, match="cannot open"):
            FileBackedDatabase(tmp_path / "nope.basket")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.basket"
        path.write_text("# nothing\n")
        with pytest.raises(DatabaseError, match="no transactions"):
            FileBackedDatabase(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.basket"
        path.write_text("1 2\nx\n")
        with pytest.raises(DatabaseError, match="malformed"):
            FileBackedDatabase(path)

    def test_repr(self, basket_path):
        assert "transactions=5" in repr(FileBackedDatabase(basket_path))


class TestMinersOnFileBackedData:
    def test_apriori_matches_in_memory(self, basket_path):
        in_memory = TransactionDatabase(
            [[1, 2, 3], [1, 2], [2, 3], [4], [1, 2, 3, 4]]
        )
        from_disk = FileBackedDatabase(basket_path)
        assert find_large_itemsets(from_disk, 0.4) == find_large_itemsets(
            in_memory, 0.4
        )

    def test_full_pipeline_streams_from_disk(self, tmp_path):
        taxonomy = taxonomy_from_nested(
            {"drinks": {"soda": ["cola", "lemonade"], "water": ["still"]}}
        )
        cola = taxonomy.id_of("cola")
        lemonade = taxonomy.id_of("lemonade")
        still = taxonomy.id_of("still")
        rows = [[cola, still]] * 40 + [[lemonade]] * 40 + [[cola]] * 20
        path = tmp_path / "pipe.basket"
        save_basket_file(TransactionDatabase(rows), path)

        from_disk = FileBackedDatabase(path)
        result = mine_negative_rules(
            from_disk, taxonomy, minsup=0.2, minri=0.3
        )
        reference = mine_negative_rules(
            TransactionDatabase(rows), taxonomy, minsup=0.2, minri=0.3
        )
        assert {
            (rule.antecedent, rule.consequent) for rule in result.rules
        } == {
            (rule.antecedent, rule.consequent) for rule in reference.rules
        }
        assert from_disk.logical_scans == result.stats.data_passes
        assert result.stats.data_passes == reference.stats.data_passes
        # The default engine serves every pass from one read of the file.
        assert from_disk.scans == result.stats.physical_passes == 1
        row_scanned = FileBackedDatabase(path)
        bitmap = mine_negative_rules(
            row_scanned, taxonomy, minsup=0.2, minri=0.3, engine="bitmap"
        )
        assert row_scanned.scans == bitmap.stats.data_passes
        assert bitmap.rules == result.rules


class TestAppendParity:
    """The file-backed mutation API mirrors the in-memory database's."""

    def append_both(self, basket_path, batch):
        in_memory = TransactionDatabase(
            [[1, 2, 3], [1, 2], [2, 3], [4], [1, 2, 3, 4]]
        )
        on_disk = FileBackedDatabase(basket_path)
        assert in_memory.append(batch) == on_disk.append(batch)
        return in_memory, on_disk

    def test_append_extends_file_and_statistics(self, basket_path):
        in_memory, on_disk = self.append_both(
            basket_path, [[9, 7], {5, 6}]
        )
        assert list(on_disk) == list(in_memory)
        assert len(on_disk) == len(in_memory)
        assert on_disk.items == in_memory.items
        assert on_disk.average_length() == pytest.approx(
            in_memory.average_length()
        )

    def test_append_without_trailing_newline(self, basket_path):
        with open(basket_path, "rb+") as handle:
            handle.seek(-1, 2)
            handle.truncate()  # strip the final newline
        database = FileBackedDatabase(basket_path)
        database.append([[8, 9]])
        assert list(database)[-2:] == [(1, 2, 3, 4), (8, 9)]

    def test_append_empty_batch_is_a_noop(self, basket_path):
        database = FileBackedDatabase(basket_path)
        token = database.cache_token()
        assert database.append([]) == 0
        assert database.cache_token() == token

    def test_append_rejects_empty_transaction(self, basket_path):
        database = FileBackedDatabase(basket_path)
        with pytest.raises(DatabaseError, match="empty"):
            database.append([[1], []])
        assert len(database) == 5  # file untouched

    def test_append_preserves_epoch(self, basket_path):
        database = FileBackedDatabase(basket_path)
        epoch, rows = database.append_epoch()
        database.append([[6]])
        after, grown = database.append_epoch()
        assert after is epoch
        assert (rows, grown) == (5, 6)

    def test_tail_rows_seeks_checkpoint_without_a_pass(self, basket_path):
        database = FileBackedDatabase(basket_path)
        database.append([[6], [7, 8]])
        assert database.tail_rows(5) == [(6,), (7, 8)]
        assert database.tail_rows(6) == [(7, 8)]
        assert database.tail_rows(0) == list(database)
        assert database.scans == 0
        with pytest.raises(DatabaseError, match="outside"):
            database.tail_rows(99)

    def test_item_counts_parity_and_incremental_maintenance(
        self, basket_path
    ):
        in_memory, on_disk = self.append_both(basket_path, [[1, 9]])
        assert on_disk.item_counts() == in_memory.item_counts()
        # Counting again after another append stays in sync.
        in_memory.append([[9]])
        on_disk.append([[9]])
        assert on_disk.item_counts() == in_memory.item_counts()
        assert on_disk.scans == 0

    def test_external_rewrite_gets_fresh_epoch_and_stats(self, basket_path):
        database = FileBackedDatabase(basket_path)
        epoch, _ = database.append_epoch()
        with open(basket_path, "w", encoding="utf-8") as handle:
            handle.write("7 8\n9\n")
        after, rows = database.append_epoch()
        assert after is not epoch
        assert rows == 2
        assert database.items == {7, 8, 9}
        assert database.tail_rows(1) == [(9,)]
        # Stable until the next rewrite.
        assert database.append_epoch() == (after, 2)


class TestIncrementalEnginesOnDisk:
    def test_mmap_recount_after_append_reads_only_the_tail(
        self, basket_path
    ):
        from repro.core.session import MiningSession

        pytest.importorskip("numpy")
        database = FileBackedDatabase(basket_path)
        session = MiningSession(database, engine="mmap", segment_rows=2)
        candidates = [(1,), (2, 3), (1, 2, 3, 4), (9,)]
        session.count(candidates)
        build_scans = database.scans
        database.append([[1, 9], [9]])
        counted = session.count(candidates)
        # The appended suffix was served by tail_rows: no physical pass.
        assert database.scans == build_scans
        reference = MiningSession(list(database), engine="brute").count(
            candidates
        )
        assert counted == reference
        assert session.run_metrics.counter("cache.extensions") == 1

    def test_cached_engine_extends_over_filedb(self, basket_path):
        database = FileBackedDatabase(basket_path)
        from repro.core.session import MiningSession

        session = MiningSession(database, engine="cached")
        candidates = [(1,), (2,), (4,)]
        session.count(candidates)
        build_scans = database.scans
        database.append([[1, 4]])
        counted = session.count(candidates)
        assert database.scans == build_scans
        assert counted == {(1,): 4, (2,): 4, (4,): 3}
        assert session.run_metrics.counter("cache.extensions") == 1
        assert session.run_metrics.counter("cache.invalidations") == 0
