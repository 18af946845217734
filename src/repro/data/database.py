"""In-memory transaction database with pass accounting.

``D`` in the paper is "a set of variable length transactions over L" (the
leaf items), each with a unique TID. Here the TID is the transaction's index.
Transactions are stored in canonical itemset form (sorted tuples) so subset
tests against candidates are cheap and deterministic.

The class deliberately models the paper's IO cost: algorithms must go through
:meth:`TransactionDatabase.scan` to read the data, and every completed
iteration increments :attr:`TransactionDatabase.scans`. The ablation bench A6
uses this to verify the Naive miner's ``2n`` passes against the Improved
miner's ``n + 1``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from ..errors import DatabaseError
from ..itemset import Itemset, itemset


class TransactionDatabase:
    """A list of customer transactions with scan counting.

    Parameters
    ----------
    transactions:
        Iterable of item-id iterables. Each transaction is canonicalized
        (sorted, de-duplicated); empty transactions are rejected because
        they carry no information and would skew support fractions.
    """

    __slots__ = (
        "_transactions",
        "_scans",
        "_logical_scans",
        "_item_counts",
        "_vertical_index",
        "_epoch",
        "_epoch_rows",
    )

    def __init__(self, transactions: Iterable[Iterable[int]]) -> None:
        rows: list[Itemset] = []
        for index, raw in enumerate(transactions):
            row = itemset(raw)
            if not row:
                raise DatabaseError(f"transaction {index} is empty")
            rows.append(row)
        if not rows:
            raise DatabaseError("database must contain at least 1 transaction")
        self._transactions: tuple[Itemset, ...] = tuple(rows)
        self._scans = 0
        self._logical_scans = 0
        self._item_counts: dict[int, int] | None = None
        self._vertical_index = None
        self._epoch = object()
        self._epoch_rows = self._transactions

    @classmethod
    def from_canonical_rows(cls, rows: Iterable[Itemset]) -> (
        "TransactionDatabase"
    ):
        """Build a database from rows that are *already canonical*.

        Trusted fast path used by :meth:`slice`: rows must be
        sorted, de-duplicated, non-empty tuples (the invariant every row
        in an existing database already satisfies), and are stored
        without re-canonicalization. Prefer the regular constructor for
        untrusted input.
        """
        database = cls.__new__(cls)
        database._transactions = tuple(rows)
        database._scans = 0
        database._logical_scans = 0
        database._item_counts = None
        database._vertical_index = None
        database._epoch = object()
        database._epoch_rows = database._transactions
        if not database._transactions:
            raise DatabaseError(
                "database must contain at least 1 transaction"
            )
        return database

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[Itemset]:
        """Iterate over all transactions, counting one full pass.

        The scan counter is incremented up-front: algorithms that scan are
        assumed to read the whole database (partial scans are not part of
        the paper's cost model). A ``scan()`` is simultaneously one
        *logical* pass (a counting pass in the paper's cost model) and one
        *physical* pass (an actual read of the rows); the ``"cached"``
        engine splits the two via :meth:`physical_scan` and
        :meth:`count_logical_pass`.
        """
        self._scans += 1
        self._logical_scans += 1
        return iter(self._transactions)

    def physical_scan(self) -> Iterator[Itemset]:
        """Read all rows, counting a *physical* pass only.

        Used by the vertical index cache (:mod:`repro.mining.vertical`)
        when it materializes or repairs bitmaps: the read is real IO but
        not an algorithmic counting pass.
        """
        self._scans += 1
        return iter(self._transactions)

    def count_logical_pass(self) -> None:
        """Record one *logical* counting pass served without reading rows."""
        self._logical_scans += 1

    def transaction(self, tid: int) -> Itemset:
        """Return the transaction with the given TID (its index)."""
        try:
            return self._transactions[tid]
        except IndexError:
            raise DatabaseError(f"unknown TID {tid}") from None

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Itemset]:
        """Iterate *without* counting a pass (for tests and reports)."""
        return iter(self._transactions)

    def slice(self, start: int, stop: int) -> "TransactionDatabase":
        """A new database holding rows ``[start, stop)`` of this one.

        Rows are shared (no copy, no re-canonicalization). The slice is
        an independent database with its own pass counter starting at
        zero: scans of the slice do **not** increment the parent's
        :attr:`scans`.
        """
        rows = self._transactions[start:stop]
        if not rows:
            raise DatabaseError(
                f"slice [{start}, {stop}) of {len(self)} transactions "
                "is empty"
            )
        return TransactionDatabase.from_canonical_rows(rows)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, transactions: Iterable[Iterable[int]]) -> int:
        """Append transactions; returns the number of rows added.

        Rows are canonicalized exactly like the constructor's. The
        database keeps its *append epoch* (see :meth:`append_epoch`), so
        incrementally maintained caches recognize the growth as an
        append — they extend with :meth:`tail_rows` instead of
        rebuilding. The ``cache_token`` changes (the rows tuple is new),
        invalidating any cache that only understands whole-database
        fingerprints.
        """
        rows: list[Itemset] = []
        start = len(self._transactions)
        for index, raw in enumerate(transactions):
            row = itemset(raw)
            if not row:
                raise DatabaseError(f"transaction {start + index} is empty")
            rows.append(row)
        if not rows:
            return 0
        self.append_epoch()  # absorb any out-of-band rewrite first
        self._transactions = self._transactions + tuple(rows)
        self._epoch_rows = self._transactions
        if self._item_counts is not None:
            for row in rows:
                for item in row:
                    self._item_counts[item] = (
                        self._item_counts.get(item, 0) + 1
                    )
        return len(rows)

    def append_epoch(self) -> tuple[object, int]:
        """The database's append lineage: ``(epoch, n_rows)``.

        The *epoch* object is allocated at construction and preserved by
        :meth:`append` — two observations with the same epoch identity
        differ only by appended tail rows (never by rewritten history),
        so a cache synced at ``k`` rows needs only ``tail_rows(k)`` to
        catch up in O(append). Anything that replaces history gets a
        fresh epoch: a new database object, or — for tests and tools
        that swap ``_transactions`` out from under the database — the
        identity check against the last sanctioned rows tuple below,
        which allocates a new epoch on any out-of-band rewrite.
        """
        if self._transactions is not self._epoch_rows:
            self._epoch = object()
            self._epoch_rows = self._transactions
        return self._epoch, len(self._transactions)

    def tail_rows(self, start: int) -> tuple[Itemset, ...]:
        """Canonical rows from *start* on, **without** pass accounting.

        The incremental-maintenance read: callers pair it with
        :meth:`append_epoch` to absorb appends without a physical pass
        over the head of the database.
        """
        if not 0 <= start <= len(self._transactions):
            raise DatabaseError(
                f"tail start {start} outside [0, {len(self._transactions)}]"
            )
        return self._transactions[start:]

    # ------------------------------------------------------------------
    # Pass accounting
    # ------------------------------------------------------------------
    @property
    def scans(self) -> int:
        """Number of full *physical* passes made over the data so far."""
        return self._scans

    @property
    def logical_scans(self) -> int:
        """Number of *logical* counting passes.

        Equal to :attr:`scans` for the row-scanning engines; with the
        ``"cached"`` engine logical passes exceed physical ones, since
        most counts are served from bitmaps without reading rows.
        """
        return self._logical_scans

    def reset_scans(self) -> None:
        """Zero both pass counters (called between benchmark runs)."""
        self._scans = 0
        self._logical_scans = 0

    # ------------------------------------------------------------------
    # Cache fingerprinting
    # ------------------------------------------------------------------
    def cache_token(self) -> object:
        """An identity token for cache invalidation.

        The rows tuple itself: it is immutable, so a vertical index built
        against it stays valid exactly as long as the database still holds
        the same tuple object (or an equal one). Anything that swaps the
        rows out from under the database invalidates every cache keyed on
        the old token.
        """
        return self._transactions

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def items(self) -> frozenset[int]:
        """The set of distinct items occurring in any transaction."""
        return frozenset(self._count_items())

    def item_counts(self) -> dict[int, int]:
        """Absolute occurrence count of every item (cached; not a pass)."""
        return dict(self._count_items())

    def _count_items(self) -> dict[int, int]:
        if self._item_counts is None:
            counts: Counter[int] = Counter()
            for row in self._transactions:
                counts.update(row)
            self._item_counts = dict(counts)
        return self._item_counts

    def average_length(self) -> float:
        """Average transaction length |T|."""
        total = sum(len(row) for row in self._transactions)
        return total / len(self._transactions)

    def absolute(self, fraction: float) -> float:
        """Convert a fractional support threshold to an absolute count."""
        return fraction * len(self._transactions)

    def fraction(self, count: int) -> float:
        """Convert an absolute occurrence count to fractional support."""
        return count / len(self._transactions)

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(transactions={len(self)}, "
            f"items={len(self.items)}, "
            f"avg_length={self.average_length():.2f})"
        )
