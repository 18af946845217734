"""Persistent vertical bitmap index: build once, count every pass for free.

The paper's cost model is *passes over the data*, yet the row-scanning
``"bitmap"`` engine rebuilds its per-item transaction bitsets from scratch
on every counting pass — one rebuild per Apriori level, then more for the
negative-mining expectation counts. This module
amortizes that: one physical scan of a database materializes a
:class:`VerticalIndex` (per-item Python ``int`` bitsets), attached to the
database and keyed by a *fingerprint*; every later counting pass intersects
cached bitmaps instead of re-reading rows.

Pass semantics split in two:

logical pass
    One counting pass in the paper's cost model (the Improved miner's
    ``n + 1``). Every cached count records exactly one
    via :meth:`~repro.data.database.TransactionDatabase.count_logical_pass`.
physical pass
    An actual read of the rows. The cache build is one; later counts are
    zero until the fingerprint invalidates.

Generalized counting gets the biggest win: a category's bitmap is the OR
of its descendants' bitmaps, computed lazily and memoized, so no per-row
``ancestor_closure`` extension ever happens — bit-identical to Cumulate
counting (property-tested against the ``"brute"`` engine).

Staleness is impossible by construction: :func:`get_index` revalidates the
fingerprint on every use and rebuilds on mismatch
(:meth:`~repro.data.database.TransactionDatabase.cache_token` for the
in-memory database is the rows tuple itself; the file-backed database
tokens on inode/size/mtime). The index holds every bitmap for the life
of the database; counting with bounded memory is the ``"mmap"`` engine's
job (:mod:`repro.mining.segmatrix`).
"""

from __future__ import annotations

import sys
from collections.abc import Collection, Iterable

from ..itemset import Itemset
from ..obs import api as obs
from ..obs.registry import MetricsRegistry
from ..taxonomy.tree import Taxonomy

#: Approximate per-entry dict overhead (key + table slot), added to
#: the payload size of each bitmap when tracking the memory footprint.
_ENTRY_OVERHEAD = 64


def _entry_bytes(bitmap: int) -> int:
    """Approximate footprint of one stored big-int bitmap."""
    return sys.getsizeof(bitmap) + _ENTRY_OVERHEAD


class VerticalIndex:
    """Per-item transaction bitsets over one database snapshot.

    Bit ``t`` of ``bits[item]`` is set when transaction ``t`` contains the
    item. Category bitmaps under a taxonomy are derived lazily (OR over
    children, recursively) and memoized per taxonomy. Each bitmap is one
    Python ``int``.

    Build through :meth:`build` (physical pass over a scan-counted
    database, extendable on append) or :meth:`from_rows` (one-shot over
    materialized rows).
    """

    __slots__ = (
        "n_rows",
        "_bits",
        "_derived",
        "_token",
        "_epoch",
        "_nbytes",
        "_tax_refs",
    )

    def __init__(self, n_rows: int) -> None:
        self.n_rows = n_rows
        self._bits: dict[int, int] = {}
        self._derived: dict[tuple[int, int], int] = {}
        self._token = None
        self._epoch = None
        self._nbytes = 0
        # Strong refs to taxonomies keyed by id() so memo keys can never
        # collide with a recycled id after garbage collection.
        self._tax_refs: dict[int, Taxonomy] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, database) -> "VerticalIndex":
        """One physical pass over *database* materializing all bitmaps.

        The read goes through ``database.physical_scan()`` so it counts as
        a physical pass but not a logical one (the logical counting pass
        is recorded by :func:`count_with_index`, once per count).
        """
        index = cls(len(database))
        index._token = database.cache_token()
        epoch_fn = getattr(database, "append_epoch", None)
        index._epoch = epoch_fn()[0] if epoch_fn is not None else None
        with obs.span("cache.build") as span:
            span.annotate("rows", index.n_rows)
            index._ingest(database.physical_scan())
        return index

    @classmethod
    def from_rows(cls, rows: Iterable[Itemset]) -> "VerticalIndex":
        """Build over *rows* in one streaming read (one-shot counting).

        The rows are counted while they are ingested, never held as a
        list, so a database's ``scan()`` stays one streaming pass.
        """
        index = cls(0)
        index.n_rows = index._ingest(rows)
        return index

    def _ingest(self, rows: Iterable[Itemset]) -> int:
        """Scan *rows* once, building every base bitmap; return |rows|."""
        bits = self._bits
        get = bits.get
        position = -1
        for position, row in enumerate(rows):
            bit = 1 << position
            for item in row:
                bits[item] = get(item, 0) | bit
        self._nbytes = sum(_entry_bytes(bitmap) for bitmap in bits.values())
        return position + 1

    # ------------------------------------------------------------------
    # Validation / maintenance
    # ------------------------------------------------------------------
    def valid_for(self, database) -> bool:
        """True when *database* still matches the build-time fingerprint."""
        token = database.cache_token()
        return token is self._token or token == self._token

    def extend_from(self, source, metrics: MetricsRegistry) -> bool:
        """Absorb rows appended to *source* since the index was built.

        Succeeds only when *source* proves the growth is a pure append:
        it carries the same ``append_epoch`` identity the index was
        built against and has strictly more rows. The appended suffix
        (``tail_rows``) is then OR-ed into the stored bitmaps at the old
        row offset — O(append) work, no physical pass over the head.
        Derived category memos are dropped (they lack the tail bits) and
        recomputed lazily. Returns ``False`` (leaving the index
        untouched) when the growth cannot be proven incremental —
        callers fall back to a rebuild.
        """
        epoch_fn = getattr(source, "append_epoch", None)
        tail_fn = getattr(source, "tail_rows", None)
        if epoch_fn is None or tail_fn is None or self._epoch is None:
            return False
        epoch, n_rows = epoch_fn()
        if epoch is not self._epoch or n_rows <= self.n_rows:
            return False
        tail = tail_fn(self.n_rows)
        if len(tail) != n_rows - self.n_rows:
            return False
        with obs.span("cache.extend") as span:
            span.annotate("rows", len(tail))
            old_rows = self.n_rows
            self._derived.clear()
            tail_bits: dict[int, int] = {}
            for position, row in enumerate(tail):
                bit = 1 << position
                for item in row:
                    tail_bits[item] = tail_bits.get(item, 0) | bit
            for item, bits in tail_bits.items():
                self._bits[item] = self._bits.get(item, 0) | (bits << old_rows)
            self.n_rows = n_rows
            self._nbytes = sum(
                _entry_bytes(bitmap) for bitmap in self._bits.values()
            )
            token_fn = getattr(source, "cache_token", None)
            if token_fn is not None:
                self._token = token_fn()
        metrics.max_gauge("cache.bytes", self._nbytes)
        return True

    @property
    def nbytes(self) -> int:
        """Approximate bytes held by base and derived bitmaps."""
        return self._nbytes

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count(
        self,
        candidates: Collection[Itemset],
        taxonomy: Taxonomy | None = None,
    ) -> dict[Itemset, int]:
        """Count every candidate by bitmap intersection; no data pass.

        With *taxonomy*, candidate nodes are matched generalized: a
        category's bitmap is the OR of its own and all its descendants'
        base bitmaps (memoized). Identical counts to extending every row
        with ``ancestor_closure`` first.

        Each distinct node is resolved to its bitmap once per call (the
        taxonomy is consulted once per node, not once per occurrence);
        the candidates are then intersected from that table.
        """
        counts: dict[Itemset, int] = {}
        if not candidates:
            return counts
        nodes: set[int] = set()
        for candidate in candidates:
            nodes.update(candidate)
        if taxonomy is None:
            get = self._bits.get
            table = {node: get(node, 0) for node in nodes}
        else:
            table = {}
            for node in nodes:
                self._resolve(node, taxonomy, table)
        for candidate in candidates:
            mask = table[candidate[0]]
            for item in candidate[1:]:
                if not mask:
                    break
                mask &= table[item]
            counts[candidate] = mask.bit_count()
        return counts

    def _resolve(
        self, node: int, taxonomy: Taxonomy, table: dict[int, int]
    ) -> int:
        """The generalized bitmap of *node*, entered into *table*."""
        bits = table.get(node)
        if bits is not None:
            return bits
        key = (id(taxonomy), node)
        bits = self._derived.get(key)
        if bits is None:
            bits = self._bits.get(node, 0)
            children = taxonomy.children(node) if node in taxonomy else ()
            if children:
                for child in children:
                    bits |= self._resolve(child, taxonomy, table)
                self._derived[key] = bits
                self._nbytes += _entry_bytes(bits)
                self._tax_refs[id(taxonomy)] = taxonomy
        table[node] = bits
        return bits

    def __repr__(self) -> str:
        return (
            f"VerticalIndex(rows={self.n_rows}, items={len(self._bits)}, "
            f"bytes={self._nbytes})"
        )


# ----------------------------------------------------------------------
# Database-attached caching
# ----------------------------------------------------------------------
def get_index(
    database, metrics: MetricsRegistry | None = None
) -> VerticalIndex:
    """The vertical index of *database*, building (or rebuilding) on demand.

    The index is attached to the database object itself; a fingerprint
    check on every call guarantees a mutated database can never serve
    stale counts — it rebuilds instead. A fingerprint mismatch that the
    database can prove is a *pure append* (``append_epoch`` identity
    preserved, more rows) is absorbed incrementally via
    :meth:`VerticalIndex.extend_from` — counted as an extension + hit,
    not an invalidation. The ``cache.*`` counters land in *metrics*.
    """
    if metrics is None:
        metrics = MetricsRegistry()
    cached = getattr(database, "_vertical_index", None)
    if cached is not None:
        if cached.valid_for(database):
            metrics.incr("cache.hits")
            return cached
        if cached.extend_from(database, metrics):
            # Pure append: the index caught up in O(append) instead of
            # rebuilding — an incremental hit, not a miss.
            metrics.incr("cache.extensions")
            metrics.incr("cache.hits")
            return cached
        metrics.incr("cache.invalidations")
    metrics.incr("cache.misses")
    index = VerticalIndex.build(database)
    try:
        database._vertical_index = index
    except AttributeError:
        pass  # Foreign database type without the cache slot.
    return index


def invalidate(database) -> None:
    """Drop the vertical index attached to *database*."""
    try:
        database._vertical_index = None
    except AttributeError:
        pass


def count_with_index(
    source,
    candidates: Collection[Itemset],
    taxonomy: Taxonomy | None = None,
    metrics: MetricsRegistry | None = None,
) -> dict[Itemset, int]:
    """The ``"cached"`` engine: count via the vertical index of *source*.

    *source* may be a scan-counted database (the index is cached on it
    and one **logical** pass is recorded per call) or a plain iterable of
    canonical rows (a one-shot index is built, as the serial engines
    would scan the rows once).
    """
    if metrics is None:
        metrics = MetricsRegistry()
    if hasattr(source, "scan"):
        index = get_index(source, metrics)
        source.count_logical_pass()
    else:
        metrics.incr("cache.misses")
        index = VerticalIndex.from_rows(source)
    counts = index.count(candidates, taxonomy=taxonomy)
    metrics.max_gauge("cache.bytes", index.nbytes)
    return counts
