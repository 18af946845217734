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
    ``n + 1``, Partition's ``2``). Every cached count records exactly one
    via :meth:`~repro.data.database.TransactionDatabase.count_logical_pass`.
physical pass
    An actual read of the rows. The cache build is one; later counts are
    zero until the fingerprint invalidates or evicted items need a rebuild.

Generalized counting gets the biggest win: a category's bitmap is the OR
of its descendants' bitmaps, computed lazily and memoized, so no per-row
``ancestor_closure`` extension ever happens — bit-identical to Cumulate
counting (property-tested against the ``"brute"`` engine).

Staleness is impossible by construction: :func:`get_index` revalidates the
fingerprint on every use and rebuilds on mismatch
(:meth:`~repro.data.database.TransactionDatabase.cache_token` for the
in-memory database is the rows tuple itself; the file-backed database
tokens on inode/size/mtime). A bounded memory budget evicts in LRU order —
derived category bitmaps first (recomputable for free), then base item
bitmaps (restored by a single targeted physical pass on next use).
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from collections.abc import Collection, Iterable

from .._util import check_positive
from ..errors import DatabaseError
from ..itemset import Itemset
from ..obs import api as obs
from ..obs.registry import MetricsRegistry, stats_property
from ..taxonomy.tree import Taxonomy

#: Approximate per-entry dict overhead (key + table slot), added to
#: the payload size of each bitmap when tracking the memory footprint.
_ENTRY_OVERHEAD = 64


def _entry_bytes(bitmap: int) -> int:
    """Approximate footprint of one stored big-int bitmap."""
    return sys.getsizeof(bitmap) + _ENTRY_OVERHEAD


class CacheStats:
    """Observable accounting of vertical-cache activity.

    Since the observability layer (DESIGN.md §8) every field is a view
    over a :class:`~repro.obs.registry.MetricsRegistry` — reads and
    writes (``stats.hits += 1``) go straight to named registry metrics,
    so the same numbers feed :class:`repro.core.negmining.MiningStats`,
    the ``--metrics`` summary and the trace file without hand-threaded
    copies. By default each instance owns a private registry (the
    classic standalone-accumulator behavior); pass ``registry=`` to
    record into a shared one (e.g. the active observability session's),
    and ``prefix=`` to namespace the metrics (worker processes record
    under ``worker.``).

    Attributes
    ----------
    hits:
        Counting passes served from an already-built index
        (``cache.hits``).
    misses:
        Counting passes that had to build (or rebuild) an index
        (``cache.misses``).
    invalidations:
        Rebuilds forced by a fingerprint mismatch — data changed under
        the cache (``cache.invalidations``).
    evictions:
        Bitmaps dropped by the LRU memory budget (``cache.evictions``).
    rebuilt_items:
        Evicted base bitmaps restored by a targeted physical pass
        (``cache.rebuilt_items``).
    bytes:
        High-water-mark footprint of the index (gauge ``cache.bytes``;
        merging registries keeps the maximum).
    kernel_batches:
        Vectorized candidate batches executed by the bit-packed NumPy
        kernel (``kernel.batches``) — nonzero only under the packed
        engines (``"numpy"``, ``"mmap"``, ``"parallel-shm"``).
    kernel_words:
        64-bit words gathered and intersected by those batches
        (``kernel.words``) — the kernel's work volume.
    extensions:
        Incremental catch-ups: an index or segmented matrix absorbed
        appended rows in O(append) instead of rebuilding
        (``cache.extensions``).
    matrix_bytes:
        High-water footprint of an in-RAM packed matrix (gauge
        ``kernel.matrix_bytes``) — the number the out-of-core engine
        keeps bounded.
    segments_packed / segments_extended / segments_reused:
        Segmented-matrix maintenance (``counting.segments.*``): blocks
        packed from scratch, tail blocks extended in place, and blocks
        reused untouched across a sync.
    segments_spilled_bytes / segments_resident_bytes:
        Gauges of bytes persisted under the spill directory and the
        high-water bytes of concurrently open segment blocks (the
        ``max_resident_bytes`` bound is asserted against the latter).
    segments_mmap_reads:
        Segment blocks re-opened from disk via ``np.memmap``
        (``counting.segments.mmap_reads``).
    """

    #: field name -> (metric kind, registry metric name)
    _FIELDS = {
        "hits": ("counter", "cache.hits"),
        "misses": ("counter", "cache.misses"),
        "invalidations": ("counter", "cache.invalidations"),
        "evictions": ("counter", "cache.evictions"),
        "rebuilt_items": ("counter", "cache.rebuilt_items"),
        "extensions": ("counter", "cache.extensions"),
        "bytes": ("gauge", "cache.bytes"),
        "kernel_batches": ("counter", "kernel.batches"),
        "kernel_words": ("counter", "kernel.words"),
        "matrix_bytes": ("gauge", "kernel.matrix_bytes"),
        "segments_packed": ("counter", "counting.segments.packed"),
        "segments_extended": ("counter", "counting.segments.extended"),
        "segments_reused": ("counter", "counting.segments.reused"),
        "segments_spilled_bytes": (
            "gauge", "counting.segments.spilled_bytes"
        ),
        "segments_resident_bytes": (
            "gauge", "counting.segments.resident_bytes"
        ),
        "segments_mmap_reads": ("counter", "counting.segments.mmap_reads"),
    }

    __slots__ = ("registry", "_prefix")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        prefix: str = "",
        **values: int,
    ) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._prefix = prefix
        for name, value in values.items():
            if name not in self._FIELDS:
                raise TypeError(
                    f"CacheStats has no field {name!r}; "
                    f"choose from {tuple(self._FIELDS)}"
                )
            setattr(self, name, value)

    @property
    def hit_rate(self) -> float:
        """Fraction of counting passes served without a physical build."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name in self._FIELDS
        )
        return f"CacheStats({fields})"


for _name, (_kind, _metric) in CacheStats._FIELDS.items():
    setattr(CacheStats, _name, stats_property(_metric, _kind))
del _name, _kind, _metric


class VerticalIndex:
    """Per-item transaction bitsets over one database snapshot.

    Bit ``t`` of ``bits[item]`` is set when transaction ``t`` contains the
    item. Category bitmaps under a taxonomy are derived lazily (OR over
    children, recursively) and memoized per taxonomy. Each bitmap is one
    Python ``int``.

    Build through :meth:`build` (physical pass over a scan-counted
    database, rebuildable after eviction) or :meth:`from_rows` (one-shot
    over materialized rows; no rebuild source).
    """

    __slots__ = (
        "n_rows",
        "evictions",
        "_bits",
        "_derived",
        "_evicted",
        "_source",
        "_token",
        "_epoch",
        "_budget",
        "_nbytes",
        "_tax_refs",
    )

    def __init__(
        self, n_rows: int, budget_bytes: int | None = None
    ) -> None:
        if budget_bytes is not None:
            check_positive(budget_bytes, "budget_bytes")
        self.n_rows = n_rows
        self.evictions = 0
        self._bits: OrderedDict[int, object] = OrderedDict()
        self._derived: OrderedDict[tuple[int, int], object] = OrderedDict()
        self._evicted: set[int] = set()
        self._source = None
        self._token = None
        self._epoch = None
        self._budget = budget_bytes
        self._nbytes = 0
        # Strong refs to taxonomies keyed by id() so memo keys can never
        # collide with a recycled id after garbage collection.
        self._tax_refs: dict[int, Taxonomy] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, database, budget_bytes: int | None = None
    ) -> "VerticalIndex":
        """One physical pass over *database* materializing all bitmaps.

        The read goes through ``database.physical_scan()`` so it counts as
        a physical pass but not a logical one (the logical counting pass
        is recorded by :func:`count_with_index`, once per count).
        """
        index = cls(len(database), budget_bytes)
        index._source = database
        index._token = database.cache_token()
        epoch_fn = getattr(database, "append_epoch", None)
        index._epoch = epoch_fn()[0] if epoch_fn is not None else None
        with obs.span("cache.build") as span:
            span.annotate("rows", index.n_rows)
            index._ingest(database.physical_scan(), None)
        index._enforce_budget()
        return index

    @classmethod
    def from_rows(cls, rows: Iterable[Itemset]) -> "VerticalIndex":
        """Build over already-materialized rows (no rebuild source).

        Used for one-shot counting over plain iterables. No memory
        budget: without a source there is no way to restore an evicted
        base bitmap.
        """
        materialized = rows if isinstance(rows, (list, tuple)) else list(rows)
        index = cls(len(materialized))
        index._ingest(materialized, None)
        return index

    def _ingest(self, rows: Iterable[Itemset], only: set[int] | None) -> None:
        """Scan *rows* once, building bitmaps (optionally only for *only*)."""
        bits = {} if only is None else dict.fromkeys(only, 0)
        if only is None:
            get = bits.get
            for position, row in enumerate(rows):
                bit = 1 << position
                for item in row:
                    bits[item] = get(item, 0) | bit
        else:
            for position, row in enumerate(rows):
                bit = 1 << position
                for item in row:
                    if item in bits:
                        bits[item] |= bit
        for item, bitmap in bits.items():
            if only is not None and not bitmap:
                # The evicted item vanished from the data source; keep it
                # resolvable as "absent" rather than eternally evicted.
                self._evicted.discard(item)
                continue
            self._bits[item] = bitmap
            self._nbytes += _entry_bytes(bitmap)
            self._evicted.discard(item)

    # ------------------------------------------------------------------
    # Validation / memory
    # ------------------------------------------------------------------
    def valid_for(self, database) -> bool:
        """True when *database* still matches the build-time fingerprint."""
        token = database.cache_token()
        return token is self._token or token == self._token

    def extend_from(self, source, stats: CacheStats | None = None) -> bool:
        """Absorb rows appended to *source* since the index was built.

        Succeeds only when *source* proves the growth is a pure append:
        it carries the same ``append_epoch`` identity the index was
        built against and has strictly more rows. The appended suffix
        (``tail_rows``) is then OR-ed into the stored bitmaps at the old
        row offset — O(append) work, no physical pass over the head.
        Derived category memos are dropped (they lack the tail bits) and
        recomputed lazily; evicted base items stay evicted, since their
        eventual targeted restore scans the *current* full database.
        Returns ``False`` (leaving the index untouched) when the growth
        cannot be proven incremental — callers fall back to a rebuild.
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
            while self._derived:
                _, bitmap = self._derived.popitem(last=False)
                self._nbytes -= _entry_bytes(bitmap)
            tail_bits: dict[int, int] = {}
            for position, row in enumerate(tail):
                bit = 1 << position
                for item in row:
                    tail_bits[item] = tail_bits.get(item, 0) | bit
            for item, bits in tail_bits.items():
                if item in self._evicted:
                    continue
                self._bits[item] = self._bits.get(item, 0) | (bits << old_rows)
            self.n_rows = n_rows
            self._nbytes = sum(
                _entry_bytes(bitmap) for bitmap in self._bits.values()
            )
            token_fn = getattr(source, "cache_token", None)
            if token_fn is not None:
                self._token = token_fn()
        self._enforce_budget()
        if stats is not None:
            stats.bytes = max(stats.bytes, self._nbytes)
        return True

    @property
    def nbytes(self) -> int:
        """Approximate bytes held by base and derived bitmaps."""
        return self._nbytes

    def set_budget(self, budget_bytes: int | None) -> None:
        """Replace the memory budget (``None`` = unbounded).

        A tighter budget is enforced after the next count; lifting it
        restores evicted bitmaps on the next count that finds any.
        """
        if budget_bytes is not None:
            check_positive(budget_bytes, "budget_bytes")
        self._budget = budget_bytes

    def _enforce_budget(self) -> None:
        if self._budget is None:
            return
        # Derived bitmaps first: recomputable from children for free.
        while self._nbytes > self._budget and self._derived:
            _, bitmap = self._derived.popitem(last=False)
            self._nbytes -= _entry_bytes(bitmap)
            self.evictions += 1
        # Then base bitmaps, LRU; restoring one later costs a targeted
        # physical pass.
        while self._nbytes > self._budget and self._bits:
            item, bitmap = self._bits.popitem(last=False)
            self._evicted.add(item)
            self._nbytes -= _entry_bytes(bitmap)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count(
        self,
        candidates: Collection[Itemset],
        taxonomy: Taxonomy | None = None,
        stats: CacheStats | None = None,
    ) -> dict[Itemset, int]:
        """Count every candidate by bitmap intersection; no data pass.

        With *taxonomy*, candidate nodes are matched generalized: a
        category's bitmap is the OR of its own and all its descendants'
        base bitmaps (memoized). Identical counts to extending every row
        with ``ancestor_closure`` first.
        """
        counts: dict[Itemset, int] = {}
        if not candidates:
            return counts
        self._ensure_present(candidates, taxonomy, stats)
        for candidate in candidates:
            mask = self._node_bits(candidate[0], taxonomy)
            for item in candidate[1:]:
                if not mask:
                    break
                mask &= self._node_bits(item, taxonomy)
            counts[candidate] = mask.bit_count()
        self._enforce_budget()
        return counts

    def _node_bits(self, node: int, taxonomy: Taxonomy | None) -> int:
        if taxonomy is None or node not in taxonomy:
            return self._base_bits(node)
        children = taxonomy.children(node)
        if not children:
            return self._base_bits(node)
        key = (id(taxonomy), node)
        memoized = self._derived.get(key)
        if memoized is not None:
            self._derived.move_to_end(key)
            return memoized
        bits = self._base_bits(node)
        for child in children:
            bits |= self._node_bits(child, taxonomy)
        self._derived[key] = bits
        self._nbytes += _entry_bytes(bits)
        self._tax_refs[id(taxonomy)] = taxonomy
        return bits

    def _base_bits(self, item: int) -> int:
        bits = self._bits.get(item)
        if bits is None:
            return 0
        self._bits.move_to_end(item)
        return bits

    def _ensure_present(
        self,
        candidates: Collection[Itemset],
        taxonomy: Taxonomy | None,
        stats: CacheStats | None,
    ) -> None:
        """Restore evicted base bitmaps this count needs, in one pass.

        Unbounded (an earlier caller's budget was lifted), the pass
        restores every evicted bitmap, so no later count reads again.
        """
        if not self._evicted:
            return
        if self._budget is None:
            missing = set(self._evicted)
        else:
            needed: set[int] = set()
            for candidate in candidates:
                needed.update(candidate)
            if taxonomy is not None:
                for node in tuple(needed):
                    if node in taxonomy:
                        needed.update(taxonomy.descendants(node))
            missing = needed & self._evicted
        if not missing:
            return
        if self._source is None:
            raise DatabaseError(
                "vertical index has evicted items but no data source to "
                "rebuild them from"
            )
        with obs.span("cache.rebuild") as span:
            span.annotate("items", len(missing))
            self._ingest(self._source.physical_scan(), missing)
        if stats is not None:
            stats.rebuilt_items += len(missing)

    def __repr__(self) -> str:
        return (
            f"VerticalIndex(rows={self.n_rows}, items={len(self._bits)}, "
            f"evicted={len(self._evicted)}, bytes={self._nbytes})"
        )


# ----------------------------------------------------------------------
# Database-attached caching
# ----------------------------------------------------------------------
def get_index(
    database,
    budget_bytes: int | None = None,
    stats: CacheStats | None = None,
) -> VerticalIndex:
    """The vertical index of *database*, building (or rebuilding) on demand.

    The index is attached to the database object itself; a fingerprint
    check on every call guarantees a mutated database can never serve
    stale counts — it rebuilds instead. A fingerprint mismatch that the
    database can prove is a *pure append* (``append_epoch`` identity
    preserved, more rows) is absorbed incrementally via
    :meth:`VerticalIndex.extend_from` — counted as an extension + hit,
    not an invalidation. Every call applies *budget_bytes* to the index
    it returns (``None`` = unbounded), so one caller's budget never
    outlives its own session.
    """
    cached = getattr(database, "_vertical_index", None)
    if cached is not None:
        cached.set_budget(budget_bytes)
        if cached.valid_for(database):
            if stats is not None:
                stats.hits += 1
            return cached
        if cached.extend_from(database, stats):
            # Pure append: the index caught up in O(append) instead of
            # rebuilding — an incremental hit, not a miss.
            if stats is not None:
                stats.extensions += 1
                stats.hits += 1
            return cached
        if stats is not None:
            stats.invalidations += 1
    if stats is not None:
        stats.misses += 1
    index = VerticalIndex.build(database, budget_bytes)
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
    budget_bytes: int | None = None,
    stats: CacheStats | None = None,
) -> dict[Itemset, int]:
    """The ``"cached"`` engine: count via the vertical index of *source*.

    *source* may be a scan-counted database (the index is cached on it
    and one **logical** pass is recorded per call) or a plain iterable of
    canonical rows (a one-shot index is built, as the serial engines
    would scan the rows once).
    """
    if hasattr(source, "scan"):
        hits_before = stats.hits if stats is not None else 0
        index = get_index(source, budget_bytes=budget_bytes, stats=stats)
        # A cache hit returns an index whose lifetime evictions were
        # already absorbed by earlier calls; only count the new ones.
        served_from_cache = stats is not None and stats.hits > hits_before
        evictions_before = index.evictions if served_from_cache else 0
        source.count_logical_pass()
    else:
        if stats is not None:
            stats.misses += 1
        index = VerticalIndex.from_rows(source)
        evictions_before = 0
    counts = index.count(candidates, taxonomy=taxonomy, stats=stats)
    if stats is not None:
        stats.evictions += index.evictions - evictions_before
        stats.bytes = max(stats.bytes, index.nbytes)
    return counts
