"""NumPy bit-packed counting kernel: batched word-AND plus popcount.

The pure-Python engines count one candidate at a time against
arbitrary-precision integer bitmaps (``mask &= other; mask.bit_count()``).
That inner loop is the remaining hot path once the vertical index cache
has collapsed physical passes to ~1 (DESIGN.md §6). This module replaces
it with the word-packed vertical layout of the MAFIA / diffset literature
(Burdick et al. 2001; Zaki & Gouda 2003 — see PAPERS.md): every item owns
one row of ``ceil(n_rows / 64)`` little-endian ``uint64`` words, bit ``t``
of the row set when transaction ``t`` contains the item, and whole batches
of candidates are counted at once:

1. gather each candidate's item rows into a ``(batch, k, n_words)`` cube,
2. ``np.bitwise_and.reduce`` over the item axis — one intersection per
   candidate, all in C,
3. a vectorized popcount: ``np.bitwise_count`` where it exists
   (NumPy >= 2.0), otherwise view the result as ``uint8`` and sum a
   256-entry lookup table — the two paths return identical ``int64``
   counts, and the NumPy-1.x CI leg exercises the LUT fallback.

Packing is vectorized too: one Python-level flatten of the rows, then a
``searchsorted`` membership filter, a boolean scatter, and one
``np.packbits`` call — no arbitrary-precision integer arithmetic on the
hot path. Candidate slot resolution is equally array-shaped: each node's
row is resolved once, and whole ``(n, k)`` candidate blocks map to row
indices via ``searchsorted``.

The batching layer bounds peak memory: a batch never gathers more than
``batch_words`` 64-bit words (default ~16 MiB), so candidate sets of any
size stream through a fixed-size working set.

Generalized (taxonomy) counting never extends rows: a category's packed
row is the OR of its own and all its descendants' base rows
(``np.bitwise_or.reduce``), memoized per call — the same descendant-OR
argument as the cached engine's big-int path (DESIGN.md §6.1), and
bit-identical to per-row ``ancestor_closure`` extension (property-tested
against the ``"brute"`` oracle).

Consumers: :func:`count_candidates` is the batched kernel behind
:meth:`PackedMatrix.count`; the out-of-core segments of
:mod:`repro.mining.segmatrix` (``"mmap"``) wrap each spilled block in
one.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Collection, Iterable
from itertools import chain

import numpy as np

from .._util import check_positive
from ..errors import ConfigError
from ..itemset import Itemset
from ..obs.registry import MetricsRegistry
from ..taxonomy.tree import Taxonomy

#: Upper bound on the 64-bit words gathered per kernel batch — the
#: ``(batch, k, n_words)`` cube of step 1. 2**21 words = 16 MiB.
DEFAULT_BATCH_WORDS = 1 << 21

#: Per-byte population counts; indexing this with a ``uint8`` view of the
#: intersection words and summing is the popcount that works on both
#: NumPy 1.x and 2.x.
_POPCOUNT_LUT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def words_for(n_rows: int) -> int:
    """Number of 64-bit words holding one bit per transaction."""
    return (n_rows + 63) >> 6


def zeros(n_words: int) -> np.ndarray:
    """An all-absent packed row (shared zero row for unknown items)."""
    return np.zeros(n_words, dtype=np.uint64)


def _popcount_lut(words: np.ndarray) -> np.ndarray:
    """LUT popcount — the NumPy-1.x fallback (no ``np.bitwise_count``)."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT_LUT[as_bytes].sum(axis=-1, dtype=np.int64)


def _popcount_native(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def popcount(words: np.ndarray) -> np.ndarray:
    """Population count over the last axis of a ``uint64`` array.

    ``(n_words,)`` input yields a scalar, ``(batch, n_words)`` a
    ``(batch,)`` vector of per-candidate counts. Uses the native
    ``np.bitwise_count`` ufunc on NumPy >= 2.0 and the byte-LUT path on
    1.x; both return identical ``int64`` counts.
    """
    return _POPCOUNT(words)


_POPCOUNT = (
    _popcount_native if hasattr(np, "bitwise_count") else _popcount_lut
)


def count_candidates(
    resolve: Callable[[int], np.ndarray],
    candidates: Collection[Itemset],
    n_words: int,
    batch_words: int | None = None,
    metrics: MetricsRegistry | None = None,
) -> dict[Itemset, int]:
    """Batched AND-of-rows + popcount for every candidate.

    *resolve(node)* returns the packed row of a node (base item row,
    derived category row, or a zero row for absent items); it is called
    once per distinct node. Candidates are grouped by size — the gather
    needs rectangular index blocks — and each size is streamed in batches
    whose gathered footprint stays under *batch_words* 64-bit words.
    Each executed batch adds one to the ``kernel.batches`` counter of
    *metrics* and the 64-bit words it gathered (its work volume) to
    ``kernel.words``.
    """
    counts: dict[Itemset, int] = {}
    if not candidates:
        return counts
    if metrics is None:
        metrics = MetricsRegistry()
    if batch_words is None:
        budget = DEFAULT_BATCH_WORDS
    else:
        budget = check_positive(batch_words, "batch_words")
    by_size: dict[int, list[Itemset]] = defaultdict(list)
    unique_nodes: set[int] = set()
    for candidate in candidates:
        if not candidate:
            raise ConfigError("cannot count an empty candidate itemset")
        by_size[len(candidate)].append(candidate)
        unique_nodes.update(candidate)
    nodes = sorted(unique_nodes)
    matrix = np.vstack([resolve(node) for node in nodes])
    nodes_arr = np.asarray(nodes, dtype=np.int64)

    for size, group in by_size.items():
        # Whole candidate blocks map to row indices in one searchsorted —
        # every candidate node is in nodes_arr by construction.
        slots = np.searchsorted(
            nodes_arr, np.asarray(group, dtype=np.int64)
        )
        per_candidate_words = size * max(n_words, 1)
        batch = max(1, budget // per_candidate_words)
        for start in range(0, len(group), batch):
            block = slots[start:start + batch]
            masks = np.bitwise_and.reduce(matrix[block], axis=1)
            totals = popcount(masks)
            counts.update(zip(group[start:start + batch], totals.tolist()))
            metrics.incr("kernel.batches")
            metrics.incr("kernel.words", len(block) * per_candidate_words)
    return counts


class PackedMatrix:
    """Bit-packed vertical transaction matrix over one pass of rows.

    One ``uint64`` row of :func:`words_for` words per item occurring in
    the rows (other items resolve to an all-zero row); derived category
    rows (OR over descendants) are memoized per taxonomy for the
    lifetime of the matrix.
    """

    __slots__ = (
        "n_rows", "n_words", "_nodes", "_matrix", "_slot", "_derived",
        "_zero",
    )

    def __init__(
        self, n_rows: int, nodes: np.ndarray, matrix: np.ndarray
    ) -> None:
        self.n_rows = n_rows
        self.n_words = words_for(n_rows)
        self._nodes = nodes
        self._matrix = matrix
        self._slot = {int(node): slot for slot, node in enumerate(nodes)}
        self._derived: dict[tuple[int, int], np.ndarray] = {}
        self._zero = zeros(self.n_words)

    @classmethod
    def from_rows(cls, transactions: Iterable[Itemset]) -> "PackedMatrix":
        """Pack one scan of *transactions*, one row per distinct item.

        Entirely array-shaped after a single Python-level flatten: a
        ``searchsorted`` membership filter, one boolean scatter, and one
        little-endian ``np.packbits`` — the packed bytes reinterpret
        directly as the ``uint64`` word rows.
        """
        rows = (
            transactions
            if isinstance(transactions, (list, tuple))
            else list(transactions)
        )
        n_rows = len(rows)
        n_words = words_for(n_rows)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n_rows)
        items = np.fromiter(
            chain.from_iterable(rows),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        nodes = np.unique(items)
        if not len(nodes) or not n_words:
            matrix = np.zeros((len(nodes), n_words), dtype=np.uint64)
            return cls(n_rows, nodes, matrix)
        positions = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
        top = int(nodes[-1])
        if 0 <= top <= 4 * len(items) + 65536:
            # Dense node-id -> slot table: item ids are small here, so a
            # direct gather beats binary search over 10^4+ occurrences.
            table = np.full(top + 2, -1, dtype=np.int64)
            table[nodes] = np.arange(len(nodes), dtype=np.int64)
            clipped = np.clip(items, 0, top + 1)
            slots = table[clipped]
            present = (slots >= 0) & (items == clipped)
        else:
            slots = np.minimum(
                np.searchsorted(nodes, items), len(nodes) - 1
            )
            present = nodes[slots] == items
        bits = np.zeros((len(nodes), n_words * 64), dtype=bool)
        bits[slots[present], positions[present]] = True
        packed = np.packbits(bits, axis=1, bitorder="little")
        return cls(n_rows, nodes, packed.view("<u8"))

    @property
    def nodes(self) -> np.ndarray:
        """The sorted ``int64`` node ids owning matrix rows, slot order."""
        return self._nodes

    @property
    def words(self) -> np.ndarray:
        """The raw ``(n_items, n_words)`` ``uint64`` word matrix."""
        return self._matrix

    @property
    def nbytes(self) -> int:
        """Bytes held by the slot table plus the word matrix."""
        return int(self._nodes.nbytes) + int(self._matrix.nbytes)

    def row(self, node: int, taxonomy: Taxonomy | None = None) -> np.ndarray:
        """The packed row of *node*; generalized under a taxonomy.

        A category's row is the OR of its own and every descendant's base
        row (memoized). Items absent from the data — or unknown to the
        taxonomy — resolve to a shared zero row / their own base row, the
        same leniency as the cached engine (DESIGN.md §6.1).
        """
        if taxonomy is not None and node in taxonomy:
            if taxonomy.children(node):
                key = (id(taxonomy), node)
                derived = self._derived.get(key)
                if derived is None:
                    members = [
                        self._slot[member]
                        for member in (node, *taxonomy.descendants(node))
                        if member in self._slot
                    ]
                    if members:
                        derived = np.bitwise_or.reduce(
                            self._matrix[members], axis=0
                        )
                    else:
                        derived = self._zero
                    self._derived[key] = derived
                return derived
        slot = self._slot.get(node)
        return self._matrix[slot] if slot is not None else self._zero

    def count(
        self,
        candidates: Collection[Itemset],
        taxonomy: Taxonomy | None = None,
        batch_words: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> dict[Itemset, int]:
        """Count every candidate with the batched kernel."""
        return count_candidates(
            lambda node: self.row(node, taxonomy),
            candidates,
            self.n_words,
            batch_words=batch_words,
            metrics=metrics,
        )

    def __repr__(self) -> str:
        return (
            f"PackedMatrix(rows={self.n_rows}, words={self.n_words}, "
            f"items={len(self._slot)})"
        )

