"""The ``mmap`` engine: out-of-core counting over spilled segments.

Counts through a :class:`~repro.mining.segmatrix.SegmentedPackedMatrix`:
the database is packed once into per-segment ``uint64`` word blocks
spilled under a temporary directory, and each pass streams the segments
through a bounded resident set of ``np.memmap`` blocks — the only engine
whose peak memory is a policy knob (``max_resident_bytes`` /
``--max-resident``) instead of a function of |D|. Per-segment
fingerprints make maintenance incremental: appending transactions
extends the tail segment in place and reuses every other block
untouched, so the matrix — like the vertical cache — is kept up to date
in O(append), not O(|D|).

The module is named ``outofcore`` (not ``mmap``) so it never shadows the
stdlib :mod:`mmap` that NumPy's memmap machinery imports.
"""

from __future__ import annotations

from collections.abc import Collection

from ...itemset import Itemset
from ...obs.registry import MetricsRegistry
from ..segmatrix import SegmentedPackedMatrix
from .base import (
    Capabilities,
    CountingEngine,
    EngineState,
    register_engine,
)


@register_engine("mmap")
class MmapEngine(CountingEngine):
    """Segmented mmap-backed counting with bounded resident bytes.

    The segmented matrix is owned by the engine (not attached to the
    database like the vertical cache) and
    persists across passes: each ``count()`` synchronizes it against the
    source — a no-op on an unchanged database, an O(append) tail
    extension after ``database.append(...)``, a fingerprint-guided
    repack otherwise — then records one logical pass and streams the
    segment blocks. Plain row iterables get a one-shot matrix that is
    closed before returning. Taxonomy candidates are matched by
    descendant-OR per segment, so ``restrict_to_candidate_items`` is
    moot, exactly as for the ``cached`` engine.
    """

    capabilities = Capabilities(
        packed=True,
        caching=True,
        out_of_core=True,
    )

    def __init__(
        self,
        segment_rows: int | None = None,
        max_resident_bytes: int | None = None,
        spill_dir: str | None = None,
    ) -> None:
        self.segment_rows = segment_rows
        self.max_resident_bytes = max_resident_bytes
        self.spill_dir = spill_dir
        self._matrix: SegmentedPackedMatrix | None = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop the segmented matrix and its spill directory."""
        matrix, self._matrix = self._matrix, None
        if matrix is not None:
            matrix.close()

    def __del__(self) -> None:  # pragma: no cover — GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- counting ------------------------------------------------------

    def matrix_for(
        self, source, metrics: MetricsRegistry
    ) -> SegmentedPackedMatrix:
        """The engine's segmented matrix, synchronized with *source*."""
        if self._matrix is None or self._matrix.closed:
            self._matrix = SegmentedPackedMatrix(
                segment_rows=self.segment_rows,
                max_resident_bytes=self.max_resident_bytes,
                spill_dir=self.spill_dir,
            )
        self._matrix.sync(source, metrics)
        return self._matrix

    def count(
        self,
        state: EngineState,
        candidates: Collection[Itemset],
        *,
        restrict_to_candidate_items: bool = False,
        metrics: MetricsRegistry,
    ) -> dict[Itemset, int]:
        source = state.transactions
        if hasattr(source, "scan"):
            matrix = self.matrix_for(source, metrics)
            source.count_logical_pass()
            return matrix.count(
                candidates, taxonomy=state.taxonomy, metrics=metrics
            )
        metrics.incr("cache.misses")
        with SegmentedPackedMatrix.from_rows(
            state.rows(),
            segment_rows=self.segment_rows,
            max_resident_bytes=self.max_resident_bytes,
            spill_dir=self.spill_dir,
            metrics=metrics,
        ) as matrix:
            return matrix.count(
                candidates, taxonomy=state.taxonomy, metrics=metrics
            )
