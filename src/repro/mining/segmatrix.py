"""Segmented, memory-mapped packed matrix for out-of-core counting.

The paper's efficiency argument assumes the database does not fit in
memory — passes cost real IO — yet the other packed engines
(``"numpy"``, ``"parallel-shm"``) hold the entire bit-packed word matrix
in RAM and invalidate it wholesale through one global
fingerprint. This module splits the row dimension into fixed-size
*segments*: each segment packs its own rows into a ``uint64`` word block
(one row per item occurring in the segment), spills the block to a file
under a private spill directory, and re-opens it on demand as a
read-only ``np.memmap``. Counting iterates the segments and sums the
per-segment popcounts — integer addition over disjoint row ranges, so
the totals are bit-identical to packing everything at once
(property-tested against the ``"brute"`` oracle).

Three properties fall out of the layout:

bounded residency
    At most ``max_resident_bytes`` of segment blocks are kept open at a
    time (an LRU of blocks; evicting one drops the memmap, releasing
    both RSS and address space). A database far larger than RAM streams
    through a fixed-size working set — the Partition insight of the
    paper's authors (VLDB 1995) applied to the packed representation.

per-segment fingerprints
    Each segment carries a row-chained fingerprint
    (``fp = hash((fp, row))`` over its rows). A resync compares per
    segment and repacks only the segments whose rows changed; appends
    are recognized through the database's ``append_epoch()`` and touch
    only the tail — the last partial segment is *extended* in place
    (bits OR-ed at the old row offset, one block rewritten) and whole
    new segments are packed from the remaining tail rows. Appending 1 %%
    new rows therefore repacks O(append) bits, not O(|D|).

immutable spill files
    Spill files are never rewritten in place (every repack writes a
    fresh file and unlinks the old name), so a reader holding a stale
    mapping keeps reading consistent bits.

Spill directories are temporary and crash-safe: every live matrix holds
a ``weakref.finalize`` on its directory (runs on garbage collection
*and* interpreter exit) and an atexit sweep closes whatever a caller
forgot, mirroring the shared-memory leak guard of
:mod:`repro.parallel.shm`. :func:`live_spill_dirs` exposes the live set
for leak tests.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
import weakref
from collections.abc import Collection, Iterable
from pathlib import Path

import numpy as np

from .._util import check_positive
from ..errors import DatabaseError
from ..itemset import Itemset
from ..obs import api as obs
from ..taxonomy.tree import Taxonomy
from . import bitpack

#: Default rows per segment. At the paper's full scale (|D| = 50,000)
#: this yields ~6 segments of ~1 KiB-per-item blocks; large enough that
#: per-segment Python overhead is negligible, small enough that one
#: block always fits comfortably in memory.
DEFAULT_SEGMENT_ROWS = 8192

#: Seed of every segment's row-chained fingerprint. The chain lets the
#: append path extend a stored fingerprint with only the new rows and
#: arrive at exactly the value a from-scratch pack of the full chunk
#: would compute.
_FP_SEED = 0x5E9


def chain_fingerprint(fingerprint: int, rows: Iterable[Itemset]) -> int:
    """Extend a row-chained segment fingerprint over *rows*."""
    for row in rows:
        fingerprint = hash((fingerprint, row))
    return fingerprint


class Segment:
    """One fixed-capacity row range of a :class:`SegmentedPackedMatrix`.

    Holds everything needed to count against the segment *except* the
    word block itself: the block lives either in the owning matrix's
    resident LRU or on disk at :attr:`path`.

    The block on disk is ``(len(nodes), words)`` little-endian
    ``uint64``, *words* being the segment's fixed capacity width
    (``words_for(segment_rows)``) — constant across extensions, so
    filling the segment never reshapes the block. Bits beyond
    :attr:`rows` are zero and popcount-neutral.
    """

    __slots__ = (
        "index", "start", "rows", "words", "nodes", "path", "fingerprint",
    )

    def __init__(
        self,
        index: int,
        start: int,
        rows: int,
        words: int,
        nodes: np.ndarray,
        path: str,
        fingerprint: int,
    ) -> None:
        self.index = index
        self.start = start
        self.rows = rows
        self.words = words
        self.nodes = nodes
        self.path = path
        self.fingerprint = fingerprint

    @property
    def stop(self) -> int:
        return self.start + self.rows

    @property
    def nbytes(self) -> int:
        """Size of the spilled word block."""
        return len(self.nodes) * self.words * 8

    def open_block(self) -> np.ndarray:
        """Memory-map the spilled block read-only."""
        return np.memmap(
            self.path, dtype="<u8", mode="r",
            shape=(len(self.nodes), self.words),
        )

    def __repr__(self) -> str:
        return (
            f"Segment(index={self.index}, start={self.start}, "
            f"rows={self.rows}, items={len(self.nodes)})"
        )


def count_segment_block(
    segment: Segment,
    block: np.ndarray,
    candidates: Collection[Itemset],
    taxonomy: Taxonomy | None = None,
    batch_words: int | None = None,
    stats=None,
) -> dict[Itemset, int]:
    """Count all candidates within one segment's word block.

    A transient
    :class:`~repro.mining.bitpack.PackedMatrix` wraps the block so
    taxonomy candidates get the usual descendant-OR treatment; the
    wrapper's row count is the capacity in bits (``words * 64``) so its
    word width matches the capacity-padded block — the pad bits are zero
    and popcount-neutral.
    """
    matrix = bitpack.PackedMatrix(segment.words * 64, segment.nodes, block)
    if stats is not None:
        # Gauge: the kernel never sees more than one segment block at a
        # time — this is the footprint the resident budget bounds.
        stats.matrix_bytes = max(stats.matrix_bytes, matrix.nbytes)
    return matrix.count(
        candidates, taxonomy=taxonomy, batch_words=batch_words, stats=stats,
    )


#: Matrices with live spill directories; the atexit sweep removes
#: whatever a caller forgot so no temp directory outlives the process —
#: the spill-dir mirror of ``parallel.shm``'s segment leak guard.
_LIVE_MATRICES: "weakref.WeakSet[SegmentedPackedMatrix]" = weakref.WeakSet()


def live_spill_dirs() -> list[str]:
    """Spill directories currently owned by live matrices (leak tests)."""
    return sorted(
        str(matrix._dir) for matrix in _LIVE_MATRICES
        if matrix._dir is not None
    )


def _close_live_matrices() -> None:
    for matrix in list(_LIVE_MATRICES):
        matrix.close()


atexit.register(_close_live_matrices)


class SegmentedPackedMatrix:
    """A packed transaction matrix split into spillable row segments.

    Parameters
    ----------
    segment_rows:
        Rows per segment (default :data:`DEFAULT_SEGMENT_ROWS`). Need
        not divide the database size; the last segment is partial and
        grows in place on append until full.
    max_resident_bytes:
        Budget for concurrently open segment blocks. ``None`` keeps
        every block resident (still spilled, for workers and restarts).
        Must be at least one segment block to be honored exactly: the
        block being counted is always admitted.
    spill_dir:
        Parent directory for the private spill directory (default: the
        system temp dir). The matrix always creates — and owns — a fresh
        subdirectory; :meth:`close` removes it.
    """

    def __init__(
        self,
        segment_rows: int | None = None,
        max_resident_bytes: int | None = None,
        spill_dir: str | None = None,
    ) -> None:
        self.segment_rows = check_positive(
            segment_rows if segment_rows is not None
            else DEFAULT_SEGMENT_ROWS,
            "segment_rows",
        )
        if max_resident_bytes is not None:
            check_positive(max_resident_bytes, "max_resident_bytes")
        self.max_resident_bytes = max_resident_bytes
        self.capacity_words = bitpack.words_for(self.segment_rows)
        self._dir: Path | None = Path(
            tempfile.mkdtemp(prefix="repro-segments-", dir=spill_dir)
        )
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self._dir), True
        )
        self._segments: list[Segment] = []
        # segment index -> (block, nbytes), LRU order. Evicting drops the
        # last reference to the block (plain array or memmap), releasing
        # memory *and* mapped address space.
        self._resident: dict[int, tuple[np.ndarray, int]] = {}
        self._resident_bytes = 0
        self._file_serial = 0
        self._token = None
        self._epoch = None
        self._synced_rows = 0
        _LIVE_MATRICES.add(self)

    # -- construction --------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Itemset],
        segment_rows: int | None = None,
        max_resident_bytes: int | None = None,
        spill_dir: str | None = None,
        stats=None,
    ) -> "SegmentedPackedMatrix":
        """One-shot matrix over materialized rows (no sync source)."""
        matrix = cls(
            segment_rows=segment_rows,
            max_resident_bytes=max_resident_bytes,
            spill_dir=spill_dir,
        )
        try:
            matrix._sync_full(rows, stats)
        except BaseException:
            matrix.close()
            raise
        return matrix

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop all blocks and remove the spill directory."""
        self._resident.clear()
        self._resident_bytes = 0
        self._segments = []
        self._synced_rows = 0
        self._token = None
        self._epoch = None
        if self._finalizer.detach() is not None and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
        self._dir = None
        _LIVE_MATRICES.discard(self)

    @property
    def closed(self) -> bool:
        return self._dir is None

    def __enter__(self) -> "SegmentedPackedMatrix":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._synced_rows

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(self._segments)

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def spilled_bytes(self) -> int:
        """Total bytes of word blocks persisted under the spill dir."""
        return sum(segment.nbytes for segment in self._segments)

    @property
    def resident_bytes(self) -> int:
        """Bytes of segment blocks currently open."""
        return self._resident_bytes

    @property
    def spill_dir(self) -> Path | None:
        return self._dir

    # -- synchronization -----------------------------------------------

    def sync(self, source, stats=None) -> None:
        """Bring the matrix up to date with *source*, reusing segments.

        Three paths, cheapest first:

        1. *Unchanged* — the source's ``append_epoch()`` (or its
           ``cache_token()``) matches the last sync: nothing to do.
        2. *Append* — same epoch identity, more rows: read only the tail
           (``tail_rows``), extend the last partial segment in place and
           pack whole new segments from the rest. O(append), no pass.
        3. *Resync* — anything else: stream all rows (one physical
           pass), fingerprint each chunk, reuse segments whose
           fingerprints still match and repack the rest.
        """
        if self.closed:
            raise DatabaseError("segmented matrix is closed")
        epoch_fn = getattr(source, "append_epoch", None)
        token_fn = getattr(source, "cache_token", None)
        epoch, n_rows = (None, None) if epoch_fn is None else epoch_fn()
        if (
            self._segments
            and epoch is not None
            and epoch is self._epoch
            and n_rows is not None
        ):
            if n_rows == self._synced_rows:
                if stats is not None:
                    stats.hits += 1
                return
            if n_rows > self._synced_rows:
                self._sync_append(source, n_rows, stats)
                self._token = token_fn() if token_fn is not None else None
                if stats is not None:
                    stats.extensions += 1
                return
        token = token_fn() if token_fn is not None else None
        if self._segments and token is not None and (
            token is self._token or token == self._token
        ):
            if stats is not None:
                stats.hits += 1
            return
        if stats is not None:
            stats.misses += 1
            if self._segments:
                stats.invalidations += 1
        self._sync_full(source, stats)
        self._token = token
        self._epoch = epoch

    def _sync_full(self, source, stats) -> None:
        """Stream all rows; reuse fingerprint-matching segments."""
        rows = (
            source.physical_scan()
            if hasattr(source, "physical_scan")
            else iter(source)
        )
        old = self._segments
        self._segments = []
        with obs.span("segments.sync") as span:
            total = 0
            index = 0
            reused = 0
            for chunk in self._chunks(rows):
                fingerprint = chain_fingerprint(_FP_SEED, chunk)
                previous = old[index] if index < len(old) else None
                if (
                    previous is not None
                    and previous.rows == len(chunk)
                    and previous.fingerprint == fingerprint
                ):
                    self._segments.append(previous)
                    reused += 1
                else:
                    if previous is not None:
                        self._drop_segment(previous)
                    self._pack_segment(index, total, chunk, fingerprint,
                                       stats)
                total += len(chunk)
                index += 1
            for leftover in old[index:]:
                self._drop_segment(leftover)
            self._synced_rows = total
            span.annotate("segments", len(self._segments))
            span.annotate("reused", reused)
        if stats is not None:
            stats.segments_reused += reused
            self._record_gauges(stats)

    def _sync_append(self, source, n_rows: int, stats) -> None:
        """Absorb appended rows: extend the tail, pack new segments."""
        start = self._synced_rows
        tail = list(_tail_rows(source, start))
        if len(tail) != n_rows - start:
            # The source lied about its append; fall back to a resync.
            self._sync_full(source, stats)
            return
        with obs.span("segments.append") as span:
            span.annotate("rows", len(tail))
            untouched = len(self._segments)
            last = self._segments[-1]
            if last.rows < self.segment_rows:
                take = min(self.segment_rows - last.rows, len(tail))
                self._extend_segment(last, tail[:take], stats)
                tail = tail[take:]
                start += take
                untouched -= 1
            index = len(self._segments)
            for chunk in self._chunks(iter(tail)):
                fingerprint = chain_fingerprint(_FP_SEED, chunk)
                self._pack_segment(index, start, chunk, fingerprint, stats)
                start += len(chunk)
                index += 1
            self._synced_rows = n_rows
        if stats is not None:
            stats.segments_reused += untouched
            self._record_gauges(stats)

    def _chunks(self, rows) -> Iterable[list[Itemset]]:
        chunk: list[Itemset] = []
        for row in rows:
            chunk.append(row)
            if len(chunk) == self.segment_rows:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    # -- segment maintenance -------------------------------------------

    def _spill_path(self, index: int) -> Path:
        # A fresh name per (re)pack: files are never rewritten in place,
        # so a parallel worker holding a mapping of the old file keeps
        # reading consistent bits until it drops the map.
        self._file_serial += 1
        return self._dir / f"seg{index:06d}.{self._file_serial}.u64"

    def _pack_segment(
        self, index: int, start: int, chunk: list[Itemset],
        fingerprint: int, stats,
    ) -> Segment:
        with obs.span("segments.pack") as span:
            span.annotate("rows", len(chunk))
            packed = bitpack.PackedMatrix.from_rows(chunk)
            block = np.zeros(
                (len(packed.nodes), self.capacity_words), dtype="<u8"
            )
            block[:, :packed.n_words] = packed.words
        path = self._spill_path(index)
        block.tofile(path)
        segment = Segment(
            index, start, len(chunk), self.capacity_words,
            packed.nodes, str(path), fingerprint,
        )
        if index < len(self._segments):
            self._segments[index] = segment
        else:
            self._segments.append(segment)
        self._admit(segment, block, stats)
        if stats is not None:
            stats.segments_packed += 1
        return segment

    def _extend_segment(
        self, segment: Segment, tail: list[Itemset], stats,
    ) -> None:
        """OR the tail rows into the partial last segment, in place.

        O(tail) bit writes plus one block rewrite — never a repack of
        the segment's existing rows.
        """
        block, _ = self._resident.get(segment.index, (None, 0))
        if block is None:
            block = segment.open_block()
            if stats is not None:
                stats.segments_mmap_reads += 1
        # Pack the tail on its own (one vectorized packbits), then shift
        # the whole word block left by the segment's bit offset and OR
        # it in with a single row scatter — no per-item Python loop.
        packed_tail = bitpack.PackedMatrix.from_rows(tail)
        if len(np.setdiff1d(packed_tail.nodes, segment.nodes)):
            nodes = np.union1d(segment.nodes, packed_tail.nodes)
            grown = np.zeros((len(nodes), segment.words), dtype="<u8")
            grown[np.searchsorted(nodes, segment.nodes)] = block
        else:
            nodes = segment.nodes
            grown = np.array(block, dtype="<u8")
        offset_words, offset_bits = segment.rows >> 6, segment.rows & 63
        new_rows = segment.rows + len(tail)
        tail_words = np.ascontiguousarray(packed_tail.words, dtype="<u8")
        if offset_bits:
            shifted = np.zeros(
                (tail_words.shape[0], tail_words.shape[1] + 1), dtype="<u8"
            )
            shifted[:, :-1] = tail_words << np.uint64(offset_bits)
            shifted[:, 1:] |= tail_words >> np.uint64(64 - offset_bits)
        else:
            shifted = tail_words
        # Columns beyond the segment's fixed capacity are provably zero
        # (every tail bit lands below new_rows <= capacity bits).
        width = min(shifted.shape[1], segment.words - offset_words)
        slots = np.searchsorted(nodes, packed_tail.nodes)
        grown[slots, offset_words:offset_words + width] |= (
            shifted[:, :width]
        )
        old_path = Path(segment.path)
        path = self._spill_path(segment.index)
        grown.tofile(path)
        old_path.unlink(missing_ok=True)
        segment.rows = new_rows
        segment.nodes = nodes
        segment.path = str(path)
        segment.fingerprint = chain_fingerprint(segment.fingerprint, tail)
        self._replace_resident(segment, grown, stats)
        if stats is not None:
            stats.segments_extended += 1

    def _drop_segment(self, segment: Segment) -> None:
        entry = self._resident.pop(segment.index, None)
        if entry is not None:
            self._resident_bytes -= entry[1]
        Path(segment.path).unlink(missing_ok=True)

    # -- residency -----------------------------------------------------

    def _block(self, segment: Segment, stats) -> np.ndarray:
        entry = self._resident.get(segment.index)
        if entry is not None:
            # Refresh LRU position (dicts iterate in insertion order).
            self._resident.pop(segment.index)
            self._resident[segment.index] = entry
            return entry[0]
        self._evict_for(segment.nbytes)
        block = segment.open_block()
        if stats is not None:
            stats.segments_mmap_reads += 1
        self._resident[segment.index] = (block, segment.nbytes)
        self._resident_bytes += segment.nbytes
        self._record_gauges(stats)
        return block

    def _admit(self, segment: Segment, block: np.ndarray, stats) -> None:
        self._replace_resident(segment, block, stats)

    def _replace_resident(
        self, segment: Segment, block: np.ndarray, stats,
    ) -> None:
        entry = self._resident.pop(segment.index, None)
        if entry is not None:
            self._resident_bytes -= entry[1]
        self._evict_for(segment.nbytes)
        self._resident[segment.index] = (block, segment.nbytes)
        self._resident_bytes += segment.nbytes
        self._record_gauges(stats)

    def _evict_for(self, incoming: int) -> None:
        if self.max_resident_bytes is None:
            return
        while (
            self._resident
            and self._resident_bytes + incoming > self.max_resident_bytes
        ):
            index = next(iter(self._resident))
            _, nbytes = self._resident.pop(index)
            self._resident_bytes -= nbytes

    def _record_gauges(self, stats) -> None:
        if stats is None:
            return
        stats.segments_resident_bytes = max(
            stats.segments_resident_bytes, self._resident_bytes
        )
        stats.segments_spilled_bytes = max(
            stats.segments_spilled_bytes, self.spilled_bytes
        )

    # -- counting ------------------------------------------------------

    def count(
        self,
        candidates: Collection[Itemset],
        taxonomy: Taxonomy | None = None,
        batch_words: int | None = None,
        stats=None,
    ) -> dict[Itemset, int]:
        """Sum per-segment kernel counts; bounded resident blocks."""
        totals: dict[Itemset, int] = {
            candidate: 0 for candidate in candidates
        }
        if not totals:
            return totals
        for segment in self._segments:
            block = self._block(segment, stats)
            partial = count_segment_block(
                segment, block, candidates,
                taxonomy=taxonomy, batch_words=batch_words, stats=stats,
            )
            for items, count in partial.items():
                totals[items] += count
        return totals

    def __repr__(self) -> str:
        return (
            f"SegmentedPackedMatrix(rows={self._synced_rows}, "
            f"segments={len(self._segments)}, "
            f"segment_rows={self.segment_rows}, "
            f"resident={self._resident_bytes}, "
            f"spilled={self.spilled_bytes})"
        )


def _tail_rows(source, start: int):
    """The rows of *source* from *start* on, preferring ``tail_rows``.

    A database exposing ``tail_rows`` serves the slice without a pass
    (the in-memory database slices its tuple; the file-backed one seeks
    a byte checkpoint). Foreign sources fall back to one full physical
    pass with the head skipped.
    """
    tail_fn = getattr(source, "tail_rows", None)
    if tail_fn is not None:
        return tail_fn(start)
    from itertools import islice

    rows = (
        source.physical_scan()
        if hasattr(source, "physical_scan")
        else iter(source)
    )
    return list(islice(rows, start, None))
