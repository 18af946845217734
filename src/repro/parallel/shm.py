"""Shared-memory publication of the bit-packed matrix (zero-copy workers).

Shipping row slices to workers costs spawn + serialization overhead that
grows with the database, while the counting kernel itself is fast — at
quick-bench scale the transport dominates. This module removes the
transport: the parent process packs the database once
(:class:`~repro.mining.bitpack.PackedMatrix`), copies its two arrays into
one ``multiprocessing.shared_memory`` segment, and long-lived workers
attach zero-copy. Per pass, only candidate batches travel out and count
vectors travel back.

Segment layout (one flat buffer)::

    [nodes  : int64  x n_nodes]            sorted node ids, slot order
    [words  : uint64 x n_nodes x n_words]  bit-packed transaction matrix

Ownership and lifecycle
-----------------------
Exactly one process — the driver — *owns* a segment: it creates it,
registers it in a module-level table, and is responsible for
``unlink()``. Workers *attach*: they open the same name read-only in
spirit (POSIX shm has no enforcement; nothing here writes after publish)
and must ``close()`` without unlinking. Two safety nets keep ``/dev/shm``
clean:

* an ``atexit`` hook unlinks every still-owned segment, so an owner that
  exits without explicit cleanup (crash of the mining driver, a test that
  forgets) never leaks a name;
* attach never *unregisters* from the ``resource_tracker``: workers are
  always ``multiprocessing`` children of the owner and therefore share
  the owner's tracker process, where register is a set-add (the attach
  side's duplicate collapses) — unregistering from a worker would strip
  the *owner's* registration and turn the final unlink into a tracker
  error. On 3.13+ attach passes ``track=False``, skipping the duplicate
  registration outright. (The classic premature-unlink bug, bpo-39959,
  only bites attachers with their *own* tracker — unrelated processes —
  which this architecture never creates.)

Unlinking while workers are still attached is safe on POSIX: the name
disappears immediately, the mapping stays valid until the last
``close()``. The owner therefore re-publishes a mutated database by
creating a fresh segment, pointing workers at it, and unlinking the old
one — no barrier needed.

:func:`live_segments` lists the repro-owned names currently visible in
``/dev/shm`` so lifecycle tests can assert leak-freedom.
"""

from __future__ import annotations

import atexit
import sys
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from ..mining.bitpack import PackedMatrix
from ..obs import api as obs
from ..obs.registry import MetricsRegistry

#: Every segment name this package creates starts with this, so stale
#: entries are attributable (and findable by :func:`live_segments`).
SEGMENT_PREFIX = "repro-shm-"

#: Segments created (and not yet unlinked) by this process: name -> the
#: SharedMemory object. The atexit hook drains it.
_OWNED: dict[str, shared_memory.SharedMemory] = {}


def _unlink_owned() -> None:
    """Unlink every segment this process still owns (atexit hook)."""
    for name, segment in list(_OWNED.items()):
        _OWNED.pop(name, None)
        try:
            segment.close()
        except BufferError:  # pragma: no cover — views still exported
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover — already gone
            pass


atexit.register(_unlink_owned)


def live_segments() -> tuple[str, ...]:
    """Repro-owned segment names currently visible in ``/dev/shm``.

    Empty on platforms without a visible shm filesystem; the lifecycle
    tests that assert leak-freedom skip themselves there.
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return ()
    return tuple(
        sorted(
            entry.name
            for entry in root.iterdir()
            if entry.name.startswith(SEGMENT_PREFIX)
        )
    )


@dataclass(frozen=True, slots=True)
class SegmentHandle:
    """Everything a worker needs to attach: name, shape, provenance.

    *fingerprint* is the owner's publish sequence number; a worker
    attached under handle N never serves a batch meant for handle M, so
    a mutated database (fingerprint bump -> re-publish -> pool
    reconfigure) can never be counted against stale words.
    """

    name: str
    n_rows: int
    n_nodes: int
    n_words: int
    fingerprint: int

    @property
    def nodes_bytes(self) -> int:
        return self.n_nodes * 8

    @property
    def words_bytes(self) -> int:
        return self.n_nodes * self.n_words * 8

    @property
    def nbytes(self) -> int:
        return self.nodes_bytes + self.words_bytes


class SharedPackedMatrix:
    """A :class:`PackedMatrix` whose arrays live in a shm segment.

    Build with :meth:`create` (owner side: copies the matrix in) or
    :meth:`attach` (worker side: zero-copy views over the same pages).
    Both sides expose :attr:`matrix`, a fully functional
    :class:`~repro.mining.bitpack.PackedMatrix` — derived taxonomy rows
    are memoized per process, on top of the shared base rows.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        handle: SegmentHandle,
        owner: bool,
    ) -> None:
        self._segment = segment
        self.handle = handle
        self.owner = owner
        self._closed = False
        nodes = np.ndarray(
            (handle.n_nodes,), dtype="<i8", buffer=segment.buf
        )
        words = np.ndarray(
            (handle.n_nodes, handle.n_words),
            dtype="<u8",
            buffer=segment.buf,
            offset=handle.nodes_bytes,
        )
        self.matrix = PackedMatrix(handle.n_rows, nodes, words)

    @classmethod
    def create(
        cls, matrix: PackedMatrix, fingerprint: int = 0
    ) -> "SharedPackedMatrix":
        """Publish *matrix* into a fresh owned segment (one copy)."""
        nodes = np.ascontiguousarray(matrix.nodes, dtype="<i8")
        words = np.ascontiguousarray(matrix.words, dtype="<u8")
        handle = SegmentHandle(
            name=SEGMENT_PREFIX + uuid.uuid4().hex[:16],
            n_rows=matrix.n_rows,
            n_nodes=len(nodes),
            n_words=matrix.n_words,
            fingerprint=fingerprint,
        )
        segment = shared_memory.SharedMemory(
            name=handle.name, create=True, size=max(1, handle.nbytes)
        )
        _OWNED[segment.name] = segment
        # Copy in before constructing the PackedMatrix view: its slot
        # table is derived from the nodes array at construction time.
        if handle.nbytes:
            np.ndarray(
                nodes.shape, dtype="<i8", buffer=segment.buf
            )[:] = nodes
            np.ndarray(
                words.shape,
                dtype="<u8",
                buffer=segment.buf,
                offset=handle.nodes_bytes,
            )[:] = words
        return cls(segment, handle, owner=True)

    @classmethod
    def attach(cls, handle: SegmentHandle) -> "SharedPackedMatrix":
        """Attach to an owner's segment; never unlinks it."""
        if sys.version_info >= (3, 13):
            segment = shared_memory.SharedMemory(
                name=handle.name, create=False, track=False
            )
        else:
            # <= 3.12 registers the attach with the resource tracker;
            # workers share the owner's tracker, so the duplicate
            # collapses and MUST NOT be unregistered (see module doc).
            segment = shared_memory.SharedMemory(
                name=handle.name, create=False
            )
        if segment.size < handle.nbytes:  # pragma: no cover — paranoia
            segment.close()
            raise ValueError(
                f"segment {handle.name} holds {segment.size} bytes, "
                f"handle expects {handle.nbytes}"
            )
        return cls(segment, handle, owner=False)

    @property
    def nbytes(self) -> int:
        return self.handle.nbytes

    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent)."""
        if self._closed:
            return
        self._closed = True
        # The ndarray views must die before the mmap can close; anything
        # still holding one keeps the mapping alive and close() below
        # would raise BufferError — tolerated, unlink() still works.
        self.matrix = None
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover — caller kept a view
            pass

    def unlink(self) -> None:
        """Remove the segment name (owner only; idempotent)."""
        _OWNED.pop(self._segment.name, None)
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        side = "owner" if self.owner else "attached"
        return (
            f"SharedPackedMatrix({self.handle.name}, {side}, {state}, "
            f"rows={self.handle.n_rows}, nodes={self.handle.n_nodes})"
        )


# ----------------------------------------------------------------------
# Persistent-worker protocol functions (picklable under spawn)
# ----------------------------------------------------------------------

class _WorkerState:
    """One worker's attachment: shared matrix + the taxonomy to count."""

    __slots__ = ("shared", "taxonomy")

    def __init__(self, shared, taxonomy) -> None:
        self.shared = shared
        self.taxonomy = taxonomy

    def close(self) -> None:
        self.shared.close()


def shm_worker_setup(payload) -> _WorkerState:
    """Persistent-pool setup: attach the segment named in *payload*.

    *payload* is ``(handle, taxonomy)``. Called once at worker start
    and again on every re-publish (``setup`` message); the pool reports
    the attach wall time back to the driver.
    """
    handle, taxonomy = payload
    return _WorkerState(SharedPackedMatrix.attach(handle), taxonomy)


def shm_worker_count(state: _WorkerState, payload):
    """Persistent-pool task: count one candidate batch zero-copy.

    *payload* is ``(candidates, observe)``; returns ``(vector,
    registry)`` where *vector* lists each candidate's count in payload
    order (a plain list pickles smaller than a dict keyed by itemsets)
    and *registry* carries the worker-scoped metrics when the driver
    asked for observation, else ``None``.
    """
    candidates, observe = payload
    matrix = state.shared.matrix
    if not observe:
        counts = matrix.count(candidates, taxonomy=state.taxonomy)
        return [counts[candidate] for candidate in candidates], None
    with obs.worker_collection() as registry:
        with obs.span("parallel.shm.batch") as span:
            span.annotate("candidates", len(candidates))
            span.annotate("fingerprint", state.shared.handle.fingerprint)
            kernel = MetricsRegistry()
            counts = matrix.count(
                candidates, taxonomy=state.taxonomy, metrics=kernel
            )
        registry.merge(kernel, "worker.")
    return [counts[candidate] for candidate in candidates], registry
