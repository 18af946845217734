"""Unit tests for the segmented out-of-core packed matrix.

Covers the segment layout (word-boundary row counts, partial tails),
the three sync paths (unchanged / append / fingerprint-guided resync),
the resident-byte budget, and the spill-directory lifecycle — including
a subprocess that exits without ``close()`` (the finalizer must sweep
the directory) and a Linux-only constrained-address-space run proving
the ``mmap`` engine completes where a dense in-RAM pack cannot.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import repro
from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import DatabaseError
from repro.obs import api as obs
from repro.obs.registry import MetricsRegistry
from repro.mining.segmatrix import (
    SegmentedPackedMatrix,
    chain_fingerprint,
    live_spill_dirs,
)

#: (segment_rows, n_rows) pairs straddling word and segment boundaries:
#: exact multiples of 64, off-by-one around a word, segments smaller
#: than a word, and partial tails.
BOUNDARY_SHAPES = [(50, 123), (64, 128), (100, 317), (7, 65), (64, 64)]

SPILL_FAILURES = "counting.segments.spill_failures"


def make_rows(n_rows, n_items=23):
    """Deterministic pseudo-random rows covering *n_items* item ids."""
    rows = []
    for index in range(n_rows):
        width = 1 + (index * 7 + 3) % 4
        rows.append(
            tuple(
                sorted({(index * 13 + k * 5) % n_items for k in range(width)})
            )
        )
    return rows


def brute_counts(rows, candidates):
    return MiningSession(list(rows), engine="brute").count(candidates)


CANDIDATES = [(1,), (2,), (0, 5), (3, 8), (1, 2, 3)]


class TestLayoutAndCounting:
    @pytest.mark.parametrize("segment_rows,n_rows", BOUNDARY_SHAPES)
    def test_word_boundary_shapes_match_brute(self, segment_rows, n_rows):
        rows = make_rows(n_rows)
        with SegmentedPackedMatrix.from_rows(
            rows, segment_rows=segment_rows
        ) as matrix:
            assert matrix.n_rows == n_rows
            assert matrix.n_segments == -(-n_rows // segment_rows)
            assert matrix.count(CANDIDATES) == brute_counts(rows, CANDIDATES)

    def test_segment_descriptors(self):
        rows = make_rows(10)
        with SegmentedPackedMatrix.from_rows(
            rows, segment_rows=4
        ) as matrix:
            starts = [segment.start for segment in matrix.segments]
            lengths = [segment.rows for segment in matrix.segments]
            assert starts == [0, 4, 8]
            assert lengths == [4, 4, 2]
            for segment in matrix.segments:
                assert segment.words == matrix.capacity_words
                assert Path(segment.path).stat().st_size == segment.nbytes

    def test_empty_candidates(self):
        with SegmentedPackedMatrix.from_rows(make_rows(5)) as matrix:
            assert matrix.count([]) == {}

    def test_closed_matrix_rejects_sync(self):
        matrix = SegmentedPackedMatrix.from_rows(make_rows(5))
        matrix.close()
        assert matrix.closed
        with pytest.raises(DatabaseError, match="closed"):
            matrix.sync(TransactionDatabase(make_rows(5)))

    def test_fingerprint_chain_is_associative(self):
        rows = [tuple(row) for row in make_rows(9)]
        whole = chain_fingerprint(0x5E9, rows)
        split = chain_fingerprint(chain_fingerprint(0x5E9, rows[:4]), rows[4:])
        assert whole == split


class TestSyncPaths:
    def test_unchanged_database_is_a_hit(self):
        database = TransactionDatabase(make_rows(30))
        metrics = MetricsRegistry()
        with SegmentedPackedMatrix(segment_rows=8) as matrix:
            matrix.sync(database, metrics=metrics)
            packed = metrics.counter("counting.segments.packed")
            matrix.sync(database, metrics=metrics)
            assert metrics.counter("cache.hits") == 1
            assert metrics.counter("counting.segments.packed") == packed

    def test_append_extends_tail_and_reuses_the_rest(self):
        rows = make_rows(30)
        database = TransactionDatabase(rows)
        metrics = MetricsRegistry()
        with SegmentedPackedMatrix(segment_rows=8) as matrix:
            matrix.sync(database, metrics=metrics)
            assert matrix.n_segments == 4  # 8+8+8+6
            tail = [(0, 1), (2, 21)]
            database.append(tail)
            matrix.sync(database, metrics=metrics)
            assert metrics.counter("cache.extensions") == 1
            # The partial tail is extended; everything else is untouched.
            assert metrics.counter("counting.segments.extended") == 1
            assert metrics.counter("counting.segments.reused") == 3
            assert matrix.n_rows == 32
            assert matrix.count(CANDIDATES) == brute_counts(
                rows + tail, CANDIDATES
            )

    def test_append_overflowing_the_tail_packs_new_segments(self):
        rows = make_rows(10)
        database = TransactionDatabase(rows)
        metrics = MetricsRegistry()
        with SegmentedPackedMatrix(segment_rows=4) as matrix:
            matrix.sync(database, metrics=metrics)
            packed_before = metrics.counter("counting.segments.packed")
            tail = make_rows(9, n_items=11)
            database.append(tail)
            matrix.sync(database, metrics=metrics)
            # 10 -> 19 rows at 4/segment: the 2-row tail fills to 4 and
            # 2 whole new segments are packed (one partial).
            assert metrics.counter("counting.segments.extended") == 1
            packed = metrics.counter("counting.segments.packed")
            assert packed == packed_before + 2
            assert matrix.count(CANDIDATES) == brute_counts(
                rows + tail, CANDIDATES
            )

    def test_out_of_band_rewrite_triggers_resync(self):
        database = TransactionDatabase(make_rows(12))
        metrics = MetricsRegistry()
        with SegmentedPackedMatrix(segment_rows=4) as matrix:
            matrix.sync(database, metrics=metrics)
            rewrite = make_rows(14, n_items=9)
            database._transactions = tuple(
                tuple(row) for row in rewrite
            )
            matrix.sync(database, metrics=metrics)
            assert metrics.counter("cache.invalidations") == 1
            assert matrix.count(CANDIDATES) == brute_counts(
                rewrite, CANDIDATES
            )

    def test_resync_reuses_fingerprint_matching_segments(self):
        rows = [tuple(row) for row in make_rows(20)]
        database = TransactionDatabase(rows)
        metrics = MetricsRegistry()
        with SegmentedPackedMatrix(segment_rows=4) as matrix:
            matrix.sync(database, metrics=metrics)
            packed_before = metrics.counter("counting.segments.packed")
            # Rewrite one row in the middle segment only.
            mutated = list(rows)
            mutated[9] = (0, 1, 2)
            database._transactions = tuple(mutated)
            matrix.sync(database, metrics=metrics)
            # Only segment 2 (rows 8..11) changed; 4 of 5 reused.
            packed = metrics.counter("counting.segments.packed")
            assert packed == packed_before + 1
            assert metrics.counter("counting.segments.reused") == 4
            assert matrix.count(CANDIDATES) == brute_counts(
                mutated, CANDIDATES
            )


class TestResidency:
    def test_budget_bounds_open_blocks(self):
        rows = make_rows(64)
        with SegmentedPackedMatrix.from_rows(rows, segment_rows=8) as probe:
            block_bytes = max(
                segment.nbytes for segment in probe.segments
            )
        with SegmentedPackedMatrix.from_rows(
            rows, segment_rows=8, max_resident_bytes=block_bytes
        ) as matrix:
            metrics = MetricsRegistry()
            assert matrix.count(CANDIDATES, metrics=metrics) == brute_counts(
                rows, CANDIDATES
            )
            # At most one block stays open; the rest were evicted during
            # packing and get re-mapped on demand while counting.
            assert matrix.resident_bytes <= block_bytes
            reads = metrics.counter("counting.segments.mmap_reads")
            assert reads >= matrix.n_segments - 1
            resident = metrics.gauge("counting.segments.resident_bytes")
            assert resident <= block_bytes

    def test_unbounded_budget_keeps_blocks_resident(self):
        rows = make_rows(40)
        with SegmentedPackedMatrix.from_rows(
            rows, segment_rows=8
        ) as matrix:
            metrics = MetricsRegistry()
            matrix.count(CANDIDATES, metrics=metrics)
            assert matrix.resident_bytes == matrix.spilled_bytes
            assert metrics.counter("counting.segments.mmap_reads") == 0


class TestSpillLifecycle:
    def test_close_removes_spill_dir(self):
        matrix = SegmentedPackedMatrix.from_rows(make_rows(5))
        spill = matrix.spill_dir
        assert spill.is_dir()
        assert str(spill) in live_spill_dirs()
        matrix.close()
        assert not spill.exists()
        assert str(spill) not in live_spill_dirs()
        matrix.close()  # idempotent

    def test_exit_without_close_sweeps_spill_dir(self, tmp_path):
        """An interpreter that forgets ``close()`` leaves no directory:
        the finalizer / atexit sweep removes it on exit."""
        script = (
            "from repro.mining.segmatrix import SegmentedPackedMatrix\n"
            "matrix = SegmentedPackedMatrix.from_rows(\n"
            "    [(1, 2), (2, 3)], spill_dir={spill!r})\n"
            "print(matrix.spill_dir)\n"
        ).format(spill=str(tmp_path))
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        spill = Path(done.stdout.strip())
        assert spill.parent == tmp_path
        assert not spill.exists()


class TestSpillFailures:
    """A spill that cannot be written raises a ``DatabaseError`` naming
    the knob, leaves no partial file, never leaves a half-synced matrix
    behind, and counts ``counting.segments.spill_failures``."""

    @pytest.mark.parametrize("kind", ["missing", "regular-file"])
    def test_bad_spill_dir_names_the_flag(self, tmp_path, kind):
        spill = tmp_path / "spill"
        if kind == "regular-file":
            spill.write_text("not a directory")
        session = MiningSession(
            TransactionDatabase(make_rows(20)), engine="mmap",
            spill_dir=str(spill),
        )
        with obs.obs_session(registry=MetricsRegistry()) as state:
            with pytest.raises(DatabaseError, match="--spill-dir"):
                session.count(CANDIDATES)
        assert state.registry.counter(SPILL_FAILURES) == 1
        assert session.engine._matrix is None
        if kind == "regular-file":
            assert spill.read_text() == "not a directory"

    @pytest.mark.skipif(
        sys.platform == "win32", reason="RLIMIT_FSIZE is POSIX-only"
    )
    def test_failed_writes_clean_up_and_the_next_count_rebuilds(
        self, tmp_path
    ):
        """Under a per-process file-size limit (``SIGXFSZ`` ignored, so
        the write fails with ``EFBIG``), a pack and an in-place extend
        fail cleanly. An append whose extend succeeded but whose new
        segment failed leaves the engine's matrix empty: lifting the
        limit, the next count repacks and is exact, where reusing the
        extended tail would count its rows twice."""
        script = r"""
import resource
import signal
import sys
from pathlib import Path

from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import DatabaseError
from repro.mining.segmatrix import SegmentedPackedMatrix
from repro.obs import api as obs

spill = Path(sys.argv[1])
state = obs.configure()
LIMIT = 8192  # a 3-item segment block fits (3 KiB), a 23-item one not
narrow = [(1, 2, 3)] * 10
wide = [tuple(range(23))] * 10
# 16-row segments hold one word per item: a 3,200-byte block, smaller
# than a stdio buffer, against a 2,000-byte limit.
small_wide = [tuple(range(400))] * 3
candidates = [(1,), (2, 3), (5,), (1, 22)]
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (LIMIT, hard))

def fails(action):
    try:
        action()
    except DatabaseError as error:
        return "--spill-dir" in str(error)
    return False

matrix = SegmentedPackedMatrix(spill_dir=str(spill))
print("pack:", fails(lambda: matrix.sync(TransactionDatabase(wide))))
print("pack-files:", sorted(p.name for p in matrix.spill_dir.iterdir()))
matrix.close()

resource.setrlimit(resource.RLIMIT_FSIZE, (2000, hard))
matrix = SegmentedPackedMatrix(segment_rows=16, spill_dir=str(spill))
print("small:", fails(lambda: matrix.sync(TransactionDatabase(small_wide))))
print("small-files:", sorted(p.name for p in matrix.spill_dir.iterdir()))
matrix.close()
resource.setrlimit(resource.RLIMIT_FSIZE, (LIMIT, hard))

database = TransactionDatabase(narrow)
matrix = SegmentedPackedMatrix(spill_dir=str(spill))
matrix.sync(database)
database.append(wide)
print("extend:", fails(lambda: matrix.sync(database)))
print("extend-files:", sorted(p.name for p in matrix.spill_dir.iterdir()))
print("extend-segments:", matrix.n_segments)
matrix.close()

resource.setrlimit(resource.RLIMIT_FSIZE, (2000, hard))
database = TransactionDatabase(narrow)
session = MiningSession(
    database, engine="mmap", segment_rows=16, spill_dir=str(spill)
)
session.count(candidates)
database.append(narrow[:6] + small_wide)
print("engine:", fails(lambda: session.count(candidates)))
print("engine-empty:", session.engine._matrix.n_segments == 0)
print("spill-empty:", not [p for p in spill.rglob("*") if p.is_file()])
resource.setrlimit(resource.RLIMIT_FSIZE, (hard, hard))
expected = MiningSession(database, engine="brute").count(candidates)
print("recount:", session.count(candidates) == expected)
session.engine.close()
print("spill-failures:", state.registry.counter(
    "counting.segments.spill_failures"
))
obs.shutdown()
"""
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "pack: True",
            "pack-files: []",
            "small: True",
            "small-files: []",
            "extend: True",
            "extend-files: []",
            "extend-segments: 0",
            "engine: True",
            "engine-empty: True",
            "spill-empty: True",
            "recount: True",
            "spill-failures: 4",
        ], done.stdout
        assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(
    sys.platform != "linux", reason="RLIMIT_AS is only enforced on Linux"
)
class TestConstrainedMemory:
    def test_out_of_core_survives_address_space_cap(self, tmp_path):
        """Under an address-space cap the dense in-RAM pack
        (:meth:`PackedMatrix.from_rows`) fails while the ``mmap``
        engine — streaming bounded segment blocks — completes
        bit-identically.

        The subprocess computes the expected counts from one dense pack
        *before* the cap, then applies ``RLIMIT_AS`` slightly above the
        current ``VmSize`` and retries the dense pack and the engine.
        """
        script = r"""
import resource
import sys

from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.mining.bitpack import PackedMatrix

N_ROWS, N_ITEMS = 50_000, 2_000
rows = [
    tuple(sorted({(i * 31 + k * 997) % N_ITEMS for k in range(6)}))
    for i in range(N_ROWS)
]
# All singletons — the Apriori first pass. The in-RAM pack is a dense
# boolean matrix of ~N_ITEMS x N_ROWS bytes (~100 MB here).
candidates = [(i,) for i in range(N_ITEMS)]

expected = PackedMatrix.from_rows(rows).count(candidates)

def vm_size():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmSize")

# Headroom far below the ~100 MB dense boolean matrix one pack
# materializes for 50k x 2k, and comfortably above the mmap engine's
# per-segment working set.
cap = vm_size() + 48 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

try:
    PackedMatrix.from_rows(rows).count(candidates)
except MemoryError:
    print("dense-pack:MemoryError")
else:
    print("dense-pack:completed")

session = MiningSession(
    TransactionDatabase(rows),
    engine="mmap",
    segment_rows=2048,
    max_resident_bytes=8 * 1024 * 1024,
    spill_dir=sys.argv[1],
)
counted = session.count(candidates)
print("mmap:match" if counted == expected else "mmap:MISMATCH")
"""
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.split()
        assert "dense-pack:MemoryError" in lines, done.stdout
        assert "mmap:match" in lines, done.stdout
        # The spill directory was temporary: nothing left behind.
        assert list(tmp_path.iterdir()) == []


class TestEngineSurface:
    def test_session_stats_expose_segment_activity(self):
        rows = make_rows(30)
        database = TransactionDatabase(rows)
        session = MiningSession(database, engine="mmap", segment_rows=8)
        assert session.count(CANDIDATES) == brute_counts(rows, CANDIDATES)
        metrics = session.run_metrics
        assert metrics.counter("counting.segments.packed") == 4
        assert metrics.gauge("counting.segments.spilled_bytes") > 0
        # The per-segment kernel footprint.
        assert metrics.gauge("kernel.matrix_bytes") > 0
        database.append([(1, 2, 3)])
        session.count(CANDIDATES)
        assert metrics.counter("cache.extensions") == 1
        assert metrics.counter("counting.segments.extended") == 1

    def test_incremental_recount_needs_no_physical_pass(self):
        rows = make_rows(40)
        database = TransactionDatabase(rows)
        session = MiningSession(database, engine="mmap", segment_rows=8)
        session.count(CANDIDATES)
        scans_after_build = database.scans
        database.append(make_rows(3, n_items=7))
        counted = session.count(CANDIDATES)
        assert database.scans == scans_after_build  # tail_rows, no pass
        assert counted == brute_counts(
            list(rows) + make_rows(3, n_items=7), CANDIDATES
        )
