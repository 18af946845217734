"""Unit tests for the bit-packed NumPy counting kernel."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mining import bitpack
from repro.mining.bitpack import (
    DEFAULT_BATCH_WORDS,
    PackedMatrix,
    count_candidates,
    popcount,
    words_for,
    zeros,
)
from repro.core.session import MiningSession
from repro.obs.registry import MetricsRegistry
from repro.taxonomy.builders import taxonomy_from_parents

ROWS = [(1, 2, 3), (1, 3), (2, 4), (1, 2, 4), (3, 4), (1, 2, 3, 4)]
CANDIDATES = [(1,), (2,), (1, 2), (3, 4), (1, 2, 3), (9,)]

# Two-level taxonomy: categories 100..101 over leaves 1..4.
TAXONOMY = taxonomy_from_parents({1: 100, 2: 100, 3: 101, 4: 101})


def words_of(mask, n_words):
    """*mask* as little-endian 64-bit words: bit t in word t >> 6."""
    return np.array(
        [(mask >> (64 * word)) & ((1 << 64) - 1) for word in range(n_words)],
        dtype=np.uint64,
    )


def brute(rows, candidates, taxonomy=None):
    return MiningSession(list(rows), taxonomy, "brute").count(candidates)


class TestWordHelpers:
    @pytest.mark.parametrize(
        ("n_rows", "expected"),
        [(0, 0), (1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (1000, 16)],
    )
    def test_words_for(self, n_rows, expected):
        assert words_for(n_rows) == expected

    @pytest.mark.parametrize(
        "mask", [0, 1, 0b1011, (1 << 63), (1 << 64) - 1, (1 << 200) | 7]
    )
    def test_popcount_matches_bit_count(self, mask):
        n_words = max(1, words_for(mask.bit_length()))
        assert int(popcount(words_of(mask, n_words))) == mask.bit_count()

    def test_popcount_batched_axis(self):
        masks = [0, 0xFF, (1 << 64) - 1, 0b101]
        words = np.vstack([words_of(mask, 1) for mask in masks])
        assert popcount(words).tolist() == [m.bit_count() for m in masks]

    def test_zeros_is_empty_row(self):
        assert int(popcount(zeros(3))) == 0


class TestCountCandidates:
    def test_empty_candidate_rejected(self):
        matrix = PackedMatrix.from_rows(ROWS)
        with pytest.raises(ConfigError, match="empty candidate"):
            count_candidates(matrix.row, [()], matrix.n_words)

    def test_no_candidates_returns_empty(self):
        assert count_candidates(lambda node: zeros(1), [], 1) == {}

    def test_batch_words_must_be_positive(self):
        matrix = PackedMatrix.from_rows(ROWS)
        with pytest.raises(Exception):
            matrix.count(CANDIDATES, batch_words=0)

    def test_tiny_batches_do_not_change_counts(self):
        """Batching is a memory knob only; a 1-word budget still counts."""
        matrix = PackedMatrix.from_rows(ROWS)
        expected = brute(ROWS, CANDIDATES)
        metrics = MetricsRegistry()
        counts = matrix.count(CANDIDATES, batch_words=1, metrics=metrics)
        assert counts == expected
        # Every (size, candidate) pair becomes its own batch under a
        # one-word budget — strictly more batches than size groups.
        assert metrics.counter("kernel.batches") == len(CANDIDATES)
        one_shot = MetricsRegistry()
        assert matrix.count(CANDIDATES, metrics=one_shot) == expected
        assert one_shot.counter("kernel.batches") < metrics.counter(
            "kernel.batches"
        )

    def test_default_budget_batches_once_per_size(self):
        matrix = PackedMatrix.from_rows(ROWS)
        metrics = MetricsRegistry()
        matrix.count(CANDIDATES, metrics=metrics)
        sizes = {len(candidate) for candidate in CANDIDATES}
        assert metrics.counter("kernel.batches") == len(sizes)

    def test_stats_optional(self):
        matrix = PackedMatrix.from_rows(ROWS)
        assert matrix.count(CANDIDATES) == brute(ROWS, CANDIDATES)


class TestPackedMatrix:
    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 130])
    def test_word_boundary_row_counts(self, n_rows):
        rows = [(1,) if index % 2 else (1, 2) for index in range(n_rows)]
        matrix = PackedMatrix.from_rows(rows)
        assert matrix.n_rows == n_rows
        assert matrix.n_words == words_for(n_rows)
        assert matrix.count([(1,), (2,), (1, 2)]) == brute(
            rows, [(1,), (2,), (1, 2)]
        )

    def test_absent_item_counts_zero(self):
        matrix = PackedMatrix.from_rows(ROWS)
        assert matrix.count([(9,), (1, 9)]) == {(9,): 0, (1, 9): 0}

    def test_generalized_counts_match_brute(self):
        matrix = PackedMatrix.from_rows(ROWS)
        candidates = [(100,), (101,), (100, 101), (1, 101), (100, 3, 4)]
        assert matrix.count(candidates, taxonomy=TAXONOMY) == brute(
            ROWS, candidates, taxonomy=TAXONOMY
        )

    def test_category_rows_memoized(self):
        matrix = PackedMatrix.from_rows(ROWS)
        first = matrix.row(100, taxonomy=TAXONOMY)
        second = matrix.row(100, taxonomy=TAXONOMY)
        assert first is second

    def test_category_of_absent_leaves_is_zero(self):
        taxonomy = taxonomy_from_parents({7: 300, 8: 300})
        matrix = PackedMatrix.from_rows(ROWS)
        assert matrix.count([(300,)], taxonomy=taxonomy) == {(300,): 0}

    def test_repr_mentions_shape(self):
        matrix = PackedMatrix.from_rows(ROWS)
        assert "rows=6" in repr(matrix)


def count_rows(rows, candidates, taxonomy=None, **kernel):
    """One pass of rows packed, then counted with the batched kernel."""
    return PackedMatrix.from_rows(rows).count(
        candidates, taxonomy=taxonomy, **kernel
    )


class TestCountRows:
    """Pack one pass of rows and count it: ``from_rows(...).count``."""

    def test_matches_brute(self):
        assert count_rows(ROWS, CANDIDATES) == brute(ROWS, CANDIDATES)
        tiny = count_rows(ROWS, CANDIDATES, batch_words=1)
        assert tiny == brute(ROWS, CANDIDATES)

    def test_empty_candidates(self):
        assert count_rows(ROWS, []) == {}

    def test_generalized_matches_brute(self):
        candidates = [(100,), (1, 101), (100, 101)]
        assert count_rows(
            ROWS, candidates, taxonomy=TAXONOMY, batch_words=1
        ) == brute(ROWS, candidates, taxonomy=TAXONOMY)

    def test_kernel_batches_recorded_through_engine(self):
        """The packed engine records its kernel batches and the
        footprint of the matrix it packs (one 64-row segment here, so
        the block is exactly the one-shot pack)."""
        session = MiningSession(list(ROWS), engine="mmap", segment_rows=64)
        try:
            assert session.count(CANDIDATES) == brute(ROWS, CANDIDATES)
        finally:
            session.close()
        metrics = session.run_metrics
        sizes = {len(candidate) for candidate in CANDIDATES}
        assert metrics.counter("kernel.batches") == len(sizes)
        assert metrics.gauge("kernel.matrix_bytes") == (
            PackedMatrix.from_rows(ROWS).nbytes
        )

    def test_default_batch_budget_is_bounded(self):
        assert DEFAULT_BATCH_WORDS == 1 << 21
        assert bitpack._POPCOUNT_LUT.sum() == 1024
