"""Unit tests for the counting-engine layer, one pass via ``count_pass``."""

import pytest

from repro.core.session import MiningSession
from repro.errors import ConfigError
from repro.mining.engines import count_pass, create_engine, engine_names
from repro.taxonomy.builders import taxonomy_from_parents

ROWS = [(1, 2, 3), (2, 3), (1, 3), (3,), (1, 2)]
CANDIDATES = [(1,), (2, 3), (1, 2, 3), (4,), (1, 3)]
EXPECTED = {(1,): 3, (2, 3): 2, (1, 2, 3): 1, (4,): 0, (1, 3): 2}


def count(engine_spec, rows, candidates, taxonomy=None, restrict=False):
    """One counting pass through the registry, as the session does it."""
    engine = create_engine(engine_spec)
    return count_pass(
        engine,
        engine.prepare(rows, taxonomy),
        candidates,
        restrict_to_candidate_items=restrict,
    )


class TestEnginesAgree:
    @pytest.mark.parametrize("engine", engine_names())
    def test_counts(self, engine):
        assert count(engine, ROWS, CANDIDATES) == EXPECTED

    @pytest.mark.parametrize("engine", engine_names())
    def test_empty_candidates(self, engine):
        assert count(engine, ROWS, []) == {}

    @pytest.mark.parametrize("engine", engine_names())
    def test_empty_candidates_never_touch_transactions(self, engine):
        """The empty fast path must not consume (or even start) a scan.

        Callers with filtered-out candidates rely on this: they may make
        many counting calls per pass and must not pay mask/tree setup —
        or iterator consumption — for empty ones.
        """

        def explode():
            raise AssertionError("transactions were consumed")
            yield  # pragma: no cover

        assert count(engine, explode(), []) == {}
        assert count(engine, explode(), ()) == {}

    @pytest.mark.parametrize("engine", engine_names())
    def test_empty_candidates_with_taxonomy_short_circuit(self, engine):
        taxonomy = taxonomy_from_parents({1: 0, 2: 0})

        def explode():
            raise AssertionError("transactions were consumed")
            yield  # pragma: no cover

        assert count(engine, explode(), [], taxonomy=taxonomy) == {}

    @pytest.mark.parametrize("engine", engine_names())
    def test_empty_candidate_itemset_rejected(self, engine):
        """An empty candidate must fail loudly on every engine.

        Historically the bitmap engine raised a bare ``IndexError`` on
        ``candidate[0]`` while other engines silently returned a bogus
        full-database count (an empty AND is the identity mask). The
        contract is now uniform: :class:`ConfigError` in the registry's
        precheck, before any engine dispatch.
        """
        with pytest.raises(ConfigError, match="empty candidate"):
            count(engine, ROWS, [(1,), ()])

    @pytest.mark.parametrize("engine", engine_names())
    def test_empty_candidate_rejected_before_scan(self, engine):
        def explode():
            raise AssertionError("transactions were consumed")
            yield  # pragma: no cover

        with pytest.raises(ConfigError, match="empty candidate"):
            count(engine, explode(), [()])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown counting engine"):
            count("quantum", ROWS, CANDIDATES)

    def test_unknown_engine_rejected_even_with_empty_candidates(self):
        with pytest.raises(ConfigError, match="unknown counting engine"):
            count("quantum", ROWS, [])


class TestGeneralizedCounting:
    @pytest.fixture
    def taxonomy(self):
        # 0 -> (1, 2); 10 -> (3,); isolated 4.
        return taxonomy_from_parents({1: 0, 2: 0, 3: 10}, extra_roots=[4])

    @pytest.mark.parametrize("engine", engine_names())
    def test_category_counts_cover_descendants(self, taxonomy, engine):
        rows = [(1,), (2,), (3,), (1, 3)]
        counts = count(
            engine, rows, [(0,), (10,), (0, 10)], taxonomy=taxonomy
        )
        assert counts == {(0,): 3, (10,): 2, (0, 10): 1}

    @pytest.mark.parametrize("engine", engine_names())
    def test_leaf_candidates_unchanged_by_extension(self, taxonomy, engine):
        rows = [(1,), (1, 2)]
        counts = count(engine, rows, [(1,), (1, 2)], taxonomy=taxonomy)
        assert counts == {(1,): 2, (1, 2): 1}

    def test_restriction_does_not_change_counts(self, taxonomy):
        rows = [(1, 3), (2, 4), (1, 2, 3)]
        candidates = [(0,), (0, 10)]
        plain = count("bitmap", rows, candidates, taxonomy=taxonomy)
        restricted = count(
            "bitmap", rows, candidates, taxonomy=taxonomy, restrict=True
        )
        assert plain == restricted

    def test_mixed_level_candidate(self, taxonomy):
        # {leaf 1, category 10} matched through ancestor extension.
        rows = [(1, 3), (1,), (3,)]
        counts = count("bitmap", rows, [(1, 10)], taxonomy=taxonomy)
        assert counts == {(1, 10): 1}


class TestMixedSizeCandidates:
    @pytest.mark.parametrize("engine", engine_names())
    def test_sizes_one_to_three_in_one_call(self, engine):
        counts = count(engine, ROWS, [(3,), (1, 2), (1, 2, 3)])
        assert counts == {(3,): 4, (1, 2): 2, (1, 2, 3): 1}



class TestCountSupportsPlainForm:
    """The plain one-call form: ``MiningSession(rows, taxonomy).count``."""

    def test_plain_call_counts(self):
        assert MiningSession(ROWS).count(CANDIDATES) == EXPECTED

    def test_taxonomy_positional(self):
        taxonomy = taxonomy_from_parents({1: 0, 2: 0})
        counts = MiningSession([(1,), (2,)], taxonomy).count([(0,)])
        assert counts == {(0,): 2}
