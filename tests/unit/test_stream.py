"""Unit tests for the streaming subsystem: policies, append absorption,
delta versioning, the watcher lifecycle, and live delta application."""

import json

import pytest

from repro.core.api import MiningConfig, mine_negative_rules
from repro.data.database import TransactionDatabase
from repro.data.filedb import FileBackedDatabase
from repro.data.io import save_basket_file
from repro.errors import StreamError, VersionSkewError
from repro.mining.engines import DEFAULT_ENGINE
from repro.mining.rules import generate_rules
from repro.obs.api import obs_session
from repro.obs.registry import MetricsRegistry
from repro.serve import RuleIndex, RuleService
from repro.stream import (
    FractionPolicy,
    IntervalPolicy,
    RowCountPolicy,
    RuleIndexDelta,
    StreamingMiner,
    parse_policy,
    push_to_service,
)
from repro.taxonomy.builders import taxonomy_from_nested

from .test_rule_index import negative, positive


class TestRetriggerPolicies:
    def test_row_count_fires_at_threshold(self):
        policy = RowCountPolicy(5)
        assert not policy.should_fire(4, 100)
        assert policy.should_fire(5, 100)

    def test_fraction_scales_with_database_size(self):
        policy = FractionPolicy(0.1)
        assert not policy.should_fire(9, 100)
        assert policy.should_fire(10, 100)
        assert not policy.should_fire(10, 1000)
        assert not policy.should_fire(1, 0)

    def test_interval_needs_both_backlog_and_elapsed_time(self):
        clock = iter([0.0, 1.0, 31.0, 35.0, 40.0, 70.0]).__next__
        policy = IntervalPolicy(30, clock=clock)  # armed at 0.0
        assert not policy.should_fire(1, 10)  # 1.0s: too soon
        assert policy.should_fire(1, 10)  # 31.0s: due
        assert not policy.should_fire(0, 10)  # nothing pending
        policy.reset()  # re-armed at 40.0
        assert not policy.should_fire(1, 10)  # 70.0s: 30s exactly... due

    def test_parse_round_trips_specs(self):
        for spec in ("rows:500", "fraction:0.01", "interval:30"):
            assert parse_policy(spec).spec == spec

    @pytest.mark.parametrize(
        "spec",
        ["", "rows", "every:5", "rows:zero", "rows:0", "fraction:1.5",
         "interval:-1"],
    )
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(StreamError):
            parse_policy(spec)


@pytest.fixture
def basket_path(tmp_path):
    database = TransactionDatabase(
        [[1, 2, 3], [1, 2], [2, 3], [4], [1, 2, 3, 4]]
    )
    path = tmp_path / "data.basket"
    save_basket_file(database, path)
    return path


class TestAbsorbAppends:
    def test_no_growth_is_a_cheap_no_op(self, basket_path):
        database = FileBackedDatabase(basket_path)
        assert database.absorb_appends() == (0, False)

    def test_external_append_becomes_rows(self, basket_path):
        database = FileBackedDatabase(basket_path)
        with open(basket_path, "a") as handle:
            handle.write("7 8\n9\n")
        assert database.absorb_appends() == (2, False)
        assert len(database) == 7
        assert list(database)[-2:] == [(7, 8), (9,)]
        assert database.item_counts()[9] == 1

    def test_partial_trailing_line_waits_for_the_writer(self, basket_path):
        database = FileBackedDatabase(basket_path)
        with open(basket_path, "a") as handle:
            handle.write("7 8\n9 1")  # no trailing newline yet
        assert database.absorb_appends() == (1, False)
        assert list(database)[-1] == (7, 8)
        with open(basket_path, "a") as handle:
            handle.write("0\n")  # the writer finishes the line
        assert database.absorb_appends() == (1, False)
        assert list(database)[-1] == (9, 10)

    def test_foreign_rewrite_is_a_full_invalidation(self, basket_path):
        database = FileBackedDatabase(basket_path)
        basket_path.write_text("5 6\n7\n")
        absorbed, rewritten = database.absorb_appends()
        assert (absorbed, rewritten) == (0, True)
        assert list(database) == [(5, 6), (7,)]

    def test_bad_appended_line_raises_without_mutating(self, basket_path):
        from repro.errors import DatabaseError

        database = FileBackedDatabase(basket_path)
        rows_before = len(database)
        with open(basket_path, "a") as handle:
            handle.write("7 oranges\n")
        with pytest.raises(DatabaseError):
            database.absorb_appends()
        assert len(database) == rows_before


class TestDeltaVersioning:
    def _index(self, version=3):
        return RuleIndex(
            negative_rules=[negative([1], [2]), negative([3], [4])],
            positive_rules=[positive([5], [6])],
            version=version,
        )

    def test_version_survives_the_serialize_round_trip(self):
        index = self._index(version=7)
        assert RuleIndex.from_json(index.to_json()).version == 7

    def test_apply_rejects_a_skewed_base_version(self):
        index = self._index(version=3)
        delta = RuleIndexDelta(from_version=2, to_version=3)
        with pytest.raises(VersionSkewError):
            index.apply_delta(delta)

    def test_apply_rejects_a_non_advancing_target_version(self):
        index = self._index(version=3)
        delta = RuleIndexDelta(from_version=3, to_version=3)
        with pytest.raises(VersionSkewError):
            index.apply_delta(delta)

    def test_apply_rejects_removing_an_unknown_rule(self):
        index = self._index()
        delta = RuleIndexDelta(
            from_version=3,
            to_version=4,
            removed=(("negative", (9,), (10,)),),
        )
        with pytest.raises(VersionSkewError):
            index.apply_delta(delta)

    def test_apply_rejects_adding_a_colliding_rule(self):
        index = self._index()
        delta = RuleIndexDelta(
            from_version=3, to_version=4, added=(negative([1], [2]),)
        )
        with pytest.raises(VersionSkewError):
            index.apply_delta(delta)

    def test_empty_delta_only_bumps_the_version(self):
        index = self._index(version=3)
        delta = RuleIndexDelta(from_version=3, to_version=4)
        assert delta.is_empty()
        applied = index.apply_delta(delta)
        assert applied.version == 4
        assert len(applied) == len(index)


@pytest.fixture
def taxonomy():
    return taxonomy_from_nested(
        {"drinks": {"soda": ["cola", "lemonade"], "water": ["still"]}}
    )


@pytest.fixture
def stream_setup(tmp_path, taxonomy):
    """A basket file whose appends genuinely change the mined rules."""
    cola = taxonomy.id_of("cola")
    lemonade = taxonomy.id_of("lemonade")
    still = taxonomy.id_of("still")
    rows = [[cola, still]] * 40 + [[lemonade]] * 40 + [[cola]] * 20
    path = tmp_path / "stream.basket"
    save_basket_file(TransactionDatabase(rows), path)
    return {
        "path": path,
        "index_path": tmp_path / "rules.json",
        "taxonomy": taxonomy,
        "config": MiningConfig(minsup=0.2, minri=0.3),
        "append": [[lemonade, still]] * 30,
    }


def _miner(setup, **kwargs):
    database = FileBackedDatabase(setup["path"])
    return StreamingMiner(
        database,
        setup["taxonomy"],
        config=setup["config"],
        policy=kwargs.pop("policy", RowCountPolicy(10)),
        index_path=setup["index_path"],
        **kwargs,
    )


def _append(setup):
    with open(setup["path"], "a") as handle:
        for row in setup["append"]:
            handle.write(" ".join(str(item) for item in row) + "\n")


class TestStreamingMiner:
    def test_bootstrap_publishes_version_one(self, stream_setup):
        miner = _miner(stream_setup).start()
        assert miner.index.version == 1
        assert len(miner.index) > 0
        assert miner.rows_published == 100
        assert stream_setup["index_path"].exists()
        assert miner.state_path.exists()

    def test_poll_fires_only_when_the_policy_says(self, stream_setup):
        miner = _miner(stream_setup, policy=RowCountPolicy(31)).start()
        assert not miner.poll()  # nothing pending
        _append(stream_setup)  # 30 rows: one short of the threshold
        assert not miner.poll()
        assert miner.pending_rows == 30
        assert miner.poll(ignore_policy=True)  # the CLI's --once mode
        assert miner.index.version == 2
        assert miner.pending_rows == 0

    def test_restart_resumes_without_re_mining_seen_rows(
        self, stream_setup
    ):
        first = _miner(stream_setup).start()
        _append(stream_setup)
        assert first.poll()
        assert first.index.version == 2

        registry = MetricsRegistry()
        with obs_session(registry=registry):
            resumed = _miner(stream_setup).start()
        assert registry.counter("stream.restart.resumed") == 1
        assert resumed.index.version == 2
        assert resumed.rows_published == 130
        assert resumed.remines == 0  # nothing was re-mined on start
        assert not resumed.poll()  # and nothing is pending

    def test_corrupt_checkpoint_degrades_to_adopt(self, stream_setup):
        first = _miner(stream_setup).start()
        first.state_path.write_text("{not json")

        registry = MetricsRegistry()
        with obs_session(registry=registry):
            adopted = _miner(stream_setup).start()
        assert registry.counter("stream.restart.state_discarded") == 1
        assert adopted.index.version == 1  # the index file still counts
        assert adopted.rows_published == 0  # but coverage is unknown
        assert adopted.pending_rows == 100
        assert adopted.poll()  # re-mines everything once
        assert adopted.index.version == 2

    def test_rejected_push_leaves_the_watcher_at_the_old_version(
        self, stream_setup
    ):
        miner = _miner(
            stream_setup, push=lambda delta: {"error": "nope"}
        ).start()
        _append(stream_setup)
        with pytest.raises(StreamError):
            miner.poll()
        assert miner.index.version == 1
        assert miner.deltas_pushed == 0
        saved = json.loads(miner.state_path.read_text())
        assert saved["index_version"] == 1

    def test_delta_push_keeps_a_live_service_bit_identical(
        self, stream_setup
    ):
        miner = _miner(stream_setup).start()
        service = RuleService(RuleIndex.load(stream_setup["index_path"]))
        miner.push = push_to_service(service)
        _append(stream_setup)
        assert miner.poll()
        assert service.index.version == 2
        assert service.index.to_json() == miner.index.to_json()
        assert miner.deltas_pushed == 1

    def test_default_engine_extends_one_index_across_appends(
        self, stream_setup, taxonomy
    ):
        """Under the default config the watcher's session keeps one
        vertical index: each append extends it in O(append), the file
        is read once in total, and the rules still equal a from-scratch
        mine of the whole file by a row-scanning engine."""
        assert stream_setup["config"].engine == DEFAULT_ENGINE == "cached"
        miner = _miner(stream_setup).start()
        database = miner.database
        bootstrap_scans = database.scans
        assert bootstrap_scans == 1
        lemonade = taxonomy.id_of("lemonade")
        # The first append drops every negative rule, the second brings
        # rules back, so both deltas are non-trivial.
        for appended in (stream_setup["append"], [[lemonade]] * 25):
            stream_setup["append"] = appended
            _append(stream_setup)
            assert miner.poll()
            stats = miner.session.run_metrics
            assert stats.counter("cache.extensions") == 1
            assert stats.counter("cache.invalidations") == 0
            assert stats.counter("cache.misses") == 0
        assert miner.index.version == 3
        assert database.scans == bootstrap_scans

        scratch = mine_negative_rules(
            FileBackedDatabase(stream_setup["path"]), taxonomy,
            config=stream_setup["config"], engine="bitmap",
        )
        fresh = RuleIndex(
            negative_rules=scratch.rules,
            positive_rules=generate_rules(
                scratch.large_itemsets, miner.minconf
            ),
            taxonomy=taxonomy,
            large_itemsets=scratch.large_itemsets,
            version=miner.index.version,
        )
        assert len(database) == 155
        assert scratch.rules
        assert fresh.to_json() == miner.index.to_json()


class TestServiceDeltaApplication:
    def _service_and_delta(self, taxonomy):
        cola = taxonomy.id_of("cola")
        lemonade = taxonomy.id_of("lemonade")
        still = taxonomy.id_of("still")
        old = RuleIndex(
            negative_rules=[negative([cola], [still], ri=2.0)],
            positive_rules=[positive([lemonade], [still])],
            taxonomy=taxonomy,
            version=1,
        )
        service = RuleService(old, cache_size=8)
        # The delta touches only lemonade's rule: cola's cached answers
        # must survive, lemonade's must be recomputed.
        delta = RuleIndexDelta(
            from_version=1,
            to_version=2,
            changed=(positive([lemonade], [still], confidence=0.95),),
        )
        return service, delta, cola, lemonade

    def test_reload_delta_installs_the_new_version(self, taxonomy):
        service, delta, _, _ = self._service_and_delta(taxonomy)
        response = service.reload_delta(delta.to_payload())
        assert response["ok"] and response["index_version"] == 2
        assert service.stats()["index_version"] == 2

    def test_untouched_cache_entries_survive_with_remapped_slots(
        self, taxonomy
    ):
        service, delta, cola, lemonade = self._service_and_delta(taxonomy)
        before_cola = service.score([cola])
        service.score([lemonade])
        registry = MetricsRegistry()
        with obs_session(registry=registry):
            service.apply_delta(delta)
        assert registry.counter("serve.cache.delta_kept") == 1
        assert registry.counter("serve.cache.delta_invalidated") == 1
        hits_before = service._score_cache.hits
        after_cola = service.score([cola])  # served from the kept entry
        assert service._score_cache.hits == hits_before + 1
        assert after_cola["matches"] == [
            {**match, "slot": service.index.slots_by_key()[key]}
            for match, key in zip(
                before_cola["matches"],
                [
                    ("negative", (cola,), (taxonomy.id_of("still"),)),
                ],
            )
        ]

    def test_touched_basket_sees_the_new_statistics(self, taxonomy):
        service, delta, _, lemonade = self._service_and_delta(taxonomy)
        service.score([lemonade])  # populate the cache at v1
        service.apply_delta(delta)
        matches = service.score([lemonade])["matches"]
        assert matches[0]["rule"]["confidence"] == 0.95

    def test_version_skew_is_an_error_response_on_the_wire(self, taxonomy):
        from repro.serve.service import dispatch

        service, delta, _, _ = self._service_and_delta(taxonomy)
        stale = RuleIndexDelta(from_version=5, to_version=6)
        response = dispatch(
            service,
            {"op": "reload_delta", "delta": stale.to_payload()},
        )
        assert "error" in response
        # and the service is untouched by the rejected delta
        assert service.index.version == 1
        assert service.reload_delta(delta.to_payload())["ok"]

    def test_masks_build_once_per_index_and_never_go_stale(
        self, taxonomy
    ):
        """Misses on one index share one mask build; a delta forces a
        rebuild, and an uncached service then answers exactly like a
        fresh service on the new index."""
        cola = taxonomy.id_of("cola")
        lemonade = taxonomy.id_of("lemonade")
        still = taxonomy.id_of("still")
        old = RuleIndex(
            negative_rules=[negative([cola], [still], ri=2.0)],
            positive_rules=[positive([lemonade], [still])],
            taxonomy=taxonomy,
            version=1,
        )
        service = RuleService(old, cache_size=0)
        baskets = [[cola], [lemonade], [cola, lemonade], [still], []]
        # Slots shift: the added rule outranks cola's, which is removed.
        delta = RuleIndexDelta(
            from_version=1,
            to_version=2,
            added=(negative([lemonade], [cola], ri=3.0),
                   positive([cola, still], [lemonade])),
            removed=(("negative", (cola,), (still,)),),
        )
        registry = MetricsRegistry()
        with obs_session(registry=registry):
            for basket in baskets:
                service.score(basket)
            assert registry.counter("serve.matcher.builds") == 1
            service.apply_delta(delta)
            assert registry.counter("serve.matcher.builds") == 1
            service.score([cola])
            assert registry.counter("serve.matcher.builds") == 2
        fresh = RuleService(service.index, cache_size=0)
        for basket in baskets + [[cola, still]]:
            for limit in (None, 1):
                assert service.score(basket, limit) == fresh.score(
                    basket, limit
                )
        assert service.score([lemonade])["matches"][0]["rule"][
            "consequent"
        ] == [cola]

    def test_taxonomy_change_flushes_the_whole_cache(self, taxonomy):
        service, _, cola, _ = self._service_and_delta(taxonomy)
        service.score([cola])
        new_taxonomy = taxonomy_from_nested(
            {"drinks": {"soda": ["cola", "lemonade"],
                        "water": ["still", "sparkling"]}}
        )
        delta = RuleIndexDelta(
            from_version=1,
            to_version=2,
            taxonomy_changed=True,
            taxonomy=new_taxonomy,
        )
        registry = MetricsRegistry()
        with obs_session(registry=registry):
            service.apply_delta(delta)
        assert registry.counter("serve.cache.delta_flush") == 1
        assert len(service._score_cache) == 0
