"""Unit tests for the engine registry and the MiningSession lifecycle."""

import multiprocessing
from pathlib import Path

import pytest

from repro.core.api import MiningConfig, mine_negative_rules
from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError
from repro.mining.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    BitmapEngine,
    EnginePolicy,
    ParallelShmEngine,
    capability_table,
    create_engine,
    engine_names,
    parse_spec,
    registered_engines,
    validate_spec,
)
from repro.obs import api as obs
from repro.obs.api import obs_session
from repro.taxonomy.builders import taxonomy_from_parents

ROWS = [(1, 2, 3), (2, 3), (1, 3), (3,), (1, 2)]
CANDIDATES = [(1,), (2, 3), (1, 2, 3)]
EXPECTED = {(1,): 3, (2, 3): 2, (1, 2, 3): 1}


class TestRegistry:
    def test_builtin_engines_registered_in_order(self):
        assert engine_names() == (
            "bitmap", "hashtree", "brute",
            "cached", "mmap", "parallel-shm",
        )
        assert ENGINES == engine_names()

    def test_default_engine_is_registered(self):
        assert DEFAULT_ENGINE in engine_names()

    def test_only_parallel_shm_declares_shared_memory(self):
        classes = registered_engines()
        assert [
            name
            for name in engine_names()
            if classes[name].capabilities.shared_memory
        ] == ["parallel-shm"]

    def test_capability_table_lists_every_engine(self):
        text = capability_table()
        for name in engine_names():
            assert name in text
        assert "out_of_core" in text

    def test_capability_table_shows_shared_memory_flag(self):
        text = capability_table()
        assert "shared_memory" in text
        shm_row = next(
            line for line in text.splitlines()
            if line.startswith("parallel-shm")
        )
        assert "yes" in shm_row

    def test_capability_table_marks_only_the_default(self):
        marked = [
            line.split()[0]
            for line in capability_table().splitlines()
            if line.endswith("(default)")
        ]
        assert marked == [DEFAULT_ENGINE]

    def test_configs_and_cli_default_to_the_default_engine(self):
        from repro.cli import _build_parser, _mining_engine

        assert MiningConfig().engine == DEFAULT_ENGINE
        parser = _build_parser()
        for argv in (
            ["compile", "--baskets", "b", "--taxonomy", "t", "--out", "o"],
            ["serve", "--index", "i"],
            ["watch", "--baskets", "b", "--taxonomy", "t", "--index", "i"],
        ):
            assert parser.parse_args(argv).engine == DEFAULT_ENGINE
        # mine resolves its engine after parsing: --jobs > 1 alone
        # selects parallel-shm, an explicit --engine always wins.
        mine = ["mine", "--baskets", "b", "--taxonomy", "t"]
        for extra, expected in (
            ([], DEFAULT_ENGINE),
            (["--jobs", "1"], DEFAULT_ENGINE),
            (["--jobs", "2"], "parallel-shm"),
            (["--jobs", "2", "--engine", "bitmap"], "bitmap"),
        ):
            args = parser.parse_args(mine + extra)
            assert _mining_engine(args.engine, args.n_jobs) == expected

    def test_capability_table_markdown(self):
        lines = capability_table(markdown=True).splitlines()
        assert lines[0].startswith("| engine |")
        assert set(lines[1]) <= {"|", "-"}
        assert len(lines) == 2 + len(engine_names())

    def test_readme_embeds_the_generated_table(self):
        readme = Path(__file__).parents[2] / "README.md"
        assert capability_table(markdown=True) in readme.read_text()


class TestSpecParsing:
    def test_plain_name(self):
        assert parse_spec("bitmap") == "bitmap"

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown counting engine"):
            parse_spec("quantum")

    @pytest.mark.parametrize(
        "spec",
        [
            "parallel:numpy",
            "parallel:quantum",
            "bitmap:numpy",
            "parallel-shm:numpy",
        ],
    )
    def test_composed_specs_rejected(self, spec):
        with pytest.raises(
            ConfigError, match="compositions were removed.*parallel-shm"
        ):
            parse_spec(spec)

    @pytest.mark.parametrize("spec", ["index", "parallel", "numpy"])
    def test_retired_name_names_its_replacement(self, spec):
        replacement = {
            "index": "bitmap",
            "parallel": "parallel-shm",
            "numpy": "parallel-shm",
        }[spec]
        with pytest.raises(
            ConfigError, match=f"removed; use '{replacement}'"
        ):
            parse_spec(spec)

    def test_numpy_is_retired_in_config_and_session(self):
        """The serial packed path is ``parallel-shm`` at one job."""
        message = "'numpy' was removed; use 'parallel-shm'"
        with pytest.raises(ConfigError, match=message):
            MiningConfig(engine="numpy")
        with pytest.raises(ConfigError, match=message):
            MiningSession(ROWS, engine="numpy")
        with pytest.raises(ConfigError, match=message):
            mine_negative_rules(
                TransactionDatabase(ROWS), taxonomy_from_parents({}),
                minsup=0.5, minri=0.5, engine="numpy",
            )

    def test_non_string_spec(self):
        with pytest.raises(ConfigError, match="must be a string"):
            parse_spec(42)

    def test_validate_spec_normalizes_instances(self):
        assert validate_spec("bitmap") == "bitmap"
        assert validate_spec(BitmapEngine()) == "bitmap"


class TestCreateEngine:
    def test_instance_passes_through(self):
        engine = BitmapEngine()
        assert create_engine(engine) is engine

    def test_serial_stays_serial_without_jobs(self):
        assert isinstance(create_engine("bitmap"), BitmapEngine)

    def test_n_jobs_configures_parallel_shm(self):
        session = MiningSession(ROWS, engine="parallel-shm", n_jobs=2)
        assert isinstance(session.engine, ParallelShmEngine)
        assert session.engine.n_jobs == 2
        session.close()
        assert MiningConfig(engine="parallel-shm", n_jobs=4).n_jobs == 4
        with pytest.raises(ConfigError, match="n_jobs"):
            MiningConfig(engine="parallel-shm", n_jobs=0)

    def test_n_jobs_defaults_to_one_and_must_be_positive(self):
        """``engine="parallel-shm"`` alone counts in-process: no pool,
        no worker process, no shared-memory segment."""
        assert EnginePolicy().n_jobs == 1
        children = set(multiprocessing.active_children())
        session = MiningSession(ROWS, engine="parallel-shm")
        try:
            assert session.engine.n_jobs == 1
            assert session.count(CANDIDATES) == EXPECTED
            assert session.engine._pool is None
            assert session.engine._shared is None
            assert set(multiprocessing.active_children()) == children
        finally:
            session.close()
        with pytest.raises(ConfigError, match="n_jobs"):
            EnginePolicy(n_jobs=0)
        with pytest.raises(ConfigError, match="n_jobs"):
            ParallelShmEngine(n_jobs=0)
        with pytest.raises(ConfigError, match="n_jobs"):
            MiningSession(ROWS, engine="parallel-shm", n_jobs=-1)

    @pytest.mark.parametrize(
        "engine", [name for name in engine_names() if name != "parallel-shm"]
    )
    def test_n_jobs_above_one_needs_parallel_shm(self, engine):
        # Never silently serial, never a silent switch to another engine
        # (an mmap run must keep its memory bound).
        with pytest.raises(ConfigError, match='engine="parallel-shm"'):
            MiningConfig(engine=engine, n_jobs=2)
        with pytest.raises(ConfigError, match='engine="parallel-shm"'):
            MiningSession(ROWS, engine=engine, n_jobs=2)
        assert MiningConfig(engine=engine, n_jobs=1).engine == engine
        assert MiningSession(ROWS, engine=engine, n_jobs=1).engine.name == (
            engine
        )

    def test_n_jobs_checked_against_engine_instances(self):
        with pytest.raises(ConfigError, match='engine="parallel-shm"'):
            MiningSession(ROWS, engine=BitmapEngine(), n_jobs=2)
        engine = ParallelShmEngine(n_jobs=2)
        assert MiningSession(ROWS, engine=engine, n_jobs=2).engine is engine
        engine.close()


class TestSessionLifecycle:
    def test_state_prepared_once(self):
        database = TransactionDatabase(ROWS)
        session = MiningSession(database)
        assert session.count(CANDIDATES) == EXPECTED
        state = session._state
        assert state is not None
        assert session.count(CANDIDATES) == EXPECTED
        assert session._state is state

    def test_override_does_not_disturb_session_state(self):
        session = MiningSession(TransactionDatabase(ROWS))
        session.count(CANDIDATES)
        state = session._state
        other = session.count([(9,)], transactions=[(9,), (9, 1)])
        assert other == {(9,): 2}
        assert session._state is state

    def test_begin_run_resets_accumulators(self):
        session = MiningSession(
            TransactionDatabase(ROWS), engine="parallel-shm", n_jobs=1
        )
        session.count(CANDIDATES)
        session.count(CANDIDATES)
        assert session.run_metrics.counter("parallel.serial_tasks") == 2
        assert session.run_metrics.counter("cache.hits") == 1
        session.begin_run()
        assert session.run_metrics.counter("parallel.serial_tasks") == 0
        assert session.run_metrics.counter("cache.hits") == 0
        session.close()

    def test_publish_run_merges_into_active_obs(self):
        from repro.core.negmining import MiningStats

        session = MiningSession(ROWS)
        stats = MiningStats()
        stats.data_passes = 3
        stats.large_itemsets = 7
        with obs_session(metrics="summary", stream=None):
            session.begin_run()
            session.count(CANDIDATES)
            session.publish_run(stats)
            registry = obs.current().registry
            assert registry.counter("mine.runs") == 1
            assert registry.counter("mine.data_passes") == 3
            assert registry.counter("mine.large_itemsets") == 7

    def test_publish_run_without_obs_is_a_noop(self):
        from repro.core.negmining import MiningStats

        assert obs.current() is None
        MiningSession(ROWS).publish_run(MiningStats())

    def test_repr_names_the_engine(self):
        text = repr(MiningSession(ROWS, engine="mmap"))
        assert "'mmap'" in text
        assert "taxonomy=no" in text
