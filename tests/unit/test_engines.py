"""Unit tests for the engine registry and the MiningSession lifecycle."""

from pathlib import Path

import pytest

from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError
from repro.mining.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    SERIAL_ENGINES,
    BitmapEngine,
    ParallelEngine,
    all_engine_specs,
    capability_table,
    create_engine,
    engine_names,
    parse_spec,
    registered_engines,
    validate_spec,
)
from repro.obs import api as obs
from repro.obs.api import obs_session

ROWS = [(1, 2, 3), (2, 3), (1, 3), (3,), (1, 2)]
CANDIDATES = [(1,), (2, 3), (1, 2, 3)]
EXPECTED = {(1,): 3, (2, 3): 2, (1, 2, 3): 1}


class TestRegistry:
    def test_builtin_engines_registered_in_order(self):
        assert engine_names() == (
            "bitmap", "hashtree", "brute",
            "cached", "numpy", "mmap", "parallel", "parallel-shm",
        )
        assert ENGINES == engine_names()

    def test_default_engine_is_registered(self):
        assert DEFAULT_ENGINE in engine_names()

    def test_serial_engines_are_the_shardable_ones(self):
        classes = registered_engines()
        assert SERIAL_ENGINES == tuple(
            name
            for name in engine_names()
            if classes[name].capabilities.shardable
        )
        assert "parallel" not in SERIAL_ENGINES

    def test_all_engine_specs_cover_parallel_compositions(self):
        specs = all_engine_specs()
        for name in engine_names():
            assert name in specs
        for name in SERIAL_ENGINES:
            assert f"parallel:{name}" in specs

    def test_capability_table_lists_every_engine(self):
        text = capability_table()
        for name in engine_names():
            assert name in text
        assert "shardable" in text

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
        from repro.cli import _build_parser
        from repro.core.api import MiningConfig

        assert MiningConfig().engine == DEFAULT_ENGINE
        parser = _build_parser()
        for argv in (
            ["mine", "--baskets", "b", "--taxonomy", "t"],
            ["compile", "--baskets", "b", "--taxonomy", "t", "--out", "o"],
            ["serve", "--index", "i"],
            ["watch", "--baskets", "b", "--taxonomy", "t", "--index", "i"],
        ):
            assert parser.parse_args(argv).engine == DEFAULT_ENGINE

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
        assert parse_spec("bitmap") == ("bitmap", None)

    def test_composed_name(self):
        assert parse_spec("parallel:numpy") == ("parallel", "numpy")

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown counting engine"):
            parse_spec("quantum")

    def test_unknown_inner(self):
        with pytest.raises(ConfigError, match="unknown counting engine"):
            parse_spec("parallel:quantum")

    def test_non_wrapper_rejects_inner(self):
        with pytest.raises(ConfigError, match="does not compose"):
            parse_spec("bitmap:numpy")

    @pytest.mark.parametrize("spec", ["index", "parallel:index"])
    def test_retired_name_names_its_replacement(self, spec):
        with pytest.raises(ConfigError, match="removed; use 'bitmap'"):
            parse_spec(spec)

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
        assert not create_engine("bitmap").wraps

    def test_n_jobs_auto_wraps_shardable_engines(self):
        session = MiningSession(ROWS, engine="bitmap", n_jobs=2)
        assert isinstance(session.engine, ParallelEngine)
        assert session.engine.inner.name == "bitmap"

    def test_explicit_composition(self):
        session = MiningSession(ROWS, engine="parallel:numpy", n_jobs=1)
        assert session.engine.wraps
        assert session.engine.inner.name == "numpy"
        assert session.engine.spec == "parallel:numpy"

    def test_parallel_shm_does_not_compose(self):
        with pytest.raises(ConfigError, match="does not compose"):
            parse_spec("parallel-shm:numpy")

    def test_parallel_shm_requires_numpy(self, monkeypatch):
        from repro.mining.engines import parallel as parallel_module

        monkeypatch.setattr(
            parallel_module, "_numpy_available", lambda: False
        )
        with pytest.raises(ConfigError, match="requires NumPy"):
            create_engine("parallel-shm")


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

    def test_serial_unwraps_the_parallel_wrapper(self):
        session = MiningSession(ROWS, engine="parallel:bitmap", n_jobs=1)
        assert session.count(CANDIDATES, serial=True) == EXPECTED
        assert session.parallel_stats.shards == 0

    def test_begin_run_resets_accumulators(self):
        session = MiningSession(ROWS, engine="parallel:bitmap", n_jobs=1)
        session.count(CANDIDATES)
        assert session.parallel_stats.shards > 0
        session.begin_run()
        assert session.parallel_stats.shards == 0
        assert session.cache_stats.hits == 0

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
        text = repr(MiningSession(ROWS, engine="parallel:numpy", n_jobs=1))
        assert "parallel:numpy" in text
        assert "taxonomy=no" in text
