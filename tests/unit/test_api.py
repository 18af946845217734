"""Unit tests for the high-level mine_negative_rules façade."""

import pytest

from repro.core.api import (
    MiningConfig,
    NegativeMiningResult,
    mine_negative_rules,
)
from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError
from repro.measures.registry import create_measure


class TestMiningConfig:
    def test_defaults_valid(self):
        config = MiningConfig()
        assert config.miner == "improved"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("minsup", 0.0),
            ("minri", 1.5),
            ("miner", "other"),
            ("engine", "other"),
            ("metrics", "verbose"),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ConfigError):
            MiningConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["algorithm", "seed", "prune_taxonomy"]
    )
    def test_retired_fields_are_unknown(self, field):
        # Cumulate is the one generalized miner and the Improved miner
        # always prunes its taxonomy: nothing is left to choose or seed.
        with pytest.raises(TypeError, match=field):
            MiningConfig(**{field: None})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_sibling_replacements", -1),
            ("max_size", 0),
            ("max_size", -2),
        ],
    )
    def test_nonsense_caps_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=field):
            MiningConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_sibling_replacements", 0),
            ("max_sibling_replacements", 1),
            ("max_size", 1),
        ],
    )
    def test_boundary_caps_accepted(self, field, value):
        assert getattr(MiningConfig(**{field: value}), field) == value

    @pytest.mark.parametrize(
        "engine", ["cached", "bitmap", "hashtree", "brute"]
    )
    @pytest.mark.parametrize(
        "field,value",
        [
            ("segment_rows", 64),
            ("max_resident_bytes", 4096),
            ("spill_dir", "spill"),
        ],
    )
    def test_mmap_only_options_need_the_mmap_engine(
        self, tmp_path, engine, field, value
    ):
        # A memory bound the engine would ignore is an error, not a
        # silent unbounded run.
        if field == "spill_dir":
            value = str(tmp_path / value)
        with pytest.raises(ConfigError, match="--engine mmap"):
            MiningConfig(engine=engine, **{field: value})
        assert getattr(
            MiningConfig(engine="mmap", **{field: value}), field
        ) == value

    def test_zero_sibling_replacements_turns_case_3_off(
        self, soft_drinks_taxonomy, soft_drinks_database
    ):
        uncapped = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4,
        )
        off = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4, max_sibling_replacements=0,
        )
        assert any(
            candidate.case == "siblings"
            for candidate in uncapped.candidates.values()
        )
        assert off.candidates
        assert all(
            candidate.case == "children"
            for candidate in off.candidates.values()
        )
        assert set(off.candidates) <= set(uncapped.candidates)


class TestMineNegativeRules:
    def test_accepts_raw_transactions(self, soft_drinks_taxonomy):
        taxonomy = soft_drinks_taxonomy
        coke, pepsi = taxonomy.id_of("Coke"), taxonomy.id_of("Pepsi")
        rows = [[coke]] * 50 + [[pepsi]] * 50
        result = mine_negative_rules(rows, taxonomy, minsup=0.2, minri=0.2)
        assert isinstance(result, NegativeMiningResult)

    def test_accepts_database(self, soft_drinks_taxonomy,
                              soft_drinks_database):
        result = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4,
        )
        assert result.rules

    def test_finds_motivating_rule(self, soft_drinks_taxonomy,
                                   soft_drinks_database):
        """Paper Example 1: Ruffles goes with Coke, hence not with Pepsi."""
        taxonomy = soft_drinks_taxonomy
        result = mine_negative_rules(
            soft_drinks_database, taxonomy, minsup=0.05, minri=0.4,
        )
        pepsi = taxonomy.id_of("Pepsi")
        ruffles = taxonomy.id_of("Ruffles")
        pairs = {(rule.antecedent, rule.consequent) for rule in result.rules}
        assert ((pepsi,), (ruffles,)) in pairs

    def test_rule_sides_meet_minsup(self, soft_drinks_taxonomy,
                                    soft_drinks_database):
        result = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4,
        )
        for rule in result.rules:
            assert rule.antecedent_support >= 0.05
            assert rule.consequent_support >= 0.05

    def test_rules_meet_minri(self, soft_drinks_taxonomy,
                              soft_drinks_database):
        result = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4,
        )
        assert all(rule.ri >= 0.4 for rule in result.rules)

    def test_config_object_with_overrides(self, soft_drinks_taxonomy,
                                          soft_drinks_database):
        config = MiningConfig(minsup=0.5, minri=0.9, engine="hashtree")
        result = mine_negative_rules(
            soft_drinks_database,
            soft_drinks_taxonomy,
            minsup=0.05,
            config=config,
        )
        assert result.config.minsup == 0.05   # override wins
        assert result.config.minri == 0.9     # from config
        assert result.config.engine == "hashtree"

    def test_naive_and_improved_agree(self, soft_drinks_taxonomy,
                                      soft_drinks_database):
        improved = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4, miner="improved",
        )
        naive = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4, miner="naive",
        )
        improved_rules = {
            (rule.antecedent, rule.consequent) for rule in improved.rules
        }
        naive_rules = {
            (rule.antecedent, rule.consequent) for rule in naive.rules
        }
        assert improved_rules == naive_rules

    def test_summary_mentions_rules(self, soft_drinks_taxonomy,
                                    soft_drinks_database):
        result = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4,
        )
        text = result.summary(soft_drinks_taxonomy, limit=2)
        assert "rules" in text
        assert "=/=>" in text

    @pytest.mark.parametrize(
        "session_args, overrides, field",
        [
            ((), {"measure": "kong-interest"}, "measure"),
            ((), {"figure3_literal": True}, "figure3_literal"),
            (("bitmap",), {}, "engine"),
            ((), {"engine": "brute"}, "engine"),
        ],
        ids=["measure", "figure3_literal", "session-engine", "config-engine"],
    )
    def test_session_must_match_the_config(
        self, soft_drinks_taxonomy, soft_drinks_database,
        session_args, overrides, field,
    ):
        # An explicit session used to override the config silently:
        # measure="kong-interest" returned RI rules while
        # result.config.measure said "kong-interest".
        session = MiningSession(
            soft_drinks_database, soft_drinks_taxonomy, *session_args
        )
        with pytest.raises(ConfigError, match=f"session's {field} "):
            mine_negative_rules(
                soft_drinks_database, soft_drinks_taxonomy,
                minsup=0.05, minri=0.4, session=session, **overrides,
            )

    def test_matching_session_is_used(
        self, soft_drinks_taxonomy, soft_drinks_database
    ):
        config = MiningConfig(
            minsup=0.05, minri=0.4, engine="bitmap",
            measure="kong-interest",
        )
        session = MiningSession.from_config(
            soft_drinks_database, soft_drinks_taxonomy, config
        )
        result = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            config=config, session=session,
        )
        assert result.rules
        assert {rule.measure for rule in result.rules} == {"kong-interest"}
        literal = MiningSession(
            soft_drinks_database, soft_drinks_taxonomy,
            measure=create_measure("ri", figure3_literal=True),
        )
        assert mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4, figure3_literal=True, session=literal,
        ).config.figure3_literal

    def test_invalid_override_rejected(self, soft_drinks_taxonomy):
        database = TransactionDatabase([[0]])
        with pytest.raises(ConfigError):
            mine_negative_rules(
                database, soft_drinks_taxonomy, minsup=2.0
            )

    def test_trace_and_metrics_observability(
        self, soft_drinks_taxonomy, soft_drinks_database, tmp_path, capsys
    ):
        """trace_path writes valid JSONL; metrics="json" prints a
        parseable registry snapshot covering the counting passes."""
        import json

        trace = tmp_path / "mine-trace.jsonl"
        result = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.05, minri=0.4,
            trace_path=str(trace), metrics="json",
        )
        assert result.rules  # observability must not change the mining

        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert records, "trace file is empty"
        assert records[-1]["type"] == "metrics"
        span_names = {
            record["name"] for record in records
            if record["type"] == "span"
        }
        assert "mine.rule_gen" in span_names
        assert any(name.startswith("count.") for name in span_names)

        snapshot = json.loads(capsys.readouterr().err)
        counters = snapshot["counters"]
        assert counters["counting.passes"] >= 1
        assert counters["counting.candidates"] >= 1
        assert counters["mine.runs"] == 1
