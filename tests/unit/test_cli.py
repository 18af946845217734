"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.parallel.shm import live_segments
from repro.data.io import (
    load_basket_file,
    load_taxonomy_file,
    save_basket_file,
    save_taxonomy_file,
)
from repro.data.database import TransactionDatabase
from repro.taxonomy.builders import taxonomy_from_nested


@pytest.fixture
def dataset_files(tmp_path):
    """A tiny on-disk dataset with a planted negative association."""
    taxonomy = taxonomy_from_nested(
        {"drinks": {"soda": ["cola", "lemonade"], "water": ["still"]}}
    )
    cola = taxonomy.id_of("cola")
    lemonade = taxonomy.id_of("lemonade")
    still = taxonomy.id_of("still")
    rows = [[cola, still]] * 40 + [[lemonade]] * 40 + [[cola]] * 20
    baskets = tmp_path / "data.basket"
    tax_path = tmp_path / "tax.tsv"
    save_basket_file(TransactionDatabase(rows), baskets)
    save_taxonomy_file(taxonomy, tax_path)
    return str(baskets), str(tax_path)


class TestGenerate:
    def test_writes_both_files(self, tmp_path, capsys):
        baskets = tmp_path / "out.basket"
        taxonomy = tmp_path / "out.tsv"
        code = main(
            [
                "generate",
                "--preset", "short",
                "--scale", "0.01",
                "--transactions", "50",
                "--seed", "3",
                "--baskets", str(baskets),
                "--taxonomy", str(taxonomy),
            ]
        )
        assert code == 0
        assert len(load_basket_file(baskets)) == 50
        assert len(load_taxonomy_file(taxonomy)) > 0
        assert "wrote 50 transactions" in capsys.readouterr().out

    def test_tall_preset(self, tmp_path):
        code = main(
            [
                "generate",
                "--preset", "tall",
                "--scale", "0.01",
                "--transactions", "20",
                "--baskets", str(tmp_path / "b"),
                "--taxonomy", str(tmp_path / "t"),
            ]
        )
        assert code == 0


class TestMine:
    def test_prints_rules(self, dataset_files, capsys):
        baskets, taxonomy = dataset_files
        code = main(
            [
                "mine",
                "--baskets", baskets,
                "--taxonomy", taxonomy,
                "--minsup", "0.2",
                "--minri", "0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rules" in out

    def test_naive_miner_flag(self, dataset_files, capsys):
        baskets, taxonomy = dataset_files
        code = main(
            [
                "mine",
                "--baskets", baskets,
                "--taxonomy", taxonomy,
                "--minsup", "0.2",
                "--minri", "0.3",
                "--miner", "naive",
            ]
        )
        assert code == 0

    def test_jobs_flag_matches_serial_output(self, dataset_files, capsys):
        baskets, taxonomy = dataset_files
        base_args = [
            "mine",
            "--baskets", baskets,
            "--taxonomy", taxonomy,
            "--minsup", "0.2",
            "--minri", "0.3",
        ]
        assert main(base_args + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        # Earlier tests may leave engines for the GC; this command must
        # unlink its own segment before main() returns.
        before = set(live_segments())
        assert main(base_args + ["--jobs", "2"]) == 0
        assert set(live_segments()) <= before
        parallel_out = capsys.readouterr().out
        # --jobs alone selects parallel-shm: two workers, no retries.
        assert (
            "(workers 2, retries 0, fallbacks 0, publishes 1"
            in parallel_out
        )
        serial_rules = [
            line for line in serial_out.splitlines() if "=>" in line
        ]
        parallel_rules = [
            line for line in parallel_out.splitlines() if "=>" in line
        ]
        assert serial_rules
        assert parallel_rules == serial_rules

    @pytest.mark.parametrize("engine", ["cached", "bitmap", "mmap"])
    def test_jobs_with_another_engine_is_a_config_error(
        self, dataset_files, capsys, engine
    ):
        baskets, taxonomy = dataset_files
        code = main(
            [
                "mine", "--baskets", baskets, "--taxonomy", taxonomy,
                "--engine", engine, "--jobs", "2",
            ]
        )
        assert code == 2
        assert 'engine="parallel-shm"' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec", ["parallel", "parallel:numpy", "parallel:cached"]
    )
    def test_retired_parallel_specs_are_rejected(
        self, dataset_files, capsys, spec
    ):
        baskets, taxonomy = dataset_files
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "mine", "--baskets", baskets, "--taxonomy", taxonomy,
                    "--engine", spec,
                ]
            )
        assert excinfo.value.code == 2
        assert "parallel-shm" in capsys.readouterr().err

    def test_trace_and_metrics_flags(self, dataset_files, tmp_path,
                                     capsys):
        import json

        baskets, taxonomy = dataset_files
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "mine",
                "--baskets", baskets,
                "--taxonomy", taxonomy,
                "--minsup", "0.2",
                "--minri", "0.3",
                "--trace", str(trace),
                "--metrics", "summary",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "--- metrics ---" in captured.err
        assert "counting.passes" in captured.err
        lines = trace.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)  # every line is valid JSON

    def test_config_error_exits_2(self, dataset_files, capsys):
        baskets, taxonomy = dataset_files
        code = main(
            [
                "mine",
                "--baskets", baskets,
                "--taxonomy", taxonomy,
                "--minsup", "2.0",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestPositive:
    def test_prints_positive_rules(self, dataset_files, capsys):
        baskets, taxonomy = dataset_files
        code = main(
            [
                "positive",
                "--baskets", baskets,
                "--taxonomy", taxonomy,
                "--minsup", "0.2",
                "--minconf", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "large itemsets" in out
        assert "=>" in out

    def test_jobs_flag(self, dataset_files, capsys):
        baskets, taxonomy = dataset_files
        base_args = [
            "positive",
            "--baskets", baskets,
            "--taxonomy", taxonomy,
            "--minsup", "0.2",
            "--minconf", "0.5",
        ]
        assert main(base_args + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        before = set(live_segments())
        assert main(base_args + ["--jobs", "2"]) == 0
        assert set(live_segments()) <= before
        parallel_out = capsys.readouterr().out
        assert "=>" in serial_out
        assert parallel_out == serial_out


class TestInspect:
    def test_prints_statistics(self, dataset_files, capsys):
        baskets, taxonomy = dataset_files
        code = main(
            ["inspect", "--baskets", baskets, "--taxonomy", taxonomy]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TransactionDatabase" in out
        assert "Taxonomy" in out
        assert "covered" in out


class TestEngines:
    def test_plain_table_notes_serving(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "bitmap" in out
        assert "repro serve" in out

    def test_markdown_table_notes_serving(self, capsys):
        assert main(["engines", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| engine |" in out
        assert "Serving:" in out
        assert "`parallel-shm`" in out


class TestCompile:
    def test_writes_loadable_index(self, dataset_files, tmp_path,
                                   capsys):
        from repro.serve import RuleIndex

        baskets, taxonomy = dataset_files
        out_path = tmp_path / "index.json"
        code = main(
            [
                "compile",
                "--baskets", baskets,
                "--taxonomy", taxonomy,
                "--minsup", "0.2",
                "--minri", "0.3",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "compiled" in capsys.readouterr().out
        index = RuleIndex.load(out_path)
        assert index.negative_count > 0
        assert index.taxonomy is not None


class TestServeAndScore:
    @pytest.fixture
    def server(self, dataset_files, tmp_path):
        """A live rule server on an ephemeral port, torn down after."""
        import asyncio
        import threading

        from repro.serve import RuleIndex, RuleService
        from repro.serve.service import start_server

        baskets, taxonomy = dataset_files
        out_path = tmp_path / "index.json"
        assert main(
            [
                "compile",
                "--baskets", baskets,
                "--taxonomy", taxonomy,
                "--minsup", "0.2",
                "--minri", "0.3",
                "--out", str(out_path),
            ]
        ) == 0
        service = RuleService(RuleIndex.load(out_path))
        loop = asyncio.new_event_loop()
        box = {}
        started = threading.Event()

        def run():
            asyncio.set_event_loop(loop)
            server = loop.run_until_complete(
                start_server(service, "127.0.0.1", 0)
            )
            box["port"] = server.sockets[0].getsockname()[1]
            started.set()
            loop.run_forever()
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(10), "server did not start"
        yield box["port"]
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)

    def test_score_basket_by_name(self, server, capsys):
        code = main(
            [
                "score",
                "--port", str(server),
                "--basket", "lemonade",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"matches"' in out
        assert '"negative"' in out

    def test_score_stats(self, server, capsys):
        code = main(["score", "--port", str(server), "--stats"])
        assert code == 0
        assert '"rules"' in capsys.readouterr().out

    def test_unknown_name_is_an_error_exit(self, server, capsys):
        code = main(
            [
                "score",
                "--port", str(server),
                "--basket", "no-such-item",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().out

    def test_connection_refused_reports_cleanly(self, capsys):
        code = main(
            ["score", "--port", "1", "--basket", "1", "--timeout", "2"]
        )
        assert code == 2
        assert "cannot reach server" in capsys.readouterr().err
