"""Command-line interface: ``python -m repro`` / ``repro-mine``.

Subcommands
-----------
``generate``
    Emit a synthetic dataset (basket + taxonomy files) with the paper's
    generator.
``mine``
    Mine strong negative association rules from a basket/taxonomy pair.
``positive``
    Mine generalized positive association rules (the substrate on its
    own).
``inspect``
    Print summary statistics of a basket/taxonomy pair.
``analyze``
    Taxonomy diagnostics: structural profile, coarse-category report,
    per-category balance against the data (Section 2.1.3).
``engines``
    List the registered counting engines with their capability flags.
``measures``
    List the registered interestingness measures with their capability
    flags.
``compile``
    Mine rules and compile them into a serving rule index (one JSON
    file).
``serve``
    Serve a compiled rule index over TCP (newline-delimited JSON).
``score``
    Query a running rule server: score a basket, request on-target
    selective mining, or fetch server stats.
``watch``
    Watch a growing basket file: absorb appends, re-mine incrementally
    when a retrigger policy fires, and push versioned rule-index deltas
    to a running server.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .core.api import MiningConfig, mine_negative_rules
from .core.session import MiningSession
from .measures.registry import measure_table
from .measures.registry import validate_spec as validate_measure_spec
from .mining.engines import (
    DEFAULT_ENGINE,
    capability_table,
    engine_names,
    validate_spec,
)
from .obs.api import METRICS_MODES
from .data.io import (
    load_basket_file,
    load_taxonomy_file,
    save_basket_file,
    save_taxonomy_file,
)
from .core.explain import explain_result_rule
from .errors import ReproError
from .taxonomy.analysis import (
    category_balance,
    format_profile,
    granularity_report,
    profile,
)
from .mining.generalized import mine_generalized
from .mining.rules import generate_rules
from .serve import (
    RuleIndex,
    RuleService,
    SelectiveContext,
    request_once,
)
from .serve.service import run_service
from .stream import StreamingMiner, parse_policy, push_to_server
from .data.filedb import FileBackedDatabase
from .synthetic.generator import generate_dataset
from .synthetic.params import SHORT, TALL, GeneratorParams


def _engine_spec(value: str) -> str:
    """argparse type for ``--engine``: any registered engine name.

    Anything else fails parsing with the registry's message.
    """
    try:
        validate_spec(value)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return value


def _measure_spec(value: str) -> str:
    """argparse type for ``--measure``: any registered measure name."""
    try:
        validate_measure_spec(value)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description=(
            "Negative association rule mining "
            "(Savasere/Omiecinski/Navathe, ICDE 1998)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset"
    )
    generate.add_argument(
        "--preset",
        choices=("short", "tall"),
        default="short",
        help="taxonomy shape: 'short' (fan-out 9) or 'tall' (fan-out 3)",
    )
    generate.add_argument("--transactions", type=int, default=None)
    generate.add_argument("--items", type=int, default=None)
    generate.add_argument("--scale", type=float, default=None,
                          help="scale all extensive parameters by a factor")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--baskets", required=True,
                          help="output basket file")
    generate.add_argument("--taxonomy", required=True,
                          help="output taxonomy file")

    mine = commands.add_parser(
        "mine", help="mine strong negative association rules"
    )
    _add_data_arguments(mine)
    mine.add_argument("--minsup", type=float, default=0.01)
    mine.add_argument("--minri", type=float, default=0.5)
    mine.add_argument("--miner", choices=("improved", "naive"),
                      default="improved")
    mine.add_argument("--engine", type=_engine_spec,
                      default=DEFAULT_ENGINE, metavar="NAME",
                      help="counting engine (default: %(default)s; list "
                           "with 'python -m repro engines')")
    mine.add_argument("--measure", type=_measure_spec, default="ri",
                      metavar="NAME",
                      help="interestingness measure judging candidates "
                           "and rules (list with "
                           "'python -m repro measures')")
    mine.add_argument("--max-size", type=int, default=None)
    mine.add_argument("--segment-rows", type=int, default=None,
                      dest="segment_rows",
                      help="mmap engine: rows per spilled packed segment")
    mine.add_argument("--max-resident", type=int, default=None,
                      dest="max_resident_bytes", metavar="BYTES",
                      help="mmap engine: budget for concurrently open "
                           "segment blocks; evicted blocks are re-opened "
                           "as read-only memory maps on demand "
                           "(default: keep all blocks open)")
    mine.add_argument("--spill-dir", default=None, dest="spill_dir",
                      metavar="DIR",
                      help="mmap engine: parent directory for the "
                           "temporary segment spill directory "
                           "(default: the system temp dir)")
    mine.add_argument("--max-sibling-replacements", type=int,
                      default=None, dest="max_sibling_replacements",
                      help="cap Case-3 sibling replacements (1 = the "
                           "paper's examples, 0 = Case 3 off)")
    mine.add_argument("--trace", default=None, metavar="FILE",
                      dest="trace_path",
                      help="write a JSON-lines trace of spans and metrics "
                           "to FILE")
    mine.add_argument("--metrics", choices=METRICS_MODES, default="none",
                      help="print a metrics report to stderr when mining "
                           "finishes ('summary' = human-readable, "
                           "'json' = machine-readable)")
    mine.add_argument("--limit", type=int, default=25,
                      help="print at most this many rules")
    mine.add_argument("--explain", action="store_true",
                      help="print the full derivation of each rule")
    mine.add_argument("--agreement", action="store_true",
                      help="append a cross-measure agreement section to "
                           "each derivation (implies --explain): every "
                           "registered measure re-judges the run and "
                           "reports whether it admits the rule")

    positive = commands.add_parser(
        "positive", help="mine generalized positive association rules"
    )
    _add_data_arguments(positive)
    positive.add_argument("--minsup", type=float, default=0.01)
    positive.add_argument("--minconf", type=float, default=0.5)
    positive.add_argument("--limit", type=int, default=25)

    inspect = commands.add_parser(
        "inspect", help="print dataset statistics"
    )
    _add_data_arguments(inspect)

    analyze = commands.add_parser(
        "analyze", help="taxonomy diagnostics (granularity, balance)"
    )
    _add_data_arguments(analyze)
    analyze.add_argument("--coarse-fanout", type=int, default=20,
                         help="flag categories with this many children")

    engines = commands.add_parser(
        "engines", help="list registered counting engines"
    )
    engines.add_argument("--markdown", action="store_true",
                         help="emit a GitHub-markdown table (the README's "
                              "engine table is generated with this)")

    measures = commands.add_parser(
        "measures", help="list registered interestingness measures"
    )
    measures.add_argument("--markdown", action="store_true",
                          help="emit a GitHub-markdown table (the "
                               "README's measure table is generated "
                               "with this)")

    compile_ = commands.add_parser(
        "compile",
        help="mine rules and compile a serving rule index",
    )
    _add_data_arguments(compile_)
    compile_.add_argument("--minsup", type=float, default=0.01)
    compile_.add_argument("--minri", type=float, default=0.5)
    compile_.add_argument("--minconf", type=float, default=0.5,
                          help="confidence threshold for the positive "
                               "rules compiled alongside the negatives")
    compile_.add_argument("--engine", type=_engine_spec,
                          default=DEFAULT_ENGINE,
                          metavar="SPEC")
    compile_.add_argument("--measure", type=_measure_spec, default="ri",
                          metavar="NAME",
                          help="interestingness measure the compiled "
                               "negative rules are admitted by")
    compile_.add_argument("--max-size", type=int, default=None)
    compile_.add_argument("--max-sibling-replacements", type=int,
                          default=None, dest="max_sibling_replacements")
    compile_.add_argument("--out", required=True,
                          help="output rule-index JSON file")

    serve = commands.add_parser(
        "serve", help="serve a compiled rule index over TCP"
    )
    serve.add_argument("--index", required=True,
                       help="rule-index JSON file written by 'compile'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7407)
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="hot-basket LRU cache entries (0 disables)")
    serve.add_argument("--baskets", default=None,
                       help="basket file: enables on-demand selective "
                            "generation ('score --target')")
    serve.add_argument("--minsup", type=float, default=0.01,
                       help="selective generation support threshold")
    serve.add_argument("--minri", type=float, default=0.5,
                       help="selective generation interest threshold")
    serve.add_argument("--minconf", type=float, default=0.5)
    serve.add_argument("--engine", type=_engine_spec,
                       default=DEFAULT_ENGINE,
                       metavar="SPEC",
                       help="counting engine for selective generation "
                            "(any registered spec)")
    serve.add_argument("--measure", type=_measure_spec, default="ri",
                       metavar="NAME",
                       help="interestingness measure for selective "
                            "generation (match the compiled index's)")
    serve.add_argument("--max-neighbors", type=int, default=32,
                       dest="max_neighbors",
                       help="selective neighborhood budget")

    score = commands.add_parser(
        "score", help="query a running rule server"
    )
    score.add_argument("--host", default="127.0.0.1")
    score.add_argument("--port", type=int, default=7407)
    group = score.add_mutually_exclusive_group(required=True)
    group.add_argument("--basket", default=None,
                       help="comma-separated item ids or names to score")
    group.add_argument("--target", default=None,
                       help="item id or name for on-target selective "
                            "mining")
    group.add_argument("--stats", action="store_true",
                       help="fetch server statistics")
    score.add_argument("--limit", type=int, default=None,
                       help="return at most this many matches "
                            "(strongest first)")
    score.add_argument("--timeout", type=float, default=10.0)

    watch = commands.add_parser(
        "watch",
        help="watch a growing basket file and push rule-index deltas",
    )
    _add_data_arguments(watch)
    watch.add_argument("--index", required=True,
                       help="rule-index JSON file: adopted as the "
                            "published base when it exists (e.g. from "
                            "'compile'), bootstrapped otherwise; "
                            "rewritten after every re-mine")
    watch.add_argument("--state", default=None,
                       help="checkpoint file for crash-restart "
                            "(default: <index>.state.json)")
    watch.add_argument("--retrigger", default="rows:500",
                       metavar="POLICY",
                       help="re-mine trigger: 'rows:<n>', "
                            "'fraction:<f>' or 'interval:<seconds>' "
                            "(default rows:500)")
    watch.add_argument("--serve-addr", default=None, metavar="HOST:PORT",
                       help="running 'repro serve' instance to push "
                            "deltas to (omit to only rewrite the index "
                            "file)")
    watch.add_argument("--poll-interval", type=float, default=2.0,
                       help="seconds between basket-file polls")
    watch.add_argument("--once", action="store_true",
                       help="one-shot mode: absorb pending appends, "
                            "re-mine if anything is pending (ignoring "
                            "the retrigger threshold), push, exit")
    watch.add_argument("--minsup", type=float, default=0.01)
    watch.add_argument("--minri", type=float, default=0.5)
    watch.add_argument("--minconf", type=float, default=0.5,
                       help="confidence threshold for the positive "
                            "rules compiled alongside the negatives")
    watch.add_argument("--engine", type=_engine_spec,
                       default=DEFAULT_ENGINE,
                       metavar="SPEC",
                       help="counting engine for the incremental "
                            "re-mines ('cached'/'mmap' keep per-session "
                            "state that appends extend in place)")
    watch.add_argument("--measure", type=_measure_spec, default="ri",
                       metavar="NAME",
                       help="interestingness measure for the "
                            "incremental re-mines")
    watch.add_argument("--timeout", type=float, default=10.0,
                       help="delta push timeout (seconds)")
    return parser


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--baskets", required=True, help="basket file")
    parser.add_argument("--taxonomy", required=True, help="taxonomy file")


def _command_generate(args: argparse.Namespace) -> int:
    params: GeneratorParams = SHORT if args.preset == "short" else TALL
    if args.scale is not None:
        params = params.scaled(args.scale)
    updates = {}
    if args.transactions is not None:
        updates["num_transactions"] = args.transactions
    if args.items is not None:
        updates["num_items"] = args.items
    if updates:
        from dataclasses import replace

        params = replace(params, **updates)
    dataset = generate_dataset(params, seed=args.seed)
    save_basket_file(dataset.database, args.baskets)
    save_taxonomy_file(dataset.taxonomy, args.taxonomy)
    print(
        f"wrote {len(dataset.database)} transactions to {args.baskets} and "
        f"{len(dataset.taxonomy)} taxonomy nodes to {args.taxonomy}"
    )
    return 0


def _command_mine(args: argparse.Namespace) -> int:
    database = load_basket_file(args.baskets)
    taxonomy = load_taxonomy_file(args.taxonomy)
    config = MiningConfig(
        minsup=args.minsup,
        minri=args.minri,
        miner=args.miner,
        engine=args.engine,
        measure=args.measure,
        max_size=args.max_size,
        max_sibling_replacements=args.max_sibling_replacements,
        segment_rows=args.segment_rows,
        max_resident_bytes=args.max_resident_bytes,
        spill_dir=args.spill_dir,
        trace_path=args.trace_path,
        metrics=args.metrics,
    )
    session = MiningSession.from_config(database, taxonomy, config)
    try:
        result = mine_negative_rules(
            database, taxonomy, config=config, session=session
        )
    finally:
        session.close()
    print(result.summary(taxonomy, limit=args.limit))
    comparison = None
    if args.agreement:
        from .measures.compare import compare_measures

        comparison = compare_measures(
            result, args.minsup, args.minri
        )
    if args.explain or args.agreement:
        for rule in result.rules[: args.limit]:
            print()
            print(
                explain_result_rule(
                    rule,
                    result.negative_itemsets,
                    result.large_itemsets,
                    taxonomy,
                    agreement=(
                        comparison.agreement_for(rule)
                        if comparison is not None
                        else None
                    ),
                )
            )
    return 0


def _command_positive(args: argparse.Namespace) -> int:
    database = load_basket_file(args.baskets)
    taxonomy = load_taxonomy_file(args.taxonomy)
    index = mine_generalized(database, taxonomy, args.minsup)
    rules = generate_rules(index, args.minconf)
    print(f"large itemsets : {len(index)}")
    print(f"rules          : {len(rules)}")
    for rule in rules[: args.limit]:
        print("  " + rule.format(taxonomy.name_of))
    if len(rules) > args.limit:
        print(f"  ... and {len(rules) - args.limit} more")
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    database = load_basket_file(args.baskets)
    taxonomy = load_taxonomy_file(args.taxonomy)
    print(database)
    print(taxonomy)
    known = sum(1 for item in database.items if item in taxonomy)
    print(f"items covered by taxonomy: {known}/{len(database.items)}")
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    database = load_basket_file(args.baskets)
    taxonomy = load_taxonomy_file(args.taxonomy)
    print(format_profile(profile(taxonomy)))
    findings = granularity_report(
        taxonomy, coarse_fanout=args.coarse_fanout
    )
    if findings:
        print(f"coarse categories (fan-out >= {args.coarse_fanout}):")
        for finding in findings[:20]:
            print(
                f"  {taxonomy.name_of(finding.category)}: "
                f"{finding.fanout} children"
            )
    else:
        print(
            f"no category has fan-out >= {args.coarse_fanout} "
            "(fine-granularity taxonomy)"
        )
    counts = database.item_counts()
    scored = []
    for category in sorted(taxonomy.categories):
        if len(taxonomy.children(category)) >= 2:
            scored.append(
                (category_balance(taxonomy, counts, category), category)
            )
    scored.sort()
    if scored:
        print("least balanced categories (0 = one child dominates):")
        for balance, category in scored[:10]:
            print(f"  {taxonomy.name_of(category)}: {balance:.2f}")
    return 0


def _serving_engine_specs() -> str:
    """The engines ``repro serve --engine`` accepts, spelled out.

    Selective generation counts through the same registry as offline
    mining, so the supported set is every registered name.
    """
    return ", ".join(f"`{name}`" for name in engine_names())


def _command_engines(args: argparse.Namespace) -> int:
    print(capability_table(markdown=args.markdown))
    if args.markdown:
        print()
        print(
            "Serving: `repro serve`'s on-target selective generation "
            "counts through the same registry — its `--engine` flag "
            f"supports {_serving_engine_specs()}."
        )
    else:
        print()
        print(
            "serving: 'repro serve' selective generation supports "
            + _serving_engine_specs().replace("`", "")
            + " via --engine"
        )
    return 0


def _command_measures(args: argparse.Namespace) -> int:
    print(measure_table(markdown=args.markdown))
    if args.markdown:
        print()
        print(
            "Serving: `repro serve`'s on-target selective generation "
            "judges rules through the same registry — any measure "
            "above is valid for its `--measure` flag."
        )
    else:
        print()
        print(
            "serving: 'repro serve' selective generation accepts any "
            "measure above via --measure"
        )
    return 0


def _command_compile(args: argparse.Namespace) -> int:
    database = load_basket_file(args.baskets)
    taxonomy = load_taxonomy_file(args.taxonomy)
    config = MiningConfig(
        minsup=args.minsup,
        minri=args.minri,
        engine=args.engine,
        measure=args.measure,
        max_size=args.max_size,
        max_sibling_replacements=args.max_sibling_replacements,
    )
    result = mine_negative_rules(database, taxonomy, config=config)
    positives = generate_rules(result.large_itemsets, args.minconf)
    index = RuleIndex(
        negative_rules=result.rules,
        positive_rules=positives,
        taxonomy=taxonomy,
        large_itemsets=result.large_itemsets,
        # A fresh compile starts a delta lineage; 'repro watch' bumps
        # the version with every pushed delta.
        version=1,
    )
    index.save(args.out)
    print(
        f"compiled {index.negative_count} negative + "
        f"{index.positive_count} positive rules to {args.out} "
        f"(index version {index.version})"
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    index = RuleIndex.load(args.index)
    selective = None
    if args.baskets is not None:
        if index.taxonomy is None:
            print(
                "error: selective generation needs a taxonomy, but the "
                "index was compiled without one",
                file=sys.stderr,
            )
            return 2
        database = load_basket_file(args.baskets)
        session = MiningSession(
            database, index.taxonomy, engine=args.engine
        )
        selective = SelectiveContext(
            database=database,
            taxonomy=index.taxonomy,
            minsup=args.minsup,
            minri=args.minri,
            minconf=args.minconf,
            session=session,
            max_neighbors=args.max_neighbors,
            measure=args.measure,
        )
    service = RuleService(
        index, cache_size=args.cache_size, selective=selective
    )
    run_service(service, args.host, args.port)
    return 0


def _parse_basket_entry(entry: str) -> int | str:
    entry = entry.strip()
    try:
        return int(entry)
    except ValueError:
        return entry


def _command_score(args: argparse.Namespace) -> int:
    if args.stats:
        payload: dict = {"op": "stats"}
    elif args.target is not None:
        payload = {"op": "select",
                   "target": _parse_basket_entry(args.target)}
    else:
        payload = {
            "op": "score",
            "basket": [
                _parse_basket_entry(entry)
                for entry in args.basket.split(",")
                if entry.strip()
            ],
        }
        if args.limit is not None:
            payload["limit"] = args.limit
    try:
        response = request_once(
            args.host, args.port, payload, timeout=args.timeout
        )
    except OSError as error:
        print(
            f"error: cannot reach server at {args.host}:{args.port} "
            f"({error})",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(response, indent=2, sort_keys=True))
    return 2 if "error" in response else 0


def _parse_serve_addr(value: str) -> tuple[str, int]:
    host, separator, port = value.rpartition(":")
    if not separator or not host:
        raise ReproError(
            f"--serve-addr must be HOST:PORT, got {value!r}"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ReproError(
            f"--serve-addr must be HOST:PORT, got {value!r}"
        ) from exc


def _command_watch(args: argparse.Namespace) -> int:
    database = FileBackedDatabase(args.baskets)
    taxonomy = load_taxonomy_file(args.taxonomy)
    config = MiningConfig(
        minsup=args.minsup,
        minri=args.minri,
        engine=args.engine,
        measure=args.measure,
    )
    push = None
    if args.serve_addr is not None:
        host, port = _parse_serve_addr(args.serve_addr)
        push = push_to_server(host, port, timeout=args.timeout)
    miner = StreamingMiner(
        database,
        taxonomy,
        config=config,
        policy=parse_policy(args.retrigger),
        minconf=args.minconf,
        index_path=args.index,
        state_path=args.state,
        push=push,
    )
    miner.start()
    if args.once:
        fired = miner.poll(ignore_policy=True)
        status = miner.status()
        print(
            f"{'re-mined' if fired else 'up to date'}: "
            f"index version {status['index_version']} "
            f"({status['rules']} rules), "
            f"rows {status['rows_published']}/{status['rows']}, "
            f"deltas pushed {status['deltas_pushed']}"
        )
        return 0
    status = miner.status()
    print(
        f"watching {args.baskets} (policy {status['policy']}, "
        f"index version {status['index_version']}, "
        f"{status['rows_published']} rows published)",
        flush=True,
    )
    miner.run(poll_interval=args.poll_interval)
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "mine": _command_mine,
    "positive": _command_positive,
    "inspect": _command_inspect,
    "analyze": _command_analyze,
    "engines": _command_engines,
    "measures": _command_measures,
    "compile": _command_compile,
    "serve": _command_serve,
    "score": _command_score,
    "watch": _command_watch,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
