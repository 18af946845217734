"""E10 — Online serving: basket-scoring QPS/latency, cold vs hot LRU.

Mines a rule set from the "Tall" dataset once, compiles it into a
:class:`~repro.serve.rule_index.RuleIndex`, and replays the dataset's
own transactions as scoring requests against a
:class:`~repro.serve.service.RuleService` in two configurations:

``cold``
    the hot-basket cache disabled (``cache_size=0``) — every request
    pays the full slot-mask match plus payloads for every fired rule;
``cold-limit10``
    the same uncached scoring with ``limit`` 10, the request shape of
    the ``serve-open`` end-to-end workload — only the ten strongest
    matches are built, so this isolates the match itself (repeated
    like ``hot``; every request still misses);
``hot``
    a warmed LRU cache — every request is answered from the cache.

Before timing, the fast matcher is asserted bit-identical to the naive
all-rules subset scan (:func:`~repro.serve.matcher.naive_match`) on the
whole request workload, with the taxonomy-aware index and with a flat
one, so the numbers always describe a *correct* matcher. One on-target
selective generation (``op: select``) is also timed, for the report
only.

The gate values are ``wall_per_10k_s`` — per-request latency times
10,000 — because the regression gate clamps anything below 5 ms to its
measurement floor and a single hot request is microseconds.

Folds its report into ``BENCH_counting.json`` under the ``"serving"``
key (``["quick"]["serving"]`` on ``--quick``). Exits non-zero when the
hot path is not faster than the cold path — the LRU regression the CI
smoke run pins.

Run::

    python -m benchmarks.bench_serving --quick
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path


def _build_index(dataset, minsup: float, minri: float, minconf: float,
                 max_positive: int):
    """Mine once and compile the serving index (plus a flat twin)."""
    from repro.core.api import MiningConfig, mine_negative_rules
    from repro.mining.rules import generate_rules
    from repro.serve import RuleIndex

    config = MiningConfig(
        minsup=minsup, minri=minri, max_sibling_replacements=1
    )
    result = mine_negative_rules(
        dataset.database, dataset.taxonomy, config=config
    )
    # A serving index keeps the strongest positives, not the saturated
    # minconf-0.5 set — generate_rules sorts by confidence already.
    positives = generate_rules(result.large_itemsets, minconf)
    positives = positives[:max_positive]
    index = RuleIndex(
        negative_rules=result.rules,
        positive_rules=positives,
        taxonomy=dataset.taxonomy,
    )
    flat = RuleIndex(
        negative_rules=result.rules, positive_rules=positives
    )
    return index, flat


def _verify_matcher(index, baskets) -> None:
    """Fast path == naive oracle, bit-identical, on every basket."""
    from repro.serve import BasketMatcher, naive_match

    matcher = BasketMatcher(index)
    for basket in baskets:
        fast = matcher.match(basket)
        naive = naive_match(index, basket)
        assert fast == naive, (
            f"matcher disagrees with the naive scan on {basket}"
        )


def _time_mode(service, baskets, rounds: int,
               limit: int | None = None) -> dict:
    """Score every basket *rounds* times; per-request wall clock."""
    start = time.perf_counter()
    matches = 0
    for _ in range(rounds):
        for basket in baskets:
            matches += service.score(list(basket), limit)["total_matches"]
    wall = time.perf_counter() - start
    requests = rounds * len(baskets)
    per_request = wall / requests
    return {
        "requests": requests,
        "wall_s": round(wall, 4),
        "latency_us": round(per_request * 1e6, 1),
        "wall_per_10k_s": round(per_request * 1e4, 5),
        "qps": round(1.0 / per_request, 1),
        "matches_per_request": matches // requests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset / short workload (the CI smoke "
             "configuration)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_counting.json",
        help="JSON report to fold the serving key into",
    )
    parser.add_argument(
        "--no-check",
        action="store_false",
        dest="check",
        help="report only; do not fail when the hot path is not faster "
             "than the cold path",
    )
    args = parser.parse_args(argv)

    os.environ.setdefault(
        "REPRO_BENCH_SCALE", "0.02" if args.quick else "0.1"
    )
    from benchmarks.common import MINRI, dataset, fold_report, paper_row
    from repro.serve import RuleService, mine_selective

    tall = dataset("tall")
    minsup = 0.10
    n_baskets = 100 if args.quick else 300
    hot_rounds = 5 if args.quick else 10

    index, flat = _build_index(
        tall, minsup, MINRI, minconf=0.9, max_positive=2000
    )
    baskets = sorted(
        {tuple(sorted(set(row))) for row in list(tall.database)}
    )[:n_baskets]
    paper_row(
        "index",
        rules=len(index),
        negative=index.negative_count,
        positive=index.positive_count,
        baskets=len(baskets),
    )

    _verify_matcher(index, baskets)
    _verify_matcher(flat, baskets)
    paper_row("verify", oracle="bit-identical", modes="taxonomy+flat")

    cold = _time_mode(RuleService(index, cache_size=0), baskets, 1)
    # Limited misses are ~50x cheaper than full ones: repeat them like
    # the hot path so the mode's wall sits well above timer noise.
    cold_limit10 = _time_mode(
        RuleService(index, cache_size=0), baskets, hot_rounds, limit=10
    )
    hot_service = RuleService(index, cache_size=4 * len(baskets))
    for basket in baskets:  # warm the cache
        hot_service.score(list(basket))
    hot = _time_mode(hot_service, baskets, hot_rounds)
    hot["cache_hits"] = hot_service.stats()["cache_hits"]
    paper_row("cold", **{k: cold[k] for k in
                         ("latency_us", "qps", "matches_per_request")})
    paper_row("cold-limit10", **{k: cold_limit10[k] for k in
                                 ("latency_us", "qps")})
    paper_row("hot", **{k: hot[k] for k in
                        ("latency_us", "qps", "cache_hits")})

    target = max(
        tall.database.item_counts().items(), key=lambda kv: (kv[1], kv[0])
    )[0]
    start = time.perf_counter()
    selective = mine_selective(
        tall.database, tall.taxonomy, target, minsup, MINRI
    )
    selective_wall = time.perf_counter() - start
    paper_row(
        "selective",
        target=target,
        wall_s=round(selective_wall, 4),
        negative_rules=len(selective.negative_rules),
        data_passes=selective.stats.data_passes,
    )

    speedup = round(cold["wall_per_10k_s"] / hot["wall_per_10k_s"], 1)
    report = {
        "dataset": "tall",
        "scale": os.environ["REPRO_BENCH_SCALE"],
        "minsup": minsup,
        "transactions": len(tall.database),
        "rules": len(index),
        "negative_rules": index.negative_count,
        "positive_rules": index.positive_count,
        "baskets": len(baskets),
        "modes": {
            "cold": cold, "cold-limit10": cold_limit10, "hot": hot
        },
        "wall_per_10k_s": {
            "cold": cold["wall_per_10k_s"],
            "cold-limit10": cold_limit10["wall_per_10k_s"],
            "hot": hot["wall_per_10k_s"],
        },
        "hot_speedup": speedup,
        "selective": {
            "target": target,
            "wall_s": round(selective_wall, 4),
            "negative_rules": len(selective.negative_rules),
            "positive_rules": len(selective.positive_rules),
            "data_passes": selective.stats.data_passes,
        },
    }
    fold_report(args.out, "serving", report, quick=args.quick)
    paper_row("hot vs cold", speedup=speedup)
    print(f"wrote serving into {args.out}")

    if args.check and speedup <= 1.0:
        print(
            "FAIL: the hot LRU path is not faster than the cold path",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
