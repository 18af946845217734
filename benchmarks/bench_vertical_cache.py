"""E8 — Vertical index cache: cached vs rebuild-per-pass vs hash tree.

Runs a full multi-level Cumulate mining sweep on the "Tall" dataset
(taxonomy height >= 3, so the descendant-OR path does real work) once per
counting engine and reports wall time, wall time per logical pass, peak
RSS and cache footprint. Four configurations:

``cached``
    The vertical index cache: one physical pass builds per-item bitmaps,
    every later pass intersects them (``engine="cached"``).
``cached-rebuild``
    The same vertical counting, but a benchmark-local engine drops the
    index before every pass, so each pass pays one physical scan, one
    build and one miss — the baseline the cache amortizes away.
``bitmap``
    The bitmap engine: per-pass candidate-restricted bitmaps over
    ancestor-extended rows.
``hashtree``
    The paper-faithful Apriori hash tree.

Folds its report into ``BENCH_counting.json`` next to the repo root
(override with ``--out``) under the ``"vertical_cache"`` key — or
``["quick"]["vertical_cache"]`` on ``--quick``, so a smoke run never
overwrites the committed full-size baseline — and exits non-zero when
the cached engine is not faster than the bitmap engine, so CI catches
cache regressions.

Run::

    python -m benchmarks.bench_vertical_cache --quick
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path


def _rebuild_engine():
    """A ``cached`` engine that rebuilds its index on every pass."""
    from repro.mining import vertical
    from repro.mining.engines import CachedEngine

    class RebuildEngine(CachedEngine):
        def count(self, state, candidates, **kwargs):
            vertical.invalidate(state.transactions)
            return super().count(state, candidates, **kwargs)

    return RebuildEngine()


def _run_engine(dataset, minsups, label: str, engine) -> dict:
    """One full mining sweep; returns the measured point."""
    from repro.core.session import MiningSession
    from repro.mining import vertical
    from repro.mining.generalized import mine_generalized

    database = dataset.database
    database.reset_scans()
    vertical.invalidate(database)
    session = MiningSession(database, dataset.taxonomy, engine)
    start = time.perf_counter()
    large = 0
    for minsup in minsups:
        index = mine_generalized(
            database,
            dataset.taxonomy,
            minsup,
            session=session,
        )
        large += len(index)
    wall = time.perf_counter() - start
    metrics = session.run_metrics
    logical = database.logical_scans
    return {
        "engine": label,
        "wall_s": round(wall, 4),
        "logical_passes": logical,
        "physical_passes": database.scans,
        "wall_per_pass_s": round(wall / logical, 5) if logical else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache_hits": metrics.counter("cache.hits"),
        "cache_misses": metrics.counter("cache.misses"),
        "index_bytes": int(metrics.gauge("cache.bytes")),
        "large_itemsets": large,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset / single support (the CI smoke configuration)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_counting.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--no-check",
        action="store_false",
        dest="check",
        help="report only; do not fail when cached is slower than bitmap",
    )
    args = parser.parse_args(argv)

    # The shared dataset cache reads REPRO_BENCH_SCALE at import time, so
    # pick the size before importing benchmarks.common.
    os.environ.setdefault(
        "REPRO_BENCH_SCALE", "0.02" if args.quick else "0.1"
    )
    from benchmarks.common import dataset, fold_report, paper_row

    tall = dataset("tall")
    minsups = [0.10] if args.quick else [0.10, 0.08, 0.06]
    assert tall.taxonomy.height >= 3, "need a multi-level taxonomy"

    runs = [
        _run_engine(tall, minsups, "cached", "cached"),
        _run_engine(tall, minsups, "cached-rebuild", _rebuild_engine()),
        _run_engine(tall, minsups, "bitmap", "bitmap"),
        _run_engine(tall, minsups, "hashtree", "hashtree"),
    ]
    by_engine = {run["engine"]: run for run in runs}
    large_counts = {run["large_itemsets"] for run in runs}
    assert len(large_counts) == 1, f"engines disagree: {by_engine}"

    cached = by_engine["cached"]
    speedups = {
        f"vs_{name}": round(run["wall_s"] / cached["wall_s"], 2)
        for name, run in by_engine.items()
        if name != "cached"
    }
    report = {
        "benchmark": "vertical_cache",
        "dataset": "tall",
        "scale": os.environ["REPRO_BENCH_SCALE"],
        "minsups": minsups,
        "taxonomy_height": tall.taxonomy.height,
        "transactions": len(tall.database),
        "runs": runs,
        "speedup_of_cached": speedups,
    }
    fold_report(args.out, "vertical_cache", report, quick=args.quick)

    for run in runs:
        paper_row(
            run["engine"],
            wall_s=run["wall_s"],
            per_pass_s=run["wall_per_pass_s"],
            logical=run["logical_passes"],
            physical=run["physical_passes"],
            rss_kb=run["peak_rss_kb"],
            index_bytes=run["index_bytes"],
        )
    paper_row("speedup", **speedups)
    print(f"wrote {args.out}")

    if args.check and cached["wall_s"] >= by_engine["bitmap"]["wall_s"]:
        print(
            "FAIL: cached engine is not faster than the bitmap engine",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
