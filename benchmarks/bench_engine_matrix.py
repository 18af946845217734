"""E9 — Serial engine matrix: every counting engine on identical passes.

Times the same two counting passes — the size-1 candidates, then the
size-2 candidates derived from the large singles — on the "Tall" dataset
for every engine, in flat and taxonomy mode at two MinSups. All
engines count the exact same candidate lists and the counts are
asserted bit-identical, so the
wall-clock per logical pass is an apples-to-apples engine comparison
rather than a whole-miner sweep. Each cell repeats its two passes, on a
fresh session with the vertical index dropped, until it has timed at
least :data:`MIN_CELL_WALL_S`, so a millisecond pass is averaged over
enough repetitions to be read. ``mean_wall_per_10_passes_s`` — the mean
wall per pass times ten — is the figure the regression gate compares:
scaled so every engine sits above its measurement floor.

Folds its report into ``BENCH_counting.json`` under the
``"engine_matrix"`` key — or ``["quick"]["engine_matrix"]`` on
``--quick``, so a smoke run never overwrites the committed full-size
baseline — alongside the vertical-cache runs of ``bench_vertical_cache``.
Exits non-zero when the default ``"cached"`` engine's mean wall per
pass is slower than any other cell's — the regression the CI smoke run
pins.

Run::

    python -m benchmarks.bench_engine_matrix --quick
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from pathlib import Path

#: Each cell repeats its passes until it has timed at least this long.
MIN_CELL_WALL_S = 0.1


def _level_candidates(dataset, minsup: float, taxonomy):
    """The two shared passes: all singles, then pairs of large singles."""
    from repro.core.session import MiningSession

    database = dataset.database
    nodes = set(database.items)
    if taxonomy is not None:
        nodes.update(
            taxonomy.ancestor_closure(
                item for item in nodes if item in taxonomy
            )
        )
    singles = [(node,) for node in sorted(nodes)]
    counts = MiningSession(database, taxonomy).count(singles)
    min_count = minsup * len(database)
    large = [items[0] for items, count in counts.items()
             if count >= min_count]
    pairs = []
    for left, right in itertools.combinations(sorted(large), 2):
        if taxonomy is not None and (
            (left in taxonomy and taxonomy.is_ancestor(right, left))
            or (right in taxonomy and taxonomy.is_ancestor(left, right))
        ):
            continue  # Cumulate prunes lineage pairs; keep parity with it.
        pairs.append((left, right))
    return singles, pairs


def _time_cell(dataset, taxonomy, passes, label: str, options: dict):
    """Run both passes on one engine, repeated until the cell has timed
    :data:`MIN_CELL_WALL_S`; returns (counts, measured point)."""
    from repro.core.session import MiningSession
    from repro.mining import vertical

    database = dataset.database
    wall, rounds = 0.0, 0
    while rounds == 0 or wall < MIN_CELL_WALL_S:
        database.reset_scans()
        vertical.invalidate(database)
        session = MiningSession(database, taxonomy, **options)
        merged: dict = {}
        start = time.perf_counter()
        for candidates in passes:
            merged.update(
                session.count(candidates, restrict_to_candidate_items=True)
            )
        wall += time.perf_counter() - start
        session.close()
        rounds += 1
    timed_passes = rounds * len(passes)
    point = {
        "engine": label,
        "wall_s": round(wall, 4),
        "passes": timed_passes,
        "wall_per_pass_s": round(wall / timed_passes, 5),
        "candidates": sum(len(candidates) for candidates in passes),
        "kernel_batches": session.run_metrics.counter("kernel.batches"),
    }
    return merged, point


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
        help="JSON report to fold the engine_matrix key into",
    )
    parser.add_argument(
        "--no-check",
        action="store_false",
        dest="check",
        help="report only; do not fail when cached is slower than "
             "another engine",
    )
    args = parser.parse_args(argv)

    os.environ.setdefault(
        "REPRO_BENCH_SCALE", "0.02" if args.quick else "0.1"
    )
    from benchmarks.common import (
        dataset,
        engine_matrix_configurations,
        fold_report,
        paper_row,
    )

    tall = dataset("tall")
    minsups = [0.10] if args.quick else [0.10, 0.06]
    configurations = engine_matrix_configurations()

    cells = []
    per_pass: dict[str, list[float]] = {}
    for mode in ("flat", "taxonomy"):
        taxonomy = tall.taxonomy if mode == "taxonomy" else None
        for minsup in minsups:
            passes = _level_candidates(tall, minsup, taxonomy)
            reference = None
            for engine, options in configurations:
                counts, point = _time_cell(
                    tall, taxonomy, passes, engine, options
                )
                if reference is None:
                    reference = counts
                else:
                    assert counts == reference, (
                        f"{engine} disagrees in {mode}@{minsup}"
                    )
                point |= {"mode": mode, "minsup": minsup}
                cells.append(point)
                per_pass.setdefault(engine, []).append(
                    point["wall_per_pass_s"]
                )
                paper_row(
                    f"{engine} {mode}@{minsup}",
                    wall_s=point["wall_s"],
                    per_pass_s=point["wall_per_pass_s"],
                    candidates=point["candidates"],
                    kernel_batches=point["kernel_batches"],
                )

    mean_per_pass = {
        engine: round(sum(values) / len(values), 5)
        for engine, values in per_pass.items()
    }
    mean_per_10 = {
        engine: round(10 * sum(values) / len(values), 5)
        for engine, values in per_pass.items()
    }
    faster = [
        engine for engine, value in mean_per_pass.items()
        if value < mean_per_pass["cached"]
    ]
    report = {
        "dataset": "tall",
        "scale": os.environ["REPRO_BENCH_SCALE"],
        "minsups": minsups,
        "transactions": len(tall.database),
        "cells": cells,
        "mean_wall_per_pass_s": mean_per_pass,
        "mean_wall_per_10_passes_s": mean_per_10,
    }
    fold_report(args.out, "engine_matrix", report, quick=args.quick)

    paper_row("mean per-pass", **mean_per_pass)
    print(f"wrote engine_matrix into {args.out}")

    if args.check and faster:
        print(
            f"FAIL: the cached engine ({mean_per_pass['cached']}s per "
            f"pass) is slower than {', '.join(faster)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
