"""E15 — The paper's pipeline, stage by stage (Figures 5-6 decomposed).

Runs the Improved miner's phases on the "Short" and "Tall" datasets and
times each paper stage on its own: the generalized large itemsets
(``positive``), negative candidate generation (``candidates``), the
counting pass over the candidates (``count``), negative-itemset
selection (``select``) and rule generation (``rulegen``). The calls are
the ones ``perfbench``'s traced decomposition and
:func:`benchmarks.sweep.improved_negative_phase` make, on the default
engine. Each stage repeats on the same inputs, with the garbage
collector off, at least :data:`MIN_ROUNDS` times and until it has timed
at least :data:`MIN_CELL_WALL_S`, and its fastest run counts;
``positive`` drops the database's vertical index and opens a fresh
session before every repeat, so each repeat builds it as a pipeline run
does. ``wall_per_10_runs_s`` — a stage's fastest wall times ten, keyed
``<dataset>@<minsup>:<stage>`` — is the figure the regression gate
compares: scaled so every stage sits above its measurement floor.

Every point also records its exact counts (large itemsets, candidate
leaves the kernel expands, candidates, negative itemsets, rules), which
the gate compares exactly.

``--quick`` runs Short and Tall at scale 0.02 (1,000 rows) and MinSup
0.10 and 0.06 and folds its report into ``BENCH_counting.json`` under
``["quick"]["pipeline"]``; without it the run sweeps
:func:`benchmarks.common.support_sweep` at ``REPRO_BENCH_SCALE`` and
lands under ``"pipeline"``.

Run::

    python -m benchmarks.bench_pipeline --quick
"""

from __future__ import annotations

import argparse
import gc
import os
import time
from pathlib import Path

#: Each stage runs at least :data:`MIN_ROUNDS` times and until it has
#: timed at least :data:`MIN_CELL_WALL_S`; its fastest run is recorded.
MIN_CELL_WALL_S = 0.1
MIN_ROUNDS = 3

#: The paper's stages, in pipeline order.
STAGES = ("positive", "candidates", "count", "select", "rulegen")

#: The supports ``--quick`` runs.
QUICK_MINSUPS = (0.10, 0.06)


def _timed(run, walls: dict, stage: str):
    """Call *run* at least :data:`MIN_ROUNDS` times and until it has
    timed :data:`MIN_CELL_WALL_S`; record its fastest call's wall under
    *stage* and return its last result.

    The cyclic garbage collector is off while a stage is timed, as
    :mod:`timeit` turns it off: its passes traverse every object the
    process holds, so they would charge a stage for whatever earlier
    benchmarks in the same process left alive. The fastest call is the
    one least disturbed by other work on a shared host.
    """
    total, fastest, rounds = 0.0, float("inf"), 0
    gc.collect()
    gc.disable()
    try:
        while rounds < MIN_ROUNDS or total < MIN_CELL_WALL_S:
            start = time.perf_counter()
            result = run()
            wall = time.perf_counter() - start
            total += wall
            fastest = min(fastest, wall)
            rounds += 1
    finally:
        gc.enable()
    walls[stage] = fastest
    return result


def run_point(dataset, minsup: float, minri: float) -> tuple[dict, dict]:
    """Time every stage at one support; returns (walls, counts)."""
    from repro import obs
    from repro.core.candidates import generate_negative_candidates
    from repro.core.negmining import select_negatives
    from repro.core.rulegen import generate_negative_rules
    from repro.core.session import MiningSession
    from repro.mining import vertical
    from repro.mining.generalized import mine_generalized
    from repro.obs import MetricsRegistry
    from repro.taxonomy.prune import restrict_to_items

    database, taxonomy = dataset.database, dataset.taxonomy
    walls: dict[str, float] = {}

    def positive():
        vertical.invalidate(database)
        session = MiningSession(database, taxonomy)
        return session, mine_generalized(
            database, taxonomy, minsup, session=session
        )

    session, index = _timed(positive, walls, "positive")

    def candidates():
        singles = [items[0] for items in index.of_size(1)]
        pruned = restrict_to_items(taxonomy, singles)
        return generate_negative_candidates(index, pruned, minsup, minri)

    found = _timed(candidates, walls, "candidates")
    # One more call, outside the timing, reads the kernel's leaf count.
    registry = MetricsRegistry()
    obs.configure(registry=registry)
    try:
        candidates()
    finally:
        obs.shutdown()
    counted = _timed(
        lambda: session.count(
            sorted(found), restrict_to_candidate_items=True
        ),
        walls, "count",
    )
    negatives = _timed(
        lambda: select_negatives(
            found, counted, len(database), minsup, minri,
            measure=session.measure, index=index,
        ),
        walls, "select",
    )
    rules = _timed(
        lambda: generate_negative_rules(
            negatives, index, minri, measure=session.measure,
            minsup=minsup,
        ),
        walls, "rulegen",
    )
    counts = {
        "large_itemsets": len(index),
        "leaves": registry.counter("candidates.leaf_masks"),
        "candidates": len(found),
        "negatives": len(negatives),
        "rules": len(rules),
    }
    return walls, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="Short and Tall at scale 0.02, MinSup 0.10 and 0.06 (the "
             "regression gate's configuration)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_counting.json",
        help="JSON report to fold the pipeline key into",
    )
    args = parser.parse_args(argv)

    if args.quick:
        os.environ["REPRO_BENCH_SCALE"] = "0.02"
    from benchmarks.common import (
        MINRI,
        SCALE,
        SEED,
        dataset,
        fold_report,
        paper_row,
        support_sweep,
    )

    minsups = list(QUICK_MINSUPS) if args.quick else support_sweep()
    points = []
    walls: dict[str, float] = {}
    counts: dict[str, dict] = {}
    for kind in ("short", "tall"):
        data = dataset(kind)
        for minsup in minsups:
            point_walls, point_counts = run_point(data, minsup, MINRI)
            label = f"{kind}@{minsup}"
            points.append({
                "dataset": kind,
                "minsup": minsup,
                "transactions": len(data.database),
                "wall_s": {
                    stage: round(point_walls[stage], 5) for stage in STAGES
                },
                **point_counts,
            })
            for stage in STAGES:
                walls[f"{label}:{stage}"] = round(
                    10 * point_walls[stage], 5
                )
            counts[label] = point_counts
            paper_row(
                label,
                **{
                    f"{stage}_s": round(point_walls[stage], 4)
                    for stage in STAGES
                },
                **point_counts,
            )

    report = {
        "scale": str(SCALE),
        "seed": SEED,
        "minri": MINRI,
        "minsups": minsups,
        "points": points,
        "wall_per_10_runs_s": walls,
        "counts": counts,
    }
    fold_report(args.out, "pipeline", report, quick=args.quick)
    print(f"wrote pipeline into {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
