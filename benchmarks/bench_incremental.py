"""E12 — Incremental maintenance: append-then-recount vs invalidation.

Measures what the per-segment fingerprints and the vertical cache's
append path buy: a database that grows by ~1 %% between counting passes.
Two engines, two maintenance modes each:

``mmap-incremental`` / ``cached-incremental``
    The session keeps its state across appends: the segmented matrix
    extends only the partial tail segment (every full segment block is
    reused untouched), the vertical index ORs the tail bits into its
    bitmaps. O(append) work per recount.
``mmap-full`` / ``cached-full``
    The same appends, but the incrementally held state is discarded
    before every recount — the whole-matrix / whole-index invalidation
    that was the only option before segmentation. O(|D|) work per
    recount.

One *run* of a cell builds a fresh database and session (untimed), then
times its appends and recounts. Each cell repeats runs until it has
timed at least ``MIN_CELL_WALL_S``, and ``wall_per_10_runs_s`` — the
mean wall per run times ten — is the figure the regression gate
compares: scaled, as in the engine matrix, so even the sub-millisecond
``cached-incremental`` run sits above the gate's measurement floor.

The run asserts the structural claim directly: across one incremental
``mmap`` run only the tail segment is ever touched (one extension per
append, zero new packs, ``n_segments - 1`` reuses per sync), and the
incremental runs are at least ``MIN_SPEEDUP`` x faster than full
invalidation (``--no-check`` reports without failing).

Folds its report into ``BENCH_counting.json`` under ``"incremental"``
(or ``["quick"]["incremental"]`` on ``--quick``).

Run::

    python -m benchmarks.bench_incremental --quick
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from benchmarks.bench_engine_matrix import MIN_CELL_WALL_S

#: Required advantage of incremental over full-invalidation recounts.
MIN_SPEEDUP = 5.0

#: Appended batches per run, each ~1 % of |D|.
N_BATCHES = 3


def _workload(database) -> list[tuple]:
    """A counting workload: frequent singletons plus adjacent pairs."""
    counts = database.item_counts()
    frequent = sorted(
        counts, key=lambda item: counts[item], reverse=True
    )[:24]
    candidates = [(item,) for item in frequent]
    candidates += [
        tuple(sorted(pair))
        for pair in zip(frequent, frequent[8:])
        if pair[0] != pair[1]
    ]
    return sorted(set(candidates))


def _run_mode(
    engine: str,
    mode: str,
    base_rows: list,
    batches: list[list],
    candidates: list[tuple],
    segment_rows: int,
) -> dict:
    """Time ``append -> recount`` over all batches, one fresh build per
    run, until the runs have timed :data:`MIN_CELL_WALL_S`. The
    structural counters are the last run's (every run does the same)."""
    from repro.core.session import MiningSession
    from repro.data.database import TransactionDatabase
    from repro.mining import vertical

    options = {"segment_rows": segment_rows} if engine == "mmap" else {}
    wall, runs = 0.0, 0
    while runs == 0 or wall < MIN_CELL_WALL_S:
        database = TransactionDatabase.from_canonical_rows(base_rows)
        session = MiningSession(database, engine=engine, **options)
        built = session.count(candidates)  # untimed initial build
        start = time.perf_counter()
        for batch in batches:
            database.append(batch)
            if mode == "full":
                if engine == "mmap":
                    session.engine.close()  # drop matrix: repack all
                else:
                    vertical.invalidate(database)
            counted = session.count(candidates)
        wall += time.perf_counter() - start
        session.close()
        runs += 1
    metrics = session.run_metrics
    return {
        "label": f"{engine}-{mode}",
        "wall_per_10_runs_s": round(10 * wall / runs, 5),
        "timed_runs": runs,
        "recounts": len(batches),
        "extensions": metrics.counter("cache.extensions"),
        "segments_packed": metrics.counter("counting.segments.packed"),
        "segments_extended": metrics.counter("counting.segments.extended"),
        "segments_reused": metrics.counter("counting.segments.reused"),
        "invalidations": metrics.counter("cache.invalidations"),
        "first_pass_candidates": len(built),
        "final_count_total": sum(counted.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset (the CI smoke configuration)",
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
        help="report only; do not fail on tail-repack or speedup "
             "violations",
    )
    args = parser.parse_args(argv)

    os.environ.setdefault(
        "REPRO_BENCH_SCALE", "0.02" if args.quick else "0.1"
    )
    from benchmarks.common import dataset, fold_report, paper_row

    base_rows = list(dataset("short").database)
    # The O(append) vs O(|D|) contrast needs |D| large enough that a
    # full repack dwarfs per-recount fixed costs (and sits above the
    # regression gate's measurement floor); replicate the quick-scale
    # rows up to ~5000 transactions instead of regenerating.
    base_rows = base_rows * max(1, -(-5000 // len(base_rows)))
    n_rows = len(base_rows)
    # Three full segments plus a partial tail with guaranteed room for
    # every appended batch: tail ~0.19|D|, appends ~0.03|D|, capacity
    # ~0.27|D| — the incremental runs never overflow into a new pack.
    segment_rows = n_rows // 4 + n_rows // 50
    batch_size = max(1, n_rows // 100)  # ~1 % per append
    batches = [
        [list(row) for row in base_rows[k * batch_size:(k + 1) * batch_size]]
        for k in range(N_BATCHES)
    ]
    candidates = _workload(dataset("short").database)

    runs = [
        _run_mode(engine, mode, base_rows, batches, candidates,
                  segment_rows)
        for engine in ("mmap", "cached")
        for mode in ("incremental", "full")
    ]
    by_label = {run["label"]: run for run in runs}
    totals = {run["final_count_total"] for run in runs}
    assert len(totals) == 1, f"modes disagree on counts: {by_label}"

    speedups = {
        engine: round(
            by_label[f"{engine}-full"]["wall_per_10_runs_s"]
            / by_label[f"{engine}-incremental"]["wall_per_10_runs_s"],
            2,
        )
        for engine in ("mmap", "cached")
    }
    report = {
        "benchmark": "incremental",
        "dataset": "short",
        "scale": os.environ["REPRO_BENCH_SCALE"],
        "transactions": n_rows,
        "segment_rows": segment_rows,
        "appended_rows_per_batch": batch_size,
        "batches": N_BATCHES,
        "candidates": len(candidates),
        "runs": runs,
        "wall_per_10_runs_s": {
            run["label"]: run["wall_per_10_runs_s"] for run in runs
        },
        "speedup_incremental": speedups,
    }
    fold_report(args.out, "incremental", report, quick=args.quick)

    for run in runs:
        paper_row(
            run["label"],
            wall_per_10_runs_s=run["wall_per_10_runs_s"],
            timed_runs=run["timed_runs"],
            extensions=run["extensions"],
            seg_packed=run["segments_packed"],
            seg_extended=run["segments_extended"],
            seg_reused=run["segments_reused"],
        )
    paper_row("speedup", **speedups)
    print(f"wrote {args.out}")

    failures = []
    incremental = by_label["mmap-incremental"]
    # Tail-only maintenance: one extension per append, the build's four
    # packs and nothing more, n_segments - 1 reuses per sync.
    if incremental["segments_extended"] != N_BATCHES:
        failures.append(
            f"expected {N_BATCHES} tail extensions, saw "
            f"{incremental['segments_extended']}"
        )
    if incremental["segments_packed"] != 4:
        failures.append(
            "appends repacked beyond the initial build: "
            f"{incremental['segments_packed']} packs"
        )
    if incremental["segments_reused"] != 3 * N_BATCHES:
        failures.append(
            f"expected {3 * N_BATCHES} segment reuses, saw "
            f"{incremental['segments_reused']}"
        )
    for engine, speedup in speedups.items():
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"{engine} incremental speedup {speedup}x below "
                f"{MIN_SPEEDUP}x"
            )
    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
