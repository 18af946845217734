"""P1 — Parallel scaling: shared-memory workers vs the best serial engine.

Times one generalized counting pass (the pipeline's inner loop) on the
two fastest serial engines — ``numpy`` (the packed kernel) and
``cached`` (the default vertical index) — and on the zero-copy
``parallel-shm`` engine at n_jobs in {1, 2, 4}, splitting **setup**
(first pass: matrix pack, segment publish, worker spawn + attach) from
**steady state** (the minimum per-pass wall over the following passes,
which is what a long mining run actually pays). All variants must
return bit-identical counts.

Three built-in checks:

* structural, on every host: after the steady passes each
  ``parallel-shm@N`` (N > 1) has launched exactly ``N`` workers (no
  respawn per pass) and published its segment exactly once;
* timing, on hosts with >= 2 CPUs: ``parallel-shm@2``'s steady pass
  must be no slower than the best serial steady pass (the minimum over
  ``numpy`` and ``cached``) — a parallel engine that loses to serial
  counting has no reason to exist;
* on hosts with >= 4 CPUs, near-linear scaling of the shm steady state
  from 1 to 4 jobs.

Folds its report into ``BENCH_counting.json`` under the
``"parallel_scaling"`` key — or ``["quick"]["parallel_scaling"]`` on
``--quick`` — where ``benchmarks.check_regression`` gates the
steady-state profile alongside the engine matrix and serving layers.

Run::

    python -m benchmarks.bench_parallel_scaling --quick
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import pytest

#: The serial baselines ``parallel-shm@2`` must match or beat.
SERIAL_BASELINES = ("numpy", "cached")

#: Shm steady-state speedup required from 1 -> 4 jobs on >=4-CPU hosts.
LINEAR_MIN_SPEEDUP = 2.0

JOB_COUNTS = (1, 2, 4)


def _setup(kind="short"):
    from repro.core.candidates import generate_negative_candidates
    from repro.mining.generalized import mine_generalized

    from .common import MINRI, dataset, support_sweep

    minsup = support_sweep()[0]
    data = dataset(kind)
    index = mine_generalized(data.database, data.taxonomy, minsup)
    candidates = sorted(
        generate_negative_candidates(index, data.taxonomy, minsup, MINRI)
    )
    return data, candidates, minsup


def _variants() -> list[tuple[str, str, int]]:
    """(label, engine, n_jobs) cells, serial baselines first."""
    cells = [(name, name, 1) for name in SERIAL_BASELINES]
    for n_jobs in JOB_COUNTS:
        cells.append((f"parallel-shm@{n_jobs}", "parallel-shm", n_jobs))
    return cells


def _time_variant(data, candidates, spec: str, n_jobs: int, passes: int):
    """Setup wall + min steady-state pass wall for one configuration."""
    from repro.core.session import MiningSession

    session = MiningSession(
        data.database, data.taxonomy, engine=spec, n_jobs=n_jobs
    )
    try:
        start = time.perf_counter()
        counts = session.count(
            candidates, restrict_to_candidate_items=True
        )
        setup_s = time.perf_counter() - start
        steady = []
        for _ in range(passes):
            start = time.perf_counter()
            repeat = session.count(
                candidates, restrict_to_candidate_items=True
            )
            steady.append(time.perf_counter() - start)
            assert repeat == counts, f"{spec}@{n_jobs} pass disagreement"
        stats = session.parallel_stats
        point = {
            "setup_s": round(setup_s, 4),
            "steady_wall_per_pass_s": round(min(steady), 5),
            "workers_launched": stats.workers_launched,
            "shm_publishes": stats.shm_publishes,
            "shm_batches": stats.shm_batches,
        }
        return counts, point
    finally:
        session.close()


def run(passes: int = 100, kind: str = "short") -> dict:
    """Measure every variant; returns the report (with agreement flags)."""
    from .common import paper_row

    data, candidates, minsup = _setup(kind)
    report = {
        "dataset": kind,
        "scale": os.environ.get("REPRO_BENCH_SCALE", "0.02"),
        "minsup": minsup,
        "transactions": len(data.database),
        "candidates": len(candidates),
        "passes": passes,
        "cpu_count": os.cpu_count(),
        "variants": [],
        "steady_wall_per_pass_s": {},
    }
    reference = None
    for label, spec, n_jobs in _variants():
        counts, point = _time_variant(
            data, candidates, spec, n_jobs, passes
        )
        agrees = reference is None or counts == reference
        reference = reference if reference is not None else counts
        point |= {"variant": label, "engine": spec, "n_jobs": n_jobs,
                  "agrees": agrees}
        report["variants"].append(point)
        report["steady_wall_per_pass_s"][label] = (
            point["steady_wall_per_pass_s"]
        )
        paper_row(
            label,
            setup_s=point["setup_s"],
            steady_per_pass_s=point["steady_wall_per_pass_s"],
            workers=point["workers_launched"],
            agrees=agrees,
        )
    steady = report["steady_wall_per_pass_s"]
    report["shm_speedup_vs_best_serial"] = round(
        min(steady[name] for name in SERIAL_BASELINES)
        / steady["parallel-shm@2"],
        2,
    )
    return report


def check(report: dict) -> list[str]:
    """The built-in assertions; returns failure messages (empty = pass)."""
    failures = []
    for point in report["variants"]:
        if not point["agrees"]:
            failures.append(
                f"{point['variant']} disagrees with the serial counts"
            )
        if point["engine"] == "parallel-shm" and point["n_jobs"] > 1:
            expected = (point["n_jobs"], 1)
            actual = (point["workers_launched"], point["shm_publishes"])
            if actual != expected:
                failures.append(
                    f"{point['variant']} launched "
                    f"{actual[0]} workers and published {actual[1]} "
                    f"segments over {report['passes'] + 1} passes "
                    f"(need exactly {expected[0]} and {expected[1]})"
                )
    steady = report["steady_wall_per_pass_s"]
    cpus = report["cpu_count"] or 1
    if cpus >= 2:
        best_serial = min(steady[name] for name in SERIAL_BASELINES)
        if steady["parallel-shm@2"] > best_serial:
            failures.append(
                f"parallel-shm@2 steady pass "
                f"{steady['parallel-shm@2']:.5f}s is slower than the best "
                f"serial engine ({best_serial:.5f}s, min over "
                f"{', '.join(SERIAL_BASELINES)}) on a {cpus}-CPU host"
            )
    if cpus >= 4:
        scaling = steady["parallel-shm@1"] / steady["parallel-shm@4"]
        if scaling < LINEAR_MIN_SPEEDUP:
            failures.append(
                f"parallel-shm scales only {scaling:.2f}x from 1 to 4 "
                f"jobs on a {cpus}-CPU host "
                f"(need >= {LINEAR_MIN_SPEEDUP}x)"
            )
    return failures


@pytest.mark.parametrize("label,spec,n_jobs", _variants())
def test_parallel_scaling(benchmark, label, spec, n_jobs):
    data, candidates, _minsup = _setup()
    from repro.core.session import MiningSession

    serial = MiningSession(data.database, data.taxonomy).count(
        candidates, restrict_to_candidate_items=True
    )
    session = MiningSession(
        data.database, data.taxonomy, engine=spec, n_jobs=n_jobs
    )
    try:
        session.count(candidates, restrict_to_candidate_items=True)
        counts = benchmark.pedantic(
            lambda: session.count(
                candidates, restrict_to_candidate_items=True
            ),
            rounds=1,
            iterations=1,
        )
    finally:
        session.close()
    assert counts == serial
    benchmark.extra_info.update(
        candidates=len(candidates), transactions=len(data.database)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset (the CI smoke configuration)",
    )
    parser.add_argument(
        "--passes",
        type=int,
        default=100,
        help="steady-state passes per variant; the minimum is reported "
             "(default %(default)s: on a shared 2-vCPU host fewer "
             "passes let one busy window decide the timing check)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_counting.json",
        help="JSON report to fold the parallel_scaling key into",
    )
    parser.add_argument(
        "--no-check",
        action="store_false",
        dest="check",
        help="report only; do not fail the built-in checks",
    )
    args = parser.parse_args(argv)

    os.environ.setdefault(
        "REPRO_BENCH_SCALE", "0.02" if args.quick else "0.1"
    )
    from benchmarks.common import fold_report, paper_row

    print("=== P1: parallel counting, setup vs steady state ===")
    report = run(passes=args.passes)
    fold_report(args.out, "parallel_scaling", report, quick=args.quick)
    paper_row(
        "shm@2 vs best serial",
        speedup=report["shm_speedup_vs_best_serial"],
    )
    print(f"wrote parallel_scaling into {args.out}")

    if args.check:
        failures = check(report)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
