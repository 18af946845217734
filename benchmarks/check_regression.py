"""CI benchmark-regression gate: engines, serving, maintenance, measures
and the paper's pipeline.

Re-runs the quick engine matrix (``bench_engine_matrix --quick``) and
compares each engine's ``mean_wall_per_10_passes_s`` (its mean wall per
logical pass, timed over at least
``bench_engine_matrix.MIN_CELL_WALL_S`` of passes per cell, times ten —
scaled so every engine sits above the measurement floor) against the committed baseline in ``BENCH_counting.json`` (the
``["quick"]["engine_matrix"]`` key, written by a ``--quick`` run on the
maintainer's machine). It then does the same for the serving layer
(``bench_serving --quick``): the cold (all matches and ``limit`` 10)
and hot-LRU scoring paths are compared through their
``wall_per_10k_s`` figures (per-request latency times 10,000 — scaled
so all sit above the measurement floor) under the
``["quick"]["serving"]`` key. The
incremental-maintenance profile (``bench_incremental --quick``) gates
the append-then-recount walls of the ``mmap`` and ``cached`` engines —
incremental and full-invalidation modes, each run repeated for at least
``MIN_CELL_WALL_S`` and compared as its wall of ten runs — under
``["quick"]["incremental"]``. The streaming profile
(``bench_streaming --quick``) gates the per-update walls of the
delta-push and recompile-from-scratch serving-update paths for both
engines under ``["quick"]["streaming"]``. Finally the cross-measure
profile (``bench_measures --quick``) gates each registered
interestingness measure's wall of ten re-judgments of the grocery
scenarios (timed over at least ``MIN_CELL_WALL_S``) under
``["quick"]["measures"]``. The pipeline profile
(``bench_pipeline --quick``, run before the others, while the process
holds little) gates one wall per paper stage (positive,
candidates, count, select, rulegen) at each of its four points
(``wall_per_10_runs_s``, keyed ``<dataset>@<minsup>:<stage>``) under
``["quick"]["pipeline"]``, and requires each point's large itemsets,
candidates, negative itemsets and rules to equal the baseline's
exactly.

Raw wall-clock is useless across machines, so both sides are normalized
by their own geometric mean across the engines before comparing: a CI
runner that is uniformly 3x slower than the baseline machine produces
identical normalized profiles, while a single engine regressing 2x moves
its normalized ratio to roughly ``2 / 2**(1/n)`` (~1.74 for the
five-engine matrix) — far above the default 25 % gate. Two noise
guards: each side is the element-wise minimum over ``--repeats`` runs,
and per-pass times below :data:`MEASUREMENT_FLOOR_S` are clamped to it
(sub-5 ms cells jitter more between identical runs than the gate
allows).

Exits non-zero when any engine's normalized per-pass time — or any
other profile's normalized cell — exceeds ``threshold`` times its
baseline share, or when a pipeline count differs from the baseline.
``--inject KEY`` doubles that engine's (or serving mode's —
``cold``/``cold-limit10``/``hot`` — or pipeline cell's, e.g.
``tall@0.06:candidates``) measured time after the run, demonstrating
that the gate trips.

Run::

    python -m benchmarks.check_regression
    python -m benchmarks.check_regression --inject mmap   # must fail
    python -m benchmarks.check_regression --inject hot    # must fail
    python -m benchmarks.check_regression \
        --inject tall@0.06:candidates                        # must fail
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

#: Multiplicative slack on the normalized per-pass ratio before the gate
#: fails. 1.25 = "a quarter slower than the committed profile".
DEFAULT_THRESHOLD = 1.25

#: Per-pass times below this are clamped before comparing: on a shared
#: CI runner a 2 ms pass jitters by 30-50 % between identical runs, so
#: differences below the floor are timer noise, not regressions. An
#: engine regressing from under the floor to real time (e.g. 2 ms ->
#: 7 ms) still rises above it and trips the gate.
MEASUREMENT_FLOOR_S = 0.005

#: The engine-matrix figure the gate compares (see the module docstring).
MATRIX_FIELD = "mean_wall_per_10_passes_s"


def geometric_mean(values: list[float]) -> float:
    """The geometric mean; the scale factor normalization divides out."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize(per_pass: dict[str, float], engines: list[str]) -> dict:
    """Per-engine share of the matrix: time / geomean over *engines*."""
    mean = geometric_mean([per_pass[engine] for engine in engines])
    return {engine: per_pass[engine] / mean for engine in engines}


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
) -> tuple[list[dict], list[str]]:
    """Compare normalized profiles; returns (rows, failed engine names)."""
    engines = sorted(set(baseline) & set(current))
    if not engines:
        raise SystemExit("no engines shared between baseline and run")
    baseline = {
        e: max(baseline[e], MEASUREMENT_FLOOR_S) for e in engines
    }
    current = {
        e: max(current[e], MEASUREMENT_FLOOR_S) for e in engines
    }
    base_norm = normalize(baseline, engines)
    cur_norm = normalize(current, engines)
    rows, failed = [], []
    for engine in engines:
        ratio = cur_norm[engine] / base_norm[engine]
        verdict = "ok" if ratio <= threshold else "REGRESSED"
        if ratio > threshold:
            failed.append(engine)
        rows.append({
            "engine": engine,
            "baseline_per_pass_s": baseline[engine],
            "current_per_pass_s": current[engine],
            "normalized_ratio": round(ratio, 3),
            "verdict": verdict,
        })
    return rows, failed


def _run_quick_matrix(out: Path, trace: str | None, repeats: int) -> dict:
    """Run the quick engine matrix *repeats* times; keep per-engine minima.

    Wall-clock noise is one-sided (a run can only be slowed down, never
    sped up), so the element-wise minimum over repeats converges on the
    true per-engine speed. The committed baseline is reduced the same
    way (``--update-baseline``), keeping the comparison symmetric.
    """
    from benchmarks import bench_engine_matrix
    from repro.obs.api import obs_session

    argv = ["--quick", "--no-check", "--out", str(out)]
    report: dict = {}
    best: dict[str, float] = {}
    with obs_session(trace_path=trace):
        for attempt in range(repeats):
            code = bench_engine_matrix.main(argv)
            if code != 0:
                raise SystemExit(
                    f"engine matrix run failed with exit code {code}"
                )
            report = json.loads(out.read_text())["quick"]["engine_matrix"]
            for engine, value in report[MATRIX_FIELD].items():
                best[engine] = min(best.get(engine, value), value)
            print(f"[repeat {attempt + 1}/{repeats}] done")
    report[MATRIX_FIELD] = best
    report["repeats"] = repeats
    return report


def _run_quick_serving(out: Path, repeats: int) -> dict:
    """Run the quick serving benchmark *repeats* times; keep minima.

    The element-wise minimum over repeats is taken per serving mode
    (``cold``/``cold-limit10``/``hot``), mirroring :func:`_run_quick_matrix`.
    """
    from benchmarks import bench_serving

    argv = ["--quick", "--no-check", "--out", str(out)]
    report: dict = {}
    best: dict[str, float] = {}
    for attempt in range(repeats):
        code = bench_serving.main(argv)
        if code != 0:
            raise SystemExit(
                f"serving benchmark run failed with exit code {code}"
            )
        report = json.loads(out.read_text())["quick"]["serving"]
        for mode, value in report["wall_per_10k_s"].items():
            best[mode] = min(best.get(mode, value), value)
        print(f"[serving repeat {attempt + 1}/{repeats}] done")
    report["wall_per_10k_s"] = best
    report["repeats"] = repeats
    return report


def _run_quick_incremental(out: Path, repeats: int) -> dict:
    """Run the quick incremental benchmark; keep per-mode minima.

    The element-wise minimum over repeats is taken per maintenance mode
    (``mmap-incremental``, ``cached-full``, …), mirroring
    :func:`_run_quick_matrix`.
    """
    from benchmarks import bench_incremental

    argv = ["--quick", "--no-check", "--out", str(out)]
    report: dict = {}
    best: dict[str, float] = {}
    for attempt in range(repeats):
        code = bench_incremental.main(argv)
        if code != 0:
            raise SystemExit(
                f"incremental benchmark run failed with exit code {code}"
            )
        report = json.loads(out.read_text())["quick"]["incremental"]
        for mode, value in report["wall_per_10_runs_s"].items():
            best[mode] = min(best.get(mode, value), value)
        print(f"[incremental repeat {attempt + 1}/{repeats}] done")
    report["wall_per_10_runs_s"] = best
    report["repeats"] = repeats
    return report


def _run_quick_streaming(out: Path, repeats: int) -> dict:
    """Run the quick streaming benchmark; keep per-mode minima.

    The element-wise minimum over repeats is taken per update mode
    (``cached-delta-push``, ``mmap-recompile``, …), mirroring
    :func:`_run_quick_matrix`.
    """
    from benchmarks import bench_streaming

    argv = ["--quick", "--no-check", "--out", str(out)]
    report: dict = {}
    best: dict[str, float] = {}
    for attempt in range(repeats):
        code = bench_streaming.main(argv)
        if code != 0:
            raise SystemExit(
                f"streaming benchmark run failed with exit code {code}"
            )
        report = json.loads(out.read_text())["quick"]["streaming"]
        for mode, value in report["wall_update_s"].items():
            best[mode] = min(best.get(mode, value), value)
        print(f"[streaming repeat {attempt + 1}/{repeats}] done")
    report["wall_update_s"] = best
    report["repeats"] = repeats
    return report


def _run_quick_measures(out: Path, repeats: int) -> dict:
    """Run the quick cross-measure benchmark; keep per-measure minima.

    The element-wise minimum over repeats is taken per measure name
    (``ri``, ``kong-interest``, …), mirroring
    :func:`_run_quick_matrix`.
    """
    from benchmarks import bench_measures

    argv = ["--quick", "--no-check", "--out", str(out)]
    report: dict = {}
    best: dict[str, float] = {}
    for attempt in range(repeats):
        code = bench_measures.main(argv)
        if code != 0:
            raise SystemExit(
                f"measures benchmark run failed with exit code {code}"
            )
        report = json.loads(out.read_text())["quick"]["measures"]
        for measure, value in report["wall_per_10_runs_s"].items():
            best[measure] = min(best.get(measure, value), value)
        print(f"[measures repeat {attempt + 1}/{repeats}] done")
    report["wall_per_10_runs_s"] = best
    report["repeats"] = repeats
    return report


def _run_quick_pipeline(out: Path, repeats: int) -> dict:
    """Run the quick pipeline benchmark; keep per-cell minima.

    The element-wise minimum over repeats is taken per stage cell
    (``short@0.1:candidates``, …), mirroring :func:`_run_quick_matrix`.
    The exact counts are the same on every repeat.
    """
    from benchmarks import bench_pipeline

    argv = ["--quick", "--out", str(out)]
    report: dict = {}
    best: dict[str, float] = {}
    for attempt in range(repeats):
        code = bench_pipeline.main(argv)
        if code != 0:
            raise SystemExit(
                f"pipeline benchmark run failed with exit code {code}"
            )
        report = json.loads(out.read_text())["quick"]["pipeline"]
        for cell, value in report["wall_per_10_runs_s"].items():
            best[cell] = min(best.get(cell, value), value)
        print(f"[pipeline repeat {attempt + 1}/{repeats}] done")
    report["wall_per_10_runs_s"] = best
    report["repeats"] = repeats
    return report


def compare_counts(
    baseline: dict[str, dict], current: dict[str, dict]
) -> list[str]:
    """The points whose exact counts differ from the baseline's, or that
    only one side has."""
    return sorted(
        point for point in set(baseline) | set(current)
        if baseline.get(point) != current.get(point)
    )


def _write_step_summary(baseline: Path, failed: list[str]) -> None:
    """Append re-baselining instructions to the GitHub job summary.

    Only active under Actions (``GITHUB_STEP_SUMMARY`` set); a failed
    gate otherwise explains itself on stderr.
    """
    import os

    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary:
        return
    names = ", ".join(f"`{name}`" for name in failed)
    with open(summary, "a", encoding="utf-8") as handle:
        handle.write(
            "## Benchmark regression gate failed\n\n"
            f"Regressed beyond the committed profile: {names}.\n\n"
            "If the slowdown is intended (algorithm change, new "
            "measurement), re-baseline and commit the result:\n\n"
            "```sh\n"
            "python -m benchmarks.check_regression --update-baseline\n"
            f"git add {baseline.name}\n"
            "```\n\n"
            "Otherwise, find the regression — the per-mode ratios are "
            "in the job log above.\n"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_counting.json",
        help="committed benchmark report holding the quick baseline",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="maximum allowed normalized slowdown per engine "
             "(default %(default)s = +25%%)",
    )
    parser.add_argument(
        "--inject",
        metavar="KEY",
        default=None,
        help="double this engine's, serving mode's "
             "(cold/cold-limit10/hot) or pipeline cell's "
             "(e.g. tall@0.06:candidates) measured time after the run "
             "(self-test: the gate must fail)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSON-lines observability trace of the "
             "benchmark run to FILE (uploaded as a CI artifact)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="quick-matrix repetitions; per-engine minima are compared "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the reduced run into the baseline file instead of "
             "comparing (maintainer re-baselining)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        pipeline = _run_quick_pipeline(
            Path(tmp) / "pipeline.json", args.repeats
        )
        current = _run_quick_matrix(
            Path(tmp) / "current.json", args.trace, args.repeats
        )
        serving = _run_quick_serving(
            Path(tmp) / "serving.json", args.repeats
        )
        incremental = _run_quick_incremental(
            Path(tmp) / "incremental.json", args.repeats
        )
        streaming = _run_quick_streaming(
            Path(tmp) / "streaming.json", args.repeats
        )
        measures = _run_quick_measures(
            Path(tmp) / "measures.json", args.repeats
        )

    if args.update_baseline:
        from benchmarks.common import fold_report

        fold_report(args.baseline, "engine_matrix", current, quick=True)
        fold_report(args.baseline, "serving", serving, quick=True)
        fold_report(args.baseline, "incremental", incremental, quick=True)
        fold_report(args.baseline, "streaming", streaming, quick=True)
        fold_report(args.baseline, "measures", measures, quick=True)
        fold_report(args.baseline, "pipeline", pipeline, quick=True)
        print(
            f"re-baselined quick engine_matrix, serving, incremental, "
            f"streaming, measures and pipeline in {args.baseline}"
        )
        return 0

    baseline_doc = json.loads(args.baseline.read_text())
    failed: list[str] = []
    gates = (
        ("engine_matrix", MATRIX_FIELD, current),
        ("serving", "wall_per_10k_s", serving),
        ("incremental", "wall_per_10_runs_s", incremental),
        ("streaming", "wall_update_s", streaming),
        ("measures", "wall_per_10_runs_s", measures),
        ("pipeline", "wall_per_10_runs_s", pipeline),
    )
    for key, field, run in gates:
        try:
            baseline = baseline_doc["quick"][key]
        except KeyError:
            raise SystemExit(
                f"{args.baseline} has no ['quick']['{key}'] baseline; "
                "run 'python -m benchmarks.check_regression "
                "--update-baseline' and commit the result"
            ) from None

        if run["scale"] != baseline["scale"]:
            raise SystemExit(
                f"{key} scale mismatch: run at {run['scale']} vs "
                f"baseline {baseline['scale']} — is REPRO_BENCH_SCALE "
                "set?"
            )

        measured = dict(run[field])
        if args.inject and args.inject in measured:
            measured[args.inject] *= 2.0
            print(
                f"[inject] doubled {args.inject} to "
                f"{measured[args.inject]}"
            )

        rows, bad = compare(baseline[field], measured, args.threshold)
        failed.extend(f"{key}:{name}" for name in bad)
        width = max(len(row["engine"]) for row in rows)
        for row in rows:
            print(
                f"{key} {row['engine']:<{width}}  "
                f"base={row['baseline_per_pass_s']:.5f}s  "
                f"now={row['current_per_pass_s']:.5f}s  "
                f"ratio={row['normalized_ratio']:.3f}  {row['verdict']}"
            )

    changed = compare_counts(
        baseline_doc["quick"]["pipeline"]["counts"], pipeline["counts"]
    )
    for point in changed:
        print(
            f"pipeline counts {point}: baseline "
            f"{baseline_doc['quick']['pipeline']['counts'].get(point)}, "
            f"now {pipeline['counts'].get(point)}  REGRESSED"
        )
    failed.extend(f"pipeline:counts:{point}" for point in changed)

    if args.inject and not any(
        args.inject in run[field] for _, field, run in gates
    ):
        raise SystemExit(f"unknown engine or mode {args.inject!r}")
    if failed:
        print(
            f"FAIL: regressed beyond {args.threshold}x the baseline "
            f"profile: {', '.join(failed)}",
            file=sys.stderr,
        )
        _write_step_summary(args.baseline, failed)
        return 1
    print(
        f"ok: no engine or serving mode beyond {args.threshold}x the "
        "baseline profile"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
