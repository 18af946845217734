"""E10 — Observability overhead: the disabled path must be free.

Every hot counting path funnels through instrumentation points in
:mod:`repro.obs`. When no trace file and no metrics sink are configured
(the default), each point reduces to one module-global ``is None`` test,
so the instrumented pass entry (:func:`repro.mining.engines.count_pass`,
which every :class:`~repro.core.session.MiningSession` pass goes
through) should cost the same as calling the engine's uninstrumented
``count()`` method directly.

Three measurements:

``per-call cost``
    Microbenchmark of one disabled ``obs.span()`` enter/exit and one
    disabled ``obs.incr()``, in nanoseconds. Unlike pass timings these
    are stable to a few percent even on a contended machine.
``noop bound`` (the gate)
    The instrumentation points hit per counting pass, priced at the
    measured per-call cost, as a fraction of the measured pass time.
    This is an upper bound on what the disabled observability layer can
    add, and must stay under ``--limit`` (default 2 %). It comes out
    around 0.001 %: the disabled path is one module-global ``is None``
    test per pass, against milliseconds of counting.
``noop path measured`` (evidence, not gated)
    Identical passes timed through ``count_pass`` (observability
    disabled) and directly through the engine's ``count()`` — median
    within-pair ratio, GC off, alternating order. On a quiet machine
    this lands within fractions of a percent of zero; on a contended
    one it is noise-dominated (±2-3 % either side of zero), which is
    exactly why the gate prices the per-call cost instead of trusting
    this delta.
``enabled path`` (informational)
    The same passes with a live metrics registry, quantifying what
    turning observability *on* costs.

Run::

    python -m benchmarks.bench_obs_overhead
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time


def _build_workload(dataset):
    """One realistic taxonomy-mode pass: singles + large pairs."""
    from benchmarks.bench_engine_matrix import _level_candidates

    taxonomy = dataset.taxonomy
    singles, pairs = _level_candidates(dataset, 0.10, taxonomy)
    return taxonomy, [singles, pairs]


def _time_passes(fn, passes, loops: int = 3) -> float:
    """Wall time of running all passes through *fn*, *loops* times.

    One sample is several hundred milliseconds long on purpose: the
    longer each timed region, the less a momentary stall skews the
    within-pair ratio the caller computes.
    """
    start = time.perf_counter()
    for _ in range(loops):
        for candidates in passes:
            fn(candidates)
    return time.perf_counter() - start


def _per_call_ns(repeats: int = 200_000) -> tuple[float, float]:
    """(span_ns, incr_ns) of one disabled instrumentation point."""
    from repro.obs import api as obs

    assert obs.current() is None, "must measure with obs disabled"
    start = time.perf_counter()
    for _ in range(repeats):
        with obs.span("bench.noop"):
            pass
    span_ns = (time.perf_counter() - start) / repeats * 1e9
    start = time.perf_counter()
    for _ in range(repeats):
        obs.incr("bench.noop")
    incr_ns = (time.perf_counter() - start) / repeats * 1e9
    return span_ns, incr_ns


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=15,
        help="back-to-back timing pairs; the median within-pair ratio "
             "is the verdict (default %(default)s)",
    )
    parser.add_argument(
        "--limit",
        type=float,
        default=0.02,
        help="maximum tolerated no-op overhead fraction "
             "(default %(default)s = 2%%)",
    )
    parser.add_argument(
        "--no-check",
        action="store_false",
        dest="check",
        help="report only; do not fail on overhead above the limit",
    )
    args = parser.parse_args(argv)

    os.environ.setdefault("REPRO_BENCH_SCALE", "0.1")
    from benchmarks.common import dataset, paper_row
    from repro.mining.engines import count_pass, create_engine
    from repro.obs.api import obs_session
    from repro.obs.registry import MetricsRegistry

    tall = dataset("tall")
    database = tall.database
    taxonomy, passes = _build_workload(tall)

    engine = create_engine("bitmap")
    state = engine.prepare(database, taxonomy)
    metrics = MetricsRegistry()

    def raw(candidates):
        return engine.count(
            state, candidates, restrict_to_candidate_items=True,
            metrics=metrics,
        )

    def instrumented(candidates):
        return count_pass(
            engine, state, candidates, restrict_to_candidate_items=True
        )

    # Machine-speed drift (frequency scaling, GC pauses, allocator
    # state) is far larger than a 2 % question, so: garbage collection
    # is off while timing, each pair of variants runs back-to-back in
    # alternating order (cancelling any drift slower than one pair),
    # and the median of the within-pair ratios is the verdict. A warmup
    # pair is discarded.
    _time_passes(raw, passes, loops=1)
    _time_passes(instrumented, passes, loops=1)
    bases, noops, ratios = [], [], []
    gc.disable()
    try:
        for index in range(args.repeats):
            first, second = (
                (raw, instrumented)
                if index % 2 == 0
                else (instrumented, raw)
            )
            one = _time_passes(first, passes)
            two = _time_passes(second, passes)
            if first is raw:
                a, b = one, two
            else:
                a, b = two, one
            bases.append(a)
            noops.append(b)
            ratios.append(b / a)
    finally:
        gc.enable()
    base = min(bases)
    noop = min(noops)
    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0

    with obs_session(metrics="summary", stream=open(os.devnull, "w")):
        enabled = min(
            _time_passes(instrumented, passes) for _ in range(3)
        )
    enabled_overhead = enabled / base - 1.0

    span_ns, incr_ns = _per_call_ns()

    # The gate: price every instrumentation point one timed sample hits
    # (one count_pass wrapper per pass, generously costed at a full
    # disabled span enter/exit plus a disabled incr) against the
    # measured sample time. This bounds the disabled-path overhead
    # without inheriting the pass timings' machine noise.
    points = 3 * len(passes)  # passes per sample (loops=3 in each)
    bound = points * (span_ns + incr_ns) * 1e-9 / base

    paper_row(
        "per-call cost",
        span_ns=round(span_ns, 1),
        incr_ns=round(incr_ns, 1),
    )
    paper_row(
        "noop bound",
        points_per_sample=points,
        overhead_pct=round(bound * 100, 5),
    )
    paper_row(
        "noop path measured",
        raw_count_s=round(base, 5),
        count_pass_s=round(noop, 5),
        median_delta_pct=round(overhead * 100, 2),
    )
    paper_row(
        "enabled path",
        wall_s=round(enabled, 5),
        overhead_pct=round(enabled_overhead * 100, 2),
    )

    if args.check and bound > args.limit:
        print(
            f"FAIL: disabled-observability overhead bound {bound:.4%} "
            f"exceeds the {args.limit:.0%} budget",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: disabled-path bound {bound:.4%} of pass time "
        f"(budget {args.limit:.0%})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
