"""End-to-end benchmark for mining, serving and streaming.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tall-mine --seed 1 --seconds 25 --trace 0

The seed is the only input knob: it draws the baskets the program reads
from generated basket and taxonomy files. The program is driven through
its public API in this process and as a ``repro serve`` child. The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics ``BENCHMARK.json`` names -- the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``. The lines above
it show the same figures with the workload's own extras (request tail,
read latency, generator lateness, serve and stream layer times), every
op's latency, and a host-speed probe taken at the start and end of the
run.

Workloads (why each exists is recorded in ``BENCHMARK.json``):

``tall-mine``   load + mine 3,000 Tall baskets (minsup 0.10, minri 0.5)
``serve-open``  ``score`` requests at 100/s, open loop, against an
                index compiled from 4,000 Tall baskets
``stream-append`` append 1 % rows to 10,000 Short baskets, ``poll()``
                the watcher, wait for the server's ack of the delta;
                200 probe reads after each

End-to-end metrics, for every workload: ``setup_s`` (median of three
full set-ups: generate, write, bootstrap, one warm-up op),
``op_p50_ms`` (median latency of the unit op), ``cpu_ms_per_op``
(median CPU of the program's processes per op: this process for
in-process ops, plus the ``repro serve`` child; on serve-open the
server's CPU per request) and ``peak_rss_mb`` (this process plus the
server child).

Which per-layer metric should move which end-to-end metric:

* ``synthetic.generate_s`` -> ``setup_s``, every workload;
* ``core.*`` -> ``op_p50_ms`` on tall-mine (candidate generation is
  most of its op); ``mining.*`` -> ``op_p50_ms`` on stream-append
  (positive mining and counting are most of each update's re-mine),
  where ``data.load_ms`` is the watcher's absorb of the appended rows
  and ``data.scans`` counts physical scans per update; on serve-open
  they are the index compile inside ``setup_s``;
* ``serve.cache_hits``/``misses``/``busy_frac`` -> ``op_p50_ms`` and
  ``cpu_ms_per_op`` on serve-open; ``serve.cache_kept``/``invalidated``
  -> the probe read latency on stream-append;
* ``stream.delta_edits``/``delta_bytes`` -> ``op_p50_ms`` on
  stream-append;
* ``trace.overhead_frac``: traced op time over untraced op time, less 1,
  from alternating ops within the traced run.

Per-layer times that only one workload has (``serve.score_hit_us``,
``serve.apply_ms``, ``stream.remine_ms`` ...) are printed above the
result line, not in it: a metric the result line carries is reported
by every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
MINING_LAYERS = (
    "data.load_ms", "mining.positive_ms", "core.candidates_ms",
    "mining.count_ms", "core.select_ms", "core.rulegen_ms",
)


def _workloads():
    import mining
    import serving
    import streaming

    return {
        "tall-mine": mining.run,
        "serve-open": lambda *a: serving.run(*a, SOURCE),
        "stream-append": lambda *a: streaming.run(*a, SOURCE),
    }


def _end_to_end(outcome, self_rss_mb: float) -> dict:
    from measure import median

    return {
        "setup_s": median(outcome.setup_s),
        "op_p50_ms": median(outcome.op_ms),
        "cpu_ms_per_op": median(outcome.op_cpu_ms),
        "peak_rss_mb": self_rss_mb + outcome.child_rss_mb,
    }


def _layer_split(layers: dict) -> str:
    total = sum(layers.get(name, 0.0) for name in MINING_LAYERS)
    if not total:
        return ""
    return ", ".join(
        f"{name.removesuffix('_ms')} {layers.get(name, 0.0) / total:.0%}"
        for name in MINING_LAYERS
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SOURCE))
    from measure import host_probe_ms, self_peak_rss_mb

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")

    probe_start = host_probe_ms()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = workloads[args.workload](
            workdir, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_end = host_probe_ms()

    if args.trace:
        wanted = spec["per_layer"]
        measured = outcome.layers
        for entry in wanted:
            if entry["unit"] in ("s", "ms") and entry["name"] not in measured:
                outcome.problems.append(f"{entry['name']} was not measured")
    else:
        wanted = spec["end_to_end"]
        measured = _end_to_end(outcome, self_peak_rss_mb())
    metrics = {
        entry["name"]: {
            "value": measured.get(entry["name"], 0),
            "unit": entry["unit"],
        }
        for entry in wanted
    }

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ops {outcome.attempted}  "
          f"failed {outcome.failed}  "
          f"fail_frac {outcome.failed / max(1, outcome.attempted):.4f}")
    print(f"host_probe_ms  start {probe_start:.2f}  end {probe_end:.2f}")
    print("op_ms " + " ".join(f"{value:.3f}" for value in outcome.op_ms))
    for name, value in {**measured, **outcome.extra}.items():
        print(f"  {name:32} {value}")
    if args.trace and _layer_split(outcome.layers):
        print(f"layer split: {_layer_split(outcome.layers)}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
