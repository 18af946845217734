"""Run every benchmark's standalone table in sequence.

Produces the complete paper-vs-measured evidence in one go::

    python -m benchmarks.run_all

Equivalent to invoking each ``python -m benchmarks.bench_*`` module; used
to refresh EXPERIMENTS.md.
"""

from __future__ import annotations

import time

from . import (
    bench_ablation_counting,
    bench_ablation_substitutes,
    bench_ablation_filedb,
    bench_ablation_estimate,
    bench_ablation_memory,
    bench_ablation_passes,
    bench_ablation_pruning,
    bench_engine_matrix,
    bench_fig5_short,
    bench_fig6_tall,
    bench_fig7_candidates,
    bench_large_itemset_counts,
    bench_table12_example,
    bench_vertical_cache,
)

MODULES = [
    ("E1 Figure 5", bench_fig5_short),
    ("E2 Figure 6", bench_fig6_tall),
    ("E3 Figure 7", bench_fig7_candidates),
    ("E4 Tables 1-2", bench_table12_example),
    ("E5 itemset counts", bench_large_itemset_counts),
    ("A1 counting engines", bench_ablation_counting),
    ("A3 taxonomy pruning", bench_ablation_pruning),
    ("A4 candidate estimate", bench_ablation_estimate),
    ("A5 memory batching", bench_ablation_memory),
    ("A6 pass accounting", bench_ablation_passes),
    ("A7 disk-backed passes", bench_ablation_filedb),
    ("A9 substitute knowledge", bench_ablation_substitutes),
    ("E8 vertical cache", bench_vertical_cache),
    ("E9 engine matrix", bench_engine_matrix),
]


def main() -> None:
    overall = time.perf_counter()
    for label, module in MODULES:
        print()
        print("#" * 72)
        print(f"# {label}")
        print("#" * 72)
        started = time.perf_counter()
        module.main()
        print(f"[{label} took {time.perf_counter() - started:.1f}s]")
    print()
    print(f"[all experiments took {time.perf_counter() - overall:.1f}s]")


if __name__ == "__main__":
    main()
