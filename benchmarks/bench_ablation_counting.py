"""A1 — Ablation: support-counting engines.

Times one generalized counting pass (the pipeline's inner loop) with each
registered engine — bitmap, hash tree, brute force and the vertical
engines — over identical candidates, and asserts they return identical
counts.

Run directly::

    python -m benchmarks.bench_ablation_counting
"""

import time

import pytest

from repro.core.candidates import generate_negative_candidates
from repro.core.session import MiningSession
from repro.mining.engines import engine_names
from repro.mining.generalized import mine_generalized

from .common import MINRI, dataset, support_sweep

MINSUP = support_sweep()[0]


def _setup(kind="short"):
    data = dataset(kind)
    index = mine_generalized(data.database, data.taxonomy, MINSUP)
    candidates = sorted(
        generate_negative_candidates(index, data.taxonomy, MINSUP, MINRI)
    )
    return data, candidates


@pytest.mark.parametrize("engine", engine_names())
def test_counting_engine(benchmark, engine):
    data, candidates = _setup()
    session = MiningSession(data.database, data.taxonomy, engine)

    def count():
        return session.count(candidates, restrict_to_candidate_items=True)

    counts = benchmark.pedantic(count, rounds=1, iterations=1)
    benchmark.extra_info.update(
        candidates=len(candidates),
        nonzero=sum(1 for value in counts.values() if value),
    )


def main() -> None:
    data, candidates = _setup()
    print(
        f"=== A1: counting engines over {len(candidates)} candidates, "
        f"|D|={len(data.database)} ==="
    )
    reference = None
    for engine in engine_names():
        session = MiningSession(data.database, data.taxonomy, engine)
        started = time.perf_counter()
        counts = session.count(
            candidates, restrict_to_candidate_items=True
        )
        elapsed = time.perf_counter() - started
        agrees = reference is None or counts == reference
        reference = reference or counts
        print(f"  {engine:<9} {elapsed:8.3f}s  agrees={agrees}")
    print("\nall engines must agree; timing differences are the ablation.")


if __name__ == "__main__":
    main()
