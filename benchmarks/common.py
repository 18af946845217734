"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index). Synthetic datasets are generated once per
process and cached; their size is controlled by two environment
variables:

``REPRO_BENCH_SCALE``
    Fraction of the paper's workload size (default ``0.02`` — 1,000
    transactions). ``REPRO_BENCH_SCALE=1`` reproduces the paper's full
    |D| = 50,000 / N = 8,000 workload (slow in pure Python).
``REPRO_BENCH_MINSUPS``
    Comma-separated support sweep for Figures 5/6 (default scaled to the
    dataset size; the paper sweeps 2.0 %% down to 0.5 %%).

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

from repro.synthetic.generator import SyntheticDataset, generate_dataset
from repro.synthetic.params import SHORT, TALL

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1998"))

#: MinRI used throughout, as in the paper: "The minimum RI was set to 0.5
#: in all cases."
MINRI = 0.5


def support_sweep() -> list[float]:
    """The MinSup sweep for the execution-time figures.

    The paper sweeps 2.0 -> 0.5 %. At reduced scale the same structure
    appears at slightly higher supports, so the default sweep shifts up;
    override with REPRO_BENCH_MINSUPS (comma-separated fractions).
    """
    env = os.environ.get("REPRO_BENCH_MINSUPS")
    if env:
        return [float(token) for token in env.split(",")]
    if SCALE >= 0.5:
        return [0.02, 0.015, 0.01, 0.0075, 0.005]
    return [0.10, 0.08, 0.06, 0.05]


@lru_cache(maxsize=None)
def dataset(kind: str) -> SyntheticDataset:
    """The cached 'short' (fan-out 9) or 'tall' (fan-out 3) dataset."""
    params = {"short": SHORT, "tall": TALL}[kind].scaled(SCALE)
    return generate_dataset(params, seed=SEED)


def engine_matrix_configurations() -> list[tuple[str, dict]]:
    """The serial engine cells, derived from the registry.

    One cell per registered in-process engine (every engine but the
    shared-memory one, which E11 benchmarks apart), labelled by its
    name. Each entry is ``(label, session_kwargs)`` — the kwargs to build a
    :class:`~repro.core.session.MiningSession` for that cell. Adding an
    engine to the registry adds its row here (and in the regression
    gate's baseline) with no benchmark edit.
    """
    from repro.mining.engines import registered_engines

    cells: list[tuple[str, dict]] = []
    for name, cls in registered_engines().items():
        if not cls.capabilities.shared_memory:
            cells.append((name, {"engine": name}))
    return cells


def paper_row(label: str, **columns) -> None:
    """Print one row of a paper-style results table to stdout."""
    rendered = "  ".join(
        f"{name}={value}" for name, value in columns.items()
    )
    print(f"[{label}] {rendered}")


def fold_report(
    path: Path, key: str, report: dict, quick: bool = False
) -> dict:
    """Fold one benchmark's report into the shared JSON file at *path*.

    ``BENCH_counting.json`` is shared by several benchmarks, each owning
    one top-level *key*. Full-size runs land under ``[key]``; ``--quick``
    smoke runs land under ``["quick"][key]`` so a CI-sized run can never
    clobber the committed full-size baseline. Every other key is
    preserved verbatim. Returns the merged document.
    """
    merged: dict = {}
    if path.exists():
        merged = json.loads(path.read_text())
    if quick:
        merged.setdefault("quick", {})[key] = report
    else:
        merged[key] = report
    path.write_text(json.dumps(merged, indent=2) + "\n")
    return merged
