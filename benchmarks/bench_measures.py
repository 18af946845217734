"""E14 — Cross-measure agreement: registered measures on grocery worlds.

Mines the curated grocery world once per scenario with the default RI
pipeline, then re-judges each run under every registered
interestingness measure through
:func:`repro.measures.compare.compare_measures` — no extra data passes.
Two scenarios probe how measure agreement responds to signal strength:

``strict``
    ``loyalty_strength=0.95`` — the planted brand loyalties are nearly
    deterministic, so the negative associations are strong under any
    sensible semantics;
``lapsed``
    ``loyalty_strength=0.70`` — the loyalties are diluted, which pulls
    actual supports toward their expectations and makes the measures
    disagree on the borderline rules.

Reported per scenario: each measure's admitted negative-set / rule
counts and wall time, plus the pairwise Jaccard overlap matrix of the
admitted rule sets. The gate values are ``wall_per_10_runs_s``: one
*run* re-judges every scenario under one measure, each measure repeats
runs until it has timed at least ``MIN_CELL_WALL_S``, and the mean wall
per run times ten is compared by ``check_regression`` like any other
profile — scaled, as in the engine matrix, so a sub-millisecond
re-judgment sits above the gate's measurement floor.

Built-in checks (``--no-check`` reports only):

* the RI evaluation must reproduce the pipeline's own rule list
  bit-identically — selection and generation are deterministic over the
  recorded counts, so any drift is a registry-threading bug;
* RI must admit the planted loyalty's cross-category signature
  ``KolaBlue =/=> CrispWave`` in the strict scenario (the same-category
  sibling pair is structurally not generable — see
  ``test_grocery.py``).

Folds its report into ``BENCH_counting.json`` under the ``"measures"``
key (``["quick"]["measures"]`` on ``--quick``).

Run::

    python -m benchmarks.bench_measures --quick
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from benchmarks.bench_engine_matrix import MIN_CELL_WALL_S

#: The two demand scenarios: label -> loyalty_strength.
SCENARIOS = {"strict": 0.95, "lapsed": 0.70}

MINSUP = 0.05


def _planted_split_admitted(rules, taxonomy) -> bool:
    """Is the loyalty signature ``KolaBlue =/=> CrispWave`` admitted?

    KolaBlue households are not gamers, so they shun the gamer chips
    brand — the cross-category rule through which the framework
    detects the planted cola loyalty.
    """
    blue = taxonomy.id_of("KolaBlue")
    crisp = taxonomy.id_of("CrispWave")
    return any(
        rule.antecedent == (blue,) and rule.consequent == (crisp,)
        for rule in rules
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload (the CI smoke configuration)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_counting.json",
        help="JSON report to fold the measures key into",
    )
    parser.add_argument(
        "--no-check",
        action="store_false",
        dest="check",
        help="report only; do not fail on the bit-identity or "
             "planted-rule checks",
    )
    args = parser.parse_args(argv)

    os.environ.setdefault(
        "REPRO_BENCH_SCALE", "0.02" if args.quick else "0.1"
    )
    from benchmarks.common import MINRI, SCALE, fold_report, paper_row
    from repro.core.api import MiningConfig, mine_negative_rules
    from repro.measures.compare import compare_measures
    from repro.measures.registry import measure_names
    from repro.synthetic.grocery import generate_grocery_dataset

    transactions = max(500, int(75_000 * SCALE))
    failures: list[str] = []
    scenarios: dict[str, dict] = {}
    results = []

    for label, loyalty in SCENARIOS.items():
        dataset = generate_grocery_dataset(
            num_transactions=transactions,
            loyalty_strength=loyalty,
            seed=1998,
        )
        config = MiningConfig(minsup=MINSUP, minri=MINRI)
        result = mine_negative_rules(
            dataset.database, dataset.taxonomy, config=config
        )
        results.append(result)
        comparison = compare_measures(result, MINSUP, MINRI)

        ri_eval = comparison.evaluations["ri"]
        if ri_eval.rules != result.rules:
            failures.append(
                f"{label}: the registry RI evaluation diverged from "
                f"the pipeline ({len(ri_eval.rules)} vs "
                f"{len(result.rules)} rules)"
            )
        if label == "strict" and not _planted_split_admitted(
            ri_eval.rules, dataset.taxonomy
        ):
            failures.append(
                "strict: RI did not admit the planted loyalty's "
                "KolaBlue =/=> CrispWave signature"
            )

        per_measure = {}
        for name, evaluation in comparison.evaluations.items():
            per_measure[name] = {
                "negatives": len(evaluation.negatives),
                "rules": len(evaluation.rules),
                "wall_s": round(evaluation.wall_s, 5),
            }
            paper_row(
                f"{label}:{name}",
                negatives=len(evaluation.negatives),
                rules=len(evaluation.rules),
                wall_ms=round(evaluation.wall_s * 1e3, 2),
            )
        matrix = comparison.overlap_matrix()
        for first, row in matrix.items():
            for second in row:
                row[second] = round(row[second], 4)
        scenarios[label] = {
            "loyalty_strength": loyalty,
            "transactions": transactions,
            "pipeline_rules": len(result.rules),
            "per_measure": per_measure,
            "jaccard": matrix,
        }
        pairs = [
            f"{a}/{b}={matrix[a][b]:.3f}"
            for i, a in enumerate(matrix)
            for b in list(matrix)[i + 1:]
        ]
        paper_row(f"{label}:jaccard", overlap="  ".join(pairs))

    wall_per_10_runs: dict[str, float] = {}
    for name in measure_names():
        wall, runs = 0.0, 0
        while runs == 0 or wall < MIN_CELL_WALL_S:
            for result in results:
                comparison = compare_measures(
                    result, MINSUP, MINRI, measures=(name,)
                )
                wall += comparison.evaluations[name].wall_s
            runs += 1
        wall_per_10_runs[name] = round(10 * wall / runs, 5)
        paper_row(
            f"gate:{name}",
            wall_per_10_runs_s=wall_per_10_runs[name],
            timed_runs=runs,
        )

    report = {
        "scale": os.environ["REPRO_BENCH_SCALE"],
        "minsup": MINSUP,
        "minri": MINRI,
        "transactions": transactions,
        "scenarios": scenarios,
        "wall_per_10_runs_s": wall_per_10_runs,
    }
    fold_report(args.out, "measures", report, quick=args.quick)
    print(f"wrote measures into {args.out}")

    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
