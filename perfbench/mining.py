"""The ``tall-mine`` workload and the traced decomposition of the miner
that every workload's traced run uses.

The op is what a user of the library runs: ``load_basket_file`` then
``mine_negative_rules`` with program defaults apart from the thresholds.
The traced decomposition makes the same calls the Improved miner makes,
one layer at a time, as ``benchmarks/sweep.py`` does for Figures 5-6;
its rules must fingerprint identically to the public op's.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

from repro import MiningConfig, ReproError, mine_negative_rules
from repro.core.candidates import generate_negative_candidates
from repro.core.negmining import select_negatives
from repro.core.rulegen import generate_negative_rules
from repro.core.session import MiningSession
from repro.data.io import load_basket_file, load_taxonomy_file
from repro.mining.generalized import mine_generalized
from repro.taxonomy.prune import restrict_to_items

from inputs import write_dataset
from measure import Ledger, Outcome, median

MINSUP = 0.10
MINRI = 0.5
#: Tall at scale 0.02 has 1,000 rows; 3,000 keep the large itemsets near
#: MinSup from flipping between seeds (candidates +-10 % across seeds at
#: 1,000 rows, +-7 % at 3,000) and the op near a second, so a run times
#: a dozen or more of them.
ROWS = 3_000
#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def fingerprint(rules) -> str:
    """sha256 over the canonically sorted rules, numbers at 9 places."""
    lines = sorted(
        f"{rule.antecedent}|{rule.consequent}|{rule.ri:.9f}|"
        f"{rule.expected_support:.9f}|{rule.actual_support:.9f}|"
        f"{rule.antecedent_support:.9f}|{rule.consequent_support:.9f}|"
        f"{rule.measure}"
        for rule in rules
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def public_mine(baskets: Path, taxonomy, minsup: float = MINSUP):
    """The unit op: load the basket file, mine it. Returns the rules and
    the exact counts of the run."""
    database = load_basket_file(baskets)
    result = mine_negative_rules(
        database, taxonomy, minsup=minsup, minri=MINRI
    )
    counts = {
        "data.scans": database.scans,
        "mining.passes": result.stats.data_passes,
        "mining.large_itemsets": result.stats.large_itemsets,
        "core.candidates": result.stats.candidates_generated,
        "core.negatives": result.stats.negative_itemsets,
        "core.rules": len(result.rules),
    }
    return result.rules, counts, result.large_itemsets


def traced_mine(ledger: Ledger, database, taxonomy, session, minsup=MINSUP):
    """The Improved miner's phases, each timed as its layer.

    Returns the rules, the exact counts and the large itemsets. The
    database's scan counters are read as deltas, so a session that
    outlives one op (the streaming watcher's) counts only this op.
    """
    scans = database.scans
    logical = database.logical_scans
    with ledger.span("mining.positive_ms"):
        index = mine_generalized(database, taxonomy, minsup, session=session)
    with ledger.span("core.candidates_ms"):
        large_singles = [items[0] for items in index.of_size(1)]
        pruned = restrict_to_items(taxonomy, large_singles)
        candidates = generate_negative_candidates(index, pruned, minsup, MINRI)
    with ledger.span("mining.count_ms"):
        counted = session.count(
            sorted(candidates), restrict_to_candidate_items=True
        )
    with ledger.span("core.select_ms"):
        negatives = select_negatives(
            candidates, counted, len(database), minsup, MINRI,
            measure=session.measure, index=index,
        )
    with ledger.span("core.rulegen_ms"):
        rules = generate_negative_rules(
            negatives, index, MINRI, measure=session.measure, minsup=minsup
        )
    counts = {
        "data.scans": database.scans - scans,
        "mining.passes": database.logical_scans - logical,
        "mining.large_itemsets": len(index),
        "core.candidates": len(candidates),
        "core.negatives": len(negatives),
        "core.rules": len(rules),
    }
    return rules, counts, index


def traced_load_and_mine(ledger: Ledger, baskets: Path, taxonomy):
    with ledger.span("data.load_ms"):
        database = load_basket_file(baskets)
    config = MiningConfig(minsup=MINSUP, minri=MINRI)
    session = MiningSession.from_config(database, taxonomy, config)
    return traced_mine(ledger, database, taxonomy, session)


def with_yield(counts: dict) -> dict:
    """Add ``core.candidate_yield``: negatives per counted candidate."""
    candidates = counts["core.candidates"]
    return {
        **counts,
        "core.candidate_yield": (
            counts["core.negatives"] / candidates if candidates else 0.0
        ),
    }


def run(workdir: Path, seed: int, seconds: float, traced: bool) -> Outcome:
    """Mine ``ROWS`` Tall baskets repeatedly for *seconds*.

    Each set-up writes its own draw of the baskets (the seed's first,
    second and third), and the timed ops take the draws in turn: how much
    work an op does moves with the itemsets that land near MinSup in one
    draw, and three draws per run damp that.
    Every op must mine exactly what its draw's warm-up op mined.

    In the traced run, untraced public ops alternate with traced
    decompositions; the ratio of their medians is the tracing overhead.
    """
    out = Outcome()
    generate_s, draws = [], []
    for number in range(SETUPS):
        started = time.perf_counter()
        setup_dir = workdir / f"setup{number}"
        setup_dir.mkdir()
        files = write_dataset(setup_dir, "tall", ROWS, [seed, number])
        taxonomy = load_taxonomy_file(files.taxonomy)
        rules, counts, _ = public_mine(files.baskets, taxonomy)  # warm-up
        out.setup_s.append(time.perf_counter() - started)
        generate_s.append(files.generate_s)
        draws.append((files.baskets, taxonomy, fingerprint(rules), counts))

    ledger = Ledger()
    traced_ms = []
    deadline = time.perf_counter() + seconds
    while out.attempted == 0 or time.perf_counter() < deadline:
        decompose = traced and out.attempted % 2 == 1
        baskets, taxonomy, expected_print, expected_counts = draws[
            out.attempted % len(draws)
        ]
        out.attempted += 1
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            if decompose:
                rules, counts, _ = traced_load_and_mine(
                    ledger, baskets, taxonomy
                )
            else:
                rules, counts, _ = public_mine(baskets, taxonomy)
        except ReproError as exc:
            out.failed += 1
            out.problems.append(f"op failed: {exc}")
            continue
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        cpu_ms = (time.process_time() - cpu) * 1000.0
        if decompose:
            ledger.close_op()
            traced_ms.append(elapsed_ms)
        else:
            out.op_ms.append(elapsed_ms)
            out.op_cpu_ms.append(cpu_ms)
        if fingerprint(rules) != expected_print or counts != expected_counts:
            out.failed += 1
            out.problems.append(
                f"op {out.attempted} ({'traced' if decompose else 'public'})"
                " differs from its draw's warm-up op"
            )

    if traced:
        out.layers.update(ledger.medians())
        out.layers.update(with_yield(draws[0][3]))
        out.layers["synthetic.generate_s"] = median(generate_s)
        if traced_ms and out.op_ms:
            out.layers["trace.overhead_frac"] = (
                median(traced_ms) / median(out.op_ms) - 1.0
            )
    out.extra["rules_sha256"] = " ".join(draw[2][:16] for draw in draws)
    return out
