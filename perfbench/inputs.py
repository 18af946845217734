"""Benchmark inputs, generated with ``repro.synthetic`` and written as the
basket and taxonomy files the program reads.

The catalogue of a workload -- its taxonomy and cluster model -- comes
from a fixed structure seed, and ``--seed`` draws the baskets. Letting
the seed also redraw the taxonomy changes the mining work by up to 9x
between seeds (Tall, scale 0.02: 0.9 s to 8 s per op), which would
measure the draw, not the program; with the catalogue fixed, seeds
move the op time by a few per cent.

The structure seeds were picked among a handful so that each workload
loads the layer it exists for at about a second per op: Tall 4 spends
~70 % of the mining op in candidate generation, Short 12345 ~80 % of a
stream re-mine in positive mining and counting. Serving gets its own
Tall catalogue (7), whose ~5,500 rules at minconf 0.9 cost ~3 ms per
cache miss; a larger
index (Tall 42: ~31,000 rules, ~45 ms per miss) saturates the server at
100 requests/s and its queue grows without bound. (Some catalogues
explode: Tall 5 and 10 take over 8 s per op at minsup 0.10, Short 3
200 s, all in candidate generation.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.data.io import save_basket_file, save_taxonomy_file
from repro.synthetic.clusters import build_cluster_model
from repro.synthetic.generator import generate_transactions
from repro.synthetic.params import SHORT, TALL
from repro.synthetic.taxonomy_gen import generate_taxonomy

SCALE = 0.02
#: The online workloads (serve-open, stream-append) start from one fixed
#: history drawn with this seed; ``--seed`` + 1 (never the history's
#: seed) draws the traffic that arrives. Redrawing the history per seed
#: moved the work of a stream update by up to 30 %: the itemsets that
#: land near MinSup decide how many candidates and mining passes the
#: history needs.
HISTORY_SEED = 0
#: Catalogue name -> (generator preset, structure seed).
CATALOGUES = {
    "tall": (TALL, 4),
    "short": (SHORT, 12_345),
    "tall-serving": (TALL, 7),
}


@dataclass
class Catalogue:
    """A fixed taxonomy and cluster model that baskets are drawn from."""

    params: object
    taxonomy: object
    model: object

    def rows(self, count: int, rng: np.random.Generator):
        """*count* fresh baskets as a ``TransactionDatabase``."""
        params = replace(self.params, num_transactions=count)
        return generate_transactions(self.model, params, rng)


def catalogue(name: str) -> Catalogue:
    preset, structure_seed = CATALOGUES[name]
    params = preset.scaled(SCALE)
    rng = np.random.default_rng(structure_seed)
    taxonomy = generate_taxonomy(params, rng)
    model = build_cluster_model(taxonomy, params, rng)
    return Catalogue(params, taxonomy, model)


@dataclass
class Files:
    """A generated dataset on disk, plus what the benchmark keeps of it."""

    baskets: Path
    taxonomy: Path
    catalogue: Catalogue
    generate_s: float


def write_dataset(workdir: Path, name: str, rows: int, seed) -> Files:
    """Generate *rows* baskets of catalogue *name* from *seed* (anything
    ``numpy.random.default_rng`` takes) and write them."""
    started = time.perf_counter()
    source = catalogue(name)
    database = source.rows(rows, np.random.default_rng(seed))
    generate_s = time.perf_counter() - started
    files = Files(
        baskets=workdir / "data.basket",
        taxonomy=workdir / "data.tax",
        catalogue=source,
        generate_s=generate_s,
    )
    save_basket_file(database, files.baskets)
    save_taxonomy_file(source.taxonomy, files.taxonomy)
    return files


def append_rows(path: Path, rows) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        for row in rows:
            handle.write(" ".join(str(item) for item in row) + "\n")
