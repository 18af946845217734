"""Transaction database substrate.

The paper's cost model is *passes over the data* — the Naive negative miner
makes two passes per level, the Improved one n + 1 in total — so the central
class here, :class:`~repro.data.database.TransactionDatabase`, counts full
scans and exposes that counter to the benchmark harness. The subpackage also
provides simple text IO for baskets and taxonomies, and
:class:`~repro.data.filedb.FileBackedDatabase`, which re-reads a basket file
from disk on every pass.
"""

from .database import TransactionDatabase
from .filedb import FileBackedDatabase
from .io import (
    load_basket_file,
    load_taxonomy_file,
    save_basket_file,
    save_taxonomy_file,
)

__all__ = [
    "TransactionDatabase",
    "FileBackedDatabase",
    "load_basket_file",
    "save_basket_file",
    "load_taxonomy_file",
    "save_taxonomy_file",
]
