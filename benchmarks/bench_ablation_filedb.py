"""A7 — Ablation: disk-backed passes restore the paper's cost model.

With an in-memory database the pass-count difference between the Naive
(2n) and Improved (n+1) schedule barely shows in wall-clock time; the
paper's database lived on disk, where every extra pass costs real IO.
This ablation runs both miners over a :class:`FileBackedDatabase` —
which re-reads and re-parses the basket file on every pass of the
row-scanning ``bitmap`` engine pinned here (the default ``cached``
engine would read it once) — and reports time, pass counts and bytes
read.

Run directly::

    python -m benchmarks.bench_ablation_filedb
"""

import tempfile
import time
from pathlib import Path

import pytest

from repro.core.negmining import ImprovedNegativeMiner, NaiveNegativeMiner
from repro.core.session import MiningSession
from repro.data.filedb import FileBackedDatabase
from repro.data.io import save_basket_file

from .common import MINRI, dataset, support_sweep

MINSUP = support_sweep()[0]


def _materialize(tmp_dir: str) -> tuple[FileBackedDatabase, object, int]:
    data = dataset("short")
    path = Path(tmp_dir) / "short.basket"
    save_basket_file(data.database, path)
    file_db = FileBackedDatabase(path)
    return file_db, data.taxonomy, path.stat().st_size


def _mine(miner_class, file_db, taxonomy):
    session = MiningSession(file_db, taxonomy, "bitmap")
    return miner_class(
        file_db, taxonomy, MINSUP, MINRI, session=session
    ).mine()


@pytest.mark.parametrize(
    "miner_class", [ImprovedNegativeMiner, NaiveNegativeMiner],
    ids=["improved", "naive"],
)
def test_filedb_miner(benchmark, tmp_path, miner_class):
    file_db, taxonomy, file_size = _materialize(str(tmp_path))

    def mine():
        file_db.reset_scans()
        return _mine(miner_class, file_db, taxonomy)

    output = benchmark.pedantic(mine, rounds=1, iterations=1)
    benchmark.extra_info.update(
        passes=output.stats.data_passes,
        bytes_read=output.stats.data_passes * file_size,
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp_dir:
        file_db, taxonomy, file_size = _materialize(tmp_dir)
        print(
            f"=== A7: disk-backed mining at MinSup={MINSUP} "
            f"(basket file {file_size / 1024:.0f} KiB) ==="
        )
        for label, miner_class in (
            ("improved", ImprovedNegativeMiner),
            ("naive", NaiveNegativeMiner),
        ):
            file_db.reset_scans()
            started = time.perf_counter()
            output = _mine(miner_class, file_db, taxonomy)
            elapsed = time.perf_counter() - started
            read = output.stats.data_passes * file_size
            print(
                f"  {label:<9} time={elapsed:7.2f}s "
                f"passes={output.stats.data_passes:3d} "
                f"IO={read / 1024:7.0f} KiB "
                f"negatives={output.stats.negative_itemsets}"
            )
        print(
            "\nthe Naive schedule's extra passes are pure re-read/"
            "re-parse cost — the 1998 trade-off, reconstructed."
        )


if __name__ == "__main__":
    main()
