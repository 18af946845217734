"""Unit tests for the benchmark harness's shared setup."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_importing_common_loads_numpy_ma():
    """``numpy.ma`` must be loaded before any timed window opens.

    NumPy imports it on the first plain ``np.unique``/``np.setdiff1d``
    call of a process, about 30 ms; a benchmark that made that call
    inside its timed window measured the import, not its work. Checked
    in a fresh interpreter, since this process may have loaded it
    already.
    """
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, benchmarks.common; "
            "print('numpy.ma' in sys.modules)",
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == "True"
