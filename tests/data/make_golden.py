"""Write the golden ``qset scan`` CSVs that pin the scan's output.

Each file is a gzip'd CSV whose first line is ``# `` followed by a JSON
header: the commit the file was generated at and the ``qset`` argv that
reproduces it.  ``tests/test_golden.py`` reruns every argv and compares the
rows cell by cell.

Run from a checkout, with the code to pin on the path:

    PYTHONPATH=src python tests/data/make_golden.py

The grids:

* ``accept6``: the acceptance-6 theta scan across the pi/8 threshold;
* ``grid``: a seeded 10,000-row grid over (theta, a1, b0, b1) with a0 = 0
  and b0 starting at 0, so an eighth of its rows lie on the a0 = b0 face;
  theta runs from near 0 to near pi/2, through the Local region and the
  extremality thresholds.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import subprocess
from pathlib import Path

import numpy as np

PI = math.pi
HERE = Path(__file__).resolve().parent
SEED = 20240613


def _grid_argv() -> list[str]:
    rng = np.random.default_rng(SEED)
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    ranges = {"theta": (u(0.0, 0.05), u(1.45, PI / 2), 25),
              "a1": (u(0.2, 1.0), u(2.2, 3.0), 10),
              "b0": (0.0, u(2.0, 3.0), 8),
              "b1": (u(1.0, 1.6), u(2.6, 3.1), 5)}
    argv = ["scan"]
    for name, (lo, hi, steps) in ranges.items():
        argv += ["--range", f"{name}={lo!r}:{hi!r}:{steps}"]
    return argv + ["--a0", "0.0"]


GRIDS = {
    "accept6": ["scan", "--range", f"theta=0.05:{PI / 4!r}:200", "--a0", "0",
                "--a1", repr(PI / 2), "--b0", repr(PI / 4), "--b1", repr(3 * PI / 4)],
    "grid": _grid_argv(),
}


def path_of(name: str) -> Path:
    return HERE / f"scan_{name}.csv.gz"


def read_golden(path: Path) -> tuple[dict, str]:
    """(header, CSV text) of a golden file."""
    with gzip.open(path, "rt", encoding="utf-8", newline="") as fh:
        first, body = fh.read().split("\n", 1)
    return json.loads(first[2:]), body


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    from qset.cli import main as qset_main

    commit = _commit()
    for name, argv in GRIDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert qset_main(argv) == 0
        header = json.dumps({"commit": commit, "argv": argv})
        # mtime=0 keeps the gzip bytes a function of the content alone
        with open(path_of(name), "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(f"# {header}\n{buf.getvalue()}".encode("utf-8"))
        print(f"{path_of(name).name}: {buf.getvalue().count(chr(10)) - 1} rows")


if __name__ == "__main__":
    main()
