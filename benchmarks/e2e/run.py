"""Script entry point: ``python3 benchmarks/e2e/run.py [run options]``.

Equivalent to ``PYTHONPATH=src python -m benchmarks.e2e run ...`` from
the repository root, which is found from this file's location.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Import this package by its full name, not from its own directory.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["run", *sys.argv[1:]]))
