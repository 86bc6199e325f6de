"""Let the CLI subprocesses that some tests start import ggbm from the
source tree, so the suite runs from a fresh checkout with no install and
no PYTHONPATH (pyproject.toml puts src on the test process's own path)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
