"""Test set-up for the benchmark's own tests: ``pytest perfbench``.

The benchmark modules import each other by bare name (they run as
scripts from this directory) and import ``repro`` from ``src``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
