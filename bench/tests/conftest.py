"""Run with ``python -m pytest bench/tests -q`` from the repository root.

Not collected by tier-1 (its ``testpaths`` is ``tests``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
