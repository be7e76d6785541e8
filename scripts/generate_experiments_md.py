"""Regenerate EXPERIMENTS.md: one section per entry of ``repro.experiments.index.EXPERIMENTS``.

Usage:  python scripts/generate_experiments_md.py [output_path]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.experiments.index import EXPERIMENTS

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by ``python scripts/generate_experiments_md.py``.  Each section
reproduces one table/figure of Nakajima (SC 2003); paper reference values
are embedded in the tables or their headers.  Our runs use geometrically
scaled-down models (DESIGN.md documents the scaling and the Earth
Simulator hardware substitution), so absolute numbers differ while the
qualitative claims — checked and marked PASS/FAIL below — reproduce the
paper's findings.
"""


def main(out_path: str) -> int:
    sections = [HEADER]
    all_ok = True
    for exp in EXPERIMENTS.values():
        t0 = time.perf_counter()
        table = exp.run(**exp.kwargs)
        dt = time.perf_counter() - t0
        ok = table.all_claims_hold
        all_ok &= ok
        sections.append(f"## {exp.title}\n")
        sections.append("```")
        sections.append(table.render())
        sections.append("```")
        sections.append(f"*({dt:.1f}s; claims: {'all PASS' if ok else 'FAILED: ' + ', '.join(table.failed_claims())})*\n")
        print(f"[{'ok' if ok else 'FAIL'}] {exp.title} ({dt:.1f}s)")
    Path(out_path).write_text("\n".join(sections))
    print(f"wrote {out_path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    raise SystemExit(main(out))
