"""Rewrite every golden output from the current source.

Run from the repository root, after a change that moves an output on
purpose:

    PYTHONPATH=src python tests/golden/regenerate.py

It prints every cell it changes, as file, row, column, old value, new
value and |Δ|; list those moved cells in CHANGES.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from golden_outputs import COMMANDS, GOLDEN_DIR, differing_cells, run_command  # noqa: E402

for name in COMMANDS:
    path = GOLDEN_DIR / name
    old = path.read_text(encoding="utf-8") if path.exists() else None
    run_command(name, path)
    new = path.read_text(encoding="utf-8")
    if old is None:
        print(f"{name}: new file")
    elif new != old:
        for cell in differing_cells(old, new) or ["(same cells, different bytes)"]:
            print(f"{name} {cell}")
    print(f"wrote {path}")
