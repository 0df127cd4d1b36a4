"""Rewrite every golden output from the current source.

Run from the repository root, after a change that moves an output on
purpose:

    PYTHONPATH=src python tests/golden/regenerate.py

then list the moved cells (tests/test_golden.py prints them) in CHANGES.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from golden_outputs import COMMANDS, GOLDEN_DIR, run_command  # noqa: E402

for name in COMMANDS:
    run_command(name, GOLDEN_DIR / name)
    print(f"wrote {GOLDEN_DIR / name}")
