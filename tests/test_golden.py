"""CLI outputs are byte-identical to the committed golden files.

A change that moves an output on purpose regenerates them with
tests/golden/regenerate.py and lists the moved cells, which both this
test and the script print, in CHANGES.md.
"""

import pytest

from golden_outputs import COMMANDS, GOLDEN_DIR, differing_cells, run_command


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_file(name, tmp_path):
    run_command(name, tmp_path / name)
    expected = (GOLDEN_DIR / name).read_bytes()
    actual = (tmp_path / name).read_bytes()
    if actual != expected:
        cells = differing_cells(expected.decode(), actual.decode())
        pytest.fail(f"{' '.join(COMMANDS[name])} differs from tests/golden/{name}:\n"
                    + "\n".join(cells or ["(same cells, different bytes)"]))
