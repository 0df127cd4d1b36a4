"""The CLI outputs committed under tests/golden/, and how to read and compare them."""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from pathlib import Path

import numpy as np

from ergokit import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# file name -> command line; every command prints its output to stdout
COMMANDS = {
    "figure1.csv": ["figure1", "--n-max", "20"],
    "figure1_beta5.csv": ["figure1", "--beta", "5", "--n-max", "20"],
    "sweep_entangled.csv": ["sweep", "--family", "entangled", "--n", "2:10"],
    "sweep_entangled_ppt.csv": ["sweep", "--family", "entangled", "--n", "2:10", "--ppt"],
    "sweep_separable.csv": ["sweep", "--family", "separable", "--n", "2:10"],
    "sweep_dicke.csv": ["sweep", "--family", "dicke", "--n", "2:10"],
    "sweep_dicke_ppt.csv": ["sweep", "--family", "dicke", "--n", "2:10", "--ppt"],
    "sweep_fixed_entropy.csv": ["sweep", "--family", "fixed-entropy", "--n", "2:10",
                                "--total-entropy", "2.0"],
    "sweep_protocol.csv": ["sweep", "--family", "protocol", "--n", "2:14", "--beta-prime",
                           "1.0", "--target-bias", "-0.3", "--target-bias", "0.1"],
    "sweep_separable_d3.csv": ["sweep", "--family", "separable", "--d", "3",
                               "--energy-ladder", "0,1,1.7", "--n", "2:6"],
    "sweep_entangled_d3_ppt.csv": ["sweep", "--family", "entangled", "--d", "3",
                                   "--energy-ladder", "0,1,2.5", "--n", "2:6", "--ppt"],
    "figure1_beta30.csv": ["figure1", "--beta", "30", "--n-max", "20"],
    "protocol_rotate_n4.txt": ["protocol", "--kind", "rotate", "--n", "4", "--beta-prime",
                               "2.0", "--target-bias", "0.3"],
    "protocol_invert_n12.txt": ["protocol", "--kind", "invert", "--n", "12", "--beta-prime",
                                "1.0", "--target-bias", "-0.4"],
    "protocol_rotate_n11.txt": ["protocol", "--kind", "rotate", "--n", "11", "--beta-prime",
                                "1.0", "--target-bias", "-0.3"],
    "sweep_fixed_entropy_beta2.csv": ["sweep", "--family", "fixed-entropy", "--n", "2:10",
                                      "--beta", "2", "--total-entropy", "1.799"],
}


@contextlib.contextmanager
def one_blas_thread():
    """Pin OpenBLAS to one thread, then restore its thread count.

    A cell that rounds an exact zero depends on how OpenBLAS splits its
    work across threads, so the outputs are made, and compared, with one.
    Acts on the scipy-openblas build NumPy ships (perfbench/run.py reads
    the thread count from the same library); with another BLAS it does
    nothing.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
            before = get()
            set_(1)
            try:
                yield
            finally:
                set_(before)
            return
    yield


def run_command(name: str, path: Path):
    """Run the command of golden file `name` through cli.main, its stdout into path.

    OpenBLAS runs on one thread meanwhile, so the bytes do not depend on
    the machine's thread count.
    """
    with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out), \
            one_blas_thread():
        code = cli.main(COMMANDS[name])
    if code != 0:
        raise RuntimeError(f"{' '.join(COMMANDS[name])} exited {code}")


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(source) -> tuple[list[str], list[dict]]:
    """Inverse of reporting.emit_csv; accepts a path or CSV text."""
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source
                                    and Path(source).is_file()):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("CSV must start with a '#'-prefixed header line")
    columns = [c.strip() for c in lines[0].lstrip("#").strip().split(",")]
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, expected {len(columns)}")
        rows.append({col: _parse_cell(cell) for col, cell in zip(columns, cells)})
    return columns, rows


def _cells(text: str) -> dict:
    """(row, column) -> value of a CSV, or of `key = value` lines as row 0."""
    if text.startswith("#"):
        _, rows = parse_csv(text)
        return {(i, col): value for i, row in enumerate(rows) for col, value in row.items()}
    pairs = (line.partition(" = ") for line in text.splitlines())
    return {(0, key): _parse_cell(value) for key, _, value in pairs}


def differing_cells(expected: str, actual: str) -> list[str]:
    """One line per cell that differs between two outputs, with |Δ| where both are numbers."""
    want, got = _cells(expected), _cells(actual)
    lines = []
    for key in sorted(want.keys() | got.keys()):
        a, b = want.get(key), got.get(key)
        if a == b:
            continue
        where = f"row {key[0]} {key[1]}: {a!r} -> {b!r}"
        numbers = all(isinstance(v, (int, float)) for v in (a, b))
        lines.append(f"{where} (|Δ| = {abs(b - a):.3g})" if numbers else where)
    return lines
