"""The row format of dataset CSVs, report CSVs and checkpoints.

A row file is UTF-8 text, one row of comma-separated cells per line.
The writer prints floats as FLOAT_FMT, None as an empty cell and other
values with str, and refuses a cell holding ',', '\\n' or '\\r' before
it opens the file.  The reader splits lines at exactly those breaks and
skips blank lines.  A line whose cell count differs from the first
line's, or a cell that does not parse as its type (floats must be
finite), raises ValueError naming the file and the 1-based line; a
file that is not UTF-8 raises ValueError naming the file.
"""

from __future__ import annotations

import math
import numbers
from types import UnionType
from typing import get_args, get_origin

# 17 significant digits round-trip IEEE-754 doubles exactly.
FLOAT_FMT = "%.17g"

_EXPECTED = {int: "an integer", float: "a finite number"}


def _integer(value, name: str) -> int:
    """``value`` as an int: a bool or a non-integer (1.5, but also 2.0)
    raises ValueError naming ``name`` instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _text(value) -> str:
    if value is None:
        return ""
    text = FLOAT_FMT % value if isinstance(value, float) else str(value)
    if any(c in text for c in ",\n\r"):
        raise ValueError(f"CSV cell {text!r} contains a separator character")
    return text


def write_rows(path, rows, header=None) -> None:
    """Write ``rows`` of cell values to ``path``, one line each, after
    an optional ``header`` line of column names."""
    lines = [] if header is None else [",".join(header)]
    lines.extend(",".join(_text(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def read_rows(path):
    """Yield ``(lineno, cells)`` for each non-blank line of ``path``.
    A file that is not UTF-8 raises ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    width = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ValueError(
                f"{path} line {lineno}: expected {width} columns, got {len(cells)}")
        yield lineno, cells


def parse_cell(hint, cell: str, where: str):
    """``cell`` as the type ``hint``: int, finite float, str, or ``X |
    None`` with an empty cell as None.  A bad cell raises ValueError
    prefixed with ``where``, the file and line it came from."""
    if get_origin(hint) is UnionType:
        return None if cell == "" else parse_cell(get_args(hint)[0], cell, where)
    try:
        value = hint(cell)
        if hint is float and not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise ValueError(f"{where}: expected {_EXPECTED[hint]}, got {cell!r}") from None
    return value
