"""The row format of dataset CSVs, report CSVs and checkpoints, and the
field rule of every config class.

A row file is UTF-8 text, one row of comma-separated cells per line.
The writer prints floats as FLOAT_FMT, None as an empty cell and other
values with str, and refuses a cell holding ',', '\\n' or '\\r' before
it opens the file.  The reader splits lines at exactly those breaks and
skips blank lines.  A line whose cell count differs from the first
line's, or a cell that does not parse as its type (numbers canonical,
floats finite), raises ValueError naming the file and the 1-based
line; a file that is not UTF-8 raises ValueError naming the file.

The field rule ``_value`` decides from a type hint what a config value
may be, built in Python or read from JSON; each config class applies it
to every field (``check_fields``).  A bounded field declares its Range
once on its hint, as ``Annotated[int, AT_LEAST_1]`` (a tuple's element
hint bounds each element); cross-field checks stay with their class.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Callable
from contextlib import suppress
from functools import cache, partial
from types import UnionType
from typing import Annotated, NamedTuple, get_args, get_origin, get_type_hints

# 17 significant digits round-trip IEEE-754 doubles exactly.
FLOAT_FMT = "%.17g"

_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false",
             str: "a string", tuple: "a list"}


class Range(NamedTuple):
    """A bound on a field: ``ok(value)`` holds inside it, and a value
    outside raises ``f"{name} {rule}"``."""

    rule: str
    ok: Callable


AT_LEAST_0 = Range("must be >= 0", lambda v: v >= 0)
AT_LEAST_1 = Range("must be >= 1", lambda v: v >= 1)
AT_LEAST_2 = Range("must be >= 2", lambda v: v >= 2)
POSITIVE = Range("must be finite and > 0", lambda v: math.isfinite(v) and v > 0)
NON_NEGATIVE = Range("must be finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
UNIT = Range("must lie in [0, 1]", lambda v: 0 <= v <= 1)
MOMENTUM = Range("must lie in [0, 1)", lambda v: 0 <= v < 1)
OPEN_UNIT = Range("must lie strictly in (0, 1)", lambda v: 0 < v < 1)
DISTINCT = Range("must be distinct", lambda v: len(set(v)) == len(v))

_hints = cache(partial(get_type_hints, include_extras=True))

# an optional sign, ASCII digits, and for floats a fraction and exponent
_CANONICAL = {int: re.compile(r"[+-]?[0-9]+"),
              float: re.compile(r"[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")}


def _value(hint, value, name: str):
    """``value`` stored as type ``hint``, else a ValueError naming ``name``.
    int and float take integral and real numbers, never bools; a tuple
    takes a tuple or list, ``X | None`` also None, other hints instances;
    ``Annotated[X, *ranges]`` checks X, then each Range on a non-None value."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        value = _value(args[0], value, name)
        for bound in args[1:]:
            if value is not None and not bound.ok(value):
                raise ValueError(f"{name} {bound.rule}")
        return value
    if origin is UnionType:
        return None if value is None else _value(args[0], value, name)
    kind = origin or hint
    number = {int: numbers.Integral, float: numbers.Real}.get(kind)
    if kind is tuple and isinstance(value, (tuple, list)):
        return tuple(_value(args[0], v, name) for v in value)
    if number and isinstance(value, number) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int beyond the float range
            return kind(value)
    elif not number and isinstance(value, kind):
        return value
    raise ValueError(f"{name}: expected {_EXPECTED.get(kind, 'an object')}, got {value!r}")


def check_fields(obj, prefix: str = "") -> None:
    """Store each field of dataclass ``obj`` as ``_value`` checks it
    against its hint and ranges, naming ``prefix`` + the field in an
    error; the first bad field in declaration order is the one named."""
    for name, hint in _hints(type(obj)).items():
        object.__setattr__(obj, name, _value(hint, getattr(obj, name), prefix + name))


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
    """``cell`` as the type ``hint``: a canonical int or finite float (no
    spaces or digit underscores), str, or ``X | None`` with an empty cell
    as None.  A bad cell raises ValueError prefixed with ``where``, the
    file and line it came from."""
    if get_origin(hint) is UnionType:
        return None if cell == "" else parse_cell(get_args(hint)[0], cell, where)
    try:
        if hint in _CANONICAL and not _CANONICAL[hint].fullmatch(cell):
            raise ValueError
        value = hint(cell)
        if hint is float and not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise ValueError(f"{where}: expected {_EXPECTED[hint]}, got {cell!r}") from None
    return value
