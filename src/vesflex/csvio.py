"""The CSV format every subcommand reads and writes.

One header line, then one row of comma-separated fields per sample.  Read
fields are finite floats.  Each written column holds cells of one type: a
str as-is, a bool as 1/0, an int as a decimal and a float as its
repr-faithful %.17g, so outputs are byte-identical across runs and
round-trip exactly.
numpy is imported only when a file is read, which keeps a process that
never reads a CSV (the CLI front end, `humidity`) free of it.
"""

from __future__ import annotations

import math
from itertools import repeat

from .errors import InputError

# row format of a column whose cells are all of one Python type (bool and
# int share theirs)
_SPEC = {float: "%.17g", int: "%d", bool: "%d", str: "%s"}


def read_csv(path: str, header: list[str]):
    """Rows x columns of finite floats under exactly `header`, as a numpy array.

    LF and CRLF line ends are accepted and blank lines are skipped; a byte
    that is not UTF-8, a wrong header, a row of another width or a
    non-finite field is an InputError naming the path.
    """
    import numpy as np

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    lines = list(filter(str.strip, text.splitlines()))
    if not lines or lines[0] != ",".join(header):
        raise InputError(f"{path}: expected header {','.join(header)!r}")
    body, width = lines[1:], len(header)
    # every field in one pass; any fault sends the file to the line-by-line
    # check below, which names the first bad line
    try:
        values = list(map(float, ",".join(body).split(","))) if body else []
    except ValueError:
        values = None
    if (
        values is not None
        and set(map(str.count, body, repeat(","))) <= {width - 1}
        and all(map(math.isfinite, values))
    ):
        return np.array(values, dtype=float).reshape(len(body), width)
    numbered = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    for no, line in numbered[1:]:
        try:
            row = [float(f) for f in line.split(",")]
        except ValueError as exc:
            raise InputError(f"{path}:{no}: {exc}") from None
        if len(row) != width or not all(map(math.isfinite, row)):
            raise InputError(f"{path}:{no}: expected {width} finite numbers")
    raise AssertionError(f"{path}: rejected in one pass but no line is bad")


def _scalar(v):
    """A numpy scalar as the Python bool, int or float its tolist() gives."""
    return v.tolist() if hasattr(v, "tolist") else v


def _column(col) -> tuple[str, list]:
    """A column's row-format spec and its cells as Python scalars."""
    # tolist() turns numpy arrays and scalars (np.bool_, np.integer, np.float64)
    # into bool, int and float, which the specs then format exactly
    cells = col.tolist() if hasattr(col, "tolist") else list(map(_scalar, col))
    specs = {_SPEC.get(kind) for kind in set(map(type, cells))}
    if len(specs) > 1 or None in specs:
        raise InputError("internal: a CSV column must be all str, all float or all int/bool")
    return (specs.pop() if specs else "%s"), cells  # an empty column has no rows to format


def write_csv(path: str, header: list[str], columns: list) -> None:
    """One header line, then one LF-ended row per index of the equal-length columns."""
    rows = len(columns[0])
    for col in columns:
        if len(col) != rows:
            raise InputError("internal: ragged CSV columns")
    specs, cells = zip(*map(_column, columns))
    row = ",".join(specs) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(row.__mod__, zip(*cells)))
