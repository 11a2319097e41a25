"""Deterministic CSV output with a provenance header.

Every result file starts with comment lines carrying the tool version, a hash
of the originating configuration and a timestamp; two runs with the same
configuration and seed differ at most in the timestamp line.
"""
from __future__ import annotations

import datetime
import hashlib
from typing import Iterable, Sequence

from . import __version__


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def format_value(v) -> str:
    # numpy scalars first: np.float64 is a float whose repr is "np.float64(...)"
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def from_columns(*data) -> Iterable[str]:
    """Rows from whole columns, as the text that ``write_csv`` writes.

    Each column is formatted whole: a numpy float column by ``repr`` of its
    ``tolist``, any other numpy column by ``str``, a plain sequence by
    ``format_value``.  The text is that of ``format_value`` on every value.
    """
    texts = []
    for col in data:
        if not hasattr(col, "tolist"):
            texts.append(map(format_value, col))
        else:
            texts.append(map(repr if col.dtype.kind == "f" else str, col.tolist()))
    return map(",".join, zip(*texts))


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence | str], meta: dict | None = None) -> None:
    """Write a CSV with provenance comments; a row is a sequence of values or, from ``from_columns``, its text."""
    lines = [f"# tool=graphlse {__version__}"]
    for key, val in (meta or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(f"# timestamp={datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(row if isinstance(row, str) else ",".join(map(format_value, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
            elif not columns:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, columns, rows
